//! `repolint` — the workspace's static checks that clippy has no lint
//! for, paired with a dynamic determinism auditor.
//!
//! The engine promises byte-identical job output for every
//! `worker_threads` count and memory budget (DESIGN.md §11). The
//! invariants clippy can express are denied there: hash-ordered
//! collections and wall-clock, thread-id and entropy sources through the
//! workspace `clippy.toml`, and panics in the engine through
//! `ij-mapreduce`'s crate-level lint table. `repolint check` runs the
//! three rules clippy cannot ([`rules`], DESIGN.md §15):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `kernel-doc` | every `pub fn` in `core::kernel` states the predicate classes it is complete for |
//! | `counter-registry` | every counter/histogram name is a `mapreduce::metrics::names` constant; the execution-shape classifiers are defined only in that registry |
//! | `lock-discipline` | no nested guard acquisitions; no guard held across a `ValueStream` pull or Dfs I/O call |
//!
//! The static checks are validated against the property they protect:
//! `repolint audit` ([`audit::run_audit`]) runs all eleven algorithm
//! families under threads 1/2/8 — with the reduce-memory budget both
//! unlimited and pinned low enough to spill — and byte-diffs their
//! Dfs-serialized output.

pub mod audit;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;

use rules::Violation;
use std::path::Path;

/// Checks every workspace source under `root` and returns
/// `(violations, files_scanned)`.
pub fn check_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, usize)> {
    let paths = scan::workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = std::fs::read_to_string(root.join(rel))?;
        files.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    Ok((rules::check(&files), files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let (violations, scanned) = check_workspace(&root).expect("scan");
        assert!(
            scanned > 50,
            "expected a real workspace, saw {scanned} files"
        );
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            report::to_text(&violations, scanned, true)
        );
    }
}
