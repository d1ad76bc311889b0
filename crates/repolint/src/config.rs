//! Rule names and path scoping.
//!
//! The determinism invariants clippy can express (hash-ordered
//! collections, wall-clock and entropy sources, panics in the engine)
//! live in the workspace `clippy.toml` and lint tables (DESIGN.md §11).
//! The rules here are the ones clippy has no lint for.

/// Every `pub fn` in `core::kernel` states its predicate-class
/// precondition.
pub const KERNEL_DOC: &str = "kernel-doc";
/// Counter/histogram names come from the `mapreduce::metrics::names`
/// registry.
pub const COUNTER_REGISTRY: &str = "counter-registry";
/// No nested lock acquisitions, no lock held across a `ValueStream` pull
/// or Dfs I/O.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";

/// Normalizes a path to forward slashes for matching.
fn norm(path: &str) -> String {
    path.replace('\\', "/")
}

/// `kernel-doc` scope: the predicate-specialized kernel layer.
pub fn in_kernel_doc_scope(path: &str) -> bool {
    norm(path).contains("crates/core/src/kernel/")
}

/// The counter-name registry module.
pub fn is_registry_file(path: &str) -> bool {
    norm(path).ends_with("/metrics/names.rs")
}

/// Keywords (lowercase) that count as stating a predicate-class
/// precondition in a kernel doc comment. A doc must contain at least one.
pub const PRECONDITION_KEYWORDS: &[&str] = &[
    "single-attribute",
    "colocation",
    "sequence",
    "predicate",
    "allen",
    "condition set",
    "any query class",
    "class-independent",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_expected_paths() {
        assert!(in_kernel_doc_scope("crates/core/src/kernel/mod.rs"));
        assert!(!in_kernel_doc_scope("crates/core/src/cascade.rs"));
        assert!(is_registry_file("crates/mapreduce/src/metrics/names.rs"));
        assert!(!is_registry_file("crates/mapreduce/src/metrics.rs"));
    }
}
