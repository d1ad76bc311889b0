//! Rule registry and path scoping.
//!
//! Each rule guards one determinism or soundness invariant of the
//! workspace (DESIGN.md §11). Scoping is path-based and intentionally
//! conservative: a rule fires everywhere inside its scope unless an
//! explicit `// repolint: allow(<rule>): <justification>` marker
//! suppresses it.

/// Stable rule identifiers (these are the names allow-markers use).
pub const UNORDERED_ITER: &str = "unordered-iter";
/// See [`UNORDERED_ITER`].
pub const WALL_CLOCK: &str = "wall-clock";
/// See [`UNORDERED_ITER`].
pub const NO_PANIC: &str = "no-panic";
/// See [`UNORDERED_ITER`].
pub const KERNEL_DOC: &str = "kernel-doc";
/// Call-graph rule: no panic-capable function reachable from the engine
/// entry points (`repolint graph`).
pub const PANIC_PROPAGATION: &str = "panic-propagation";
/// Call-graph rule: counter/histogram names must come from the
/// `mapreduce::metrics::names` registry (`repolint graph`).
pub const COUNTER_REGISTRY: &str = "counter-registry";
/// Call-graph rule: no nested lock acquisitions, no lock held across a
/// `ValueStream` pull or Dfs I/O (`repolint graph`).
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Emitted for malformed allow-markers (unknown rule, no justification).
pub const BAD_MARKER: &str = "bad-marker";

/// One rule's registry entry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (`unordered-iter`, …).
    pub name: &'static str,
    /// One-line description shown in reports.
    pub summary: &'static str,
}

/// Every rule the tool knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: UNORDERED_ITER,
        summary: "no HashMap/HashSet in shuffle/output-feeding modules; \
                  use BTreeMap/BTreeSet or sort before iterating",
    },
    RuleInfo {
        name: WALL_CLOCK,
        summary: "no wall-clock, thread-id or entropy sources outside \
                  trace/bench/datagen allowlist",
    },
    RuleInfo {
        name: NO_PANIC,
        summary: "no unwrap/expect/panic in engine hot paths; typed \
                  EngineError only",
    },
    RuleInfo {
        name: KERNEL_DOC,
        summary: "every pub fn in core::kernel documents its \
                  predicate-class precondition",
    },
    RuleInfo {
        name: PANIC_PROPAGATION,
        summary: "no unwrap/expect/panic!/indexing-panic function \
                  transitively reachable from Engine::run_job, Dfs, spill \
                  or the telemetry data plane",
    },
    RuleInfo {
        name: COUNTER_REGISTRY,
        summary: "counter/histogram names are declared once in \
                  mapreduce::metrics::names and referenced as constants; \
                  execution-shape classifiers live in the registry",
    },
    RuleInfo {
        name: LOCK_DISCIPLINE,
        summary: "no nested .lock()/.read()/.write() acquisitions in one \
                  function; no lock held across a ValueStream pull or \
                  Dfs I/O call",
    },
];

/// Whether `name` is a known rule identifier.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name) || name == BAD_MARKER
}

/// Normalizes a path to forward slashes for matching.
fn norm(path: &str) -> String {
    path.replace('\\', "/")
}

/// R1 scope: modules whose iteration order can reach emitted pairs,
/// shuffle keys or reported metrics — the algorithm crate and the engine.
pub fn in_unordered_iter_scope(path: &str) -> bool {
    let p = norm(path);
    p.contains("crates/core/src/") || p.contains("crates/mapreduce/src/")
}

/// R2 scope: every crate source file except the explicit allowlist —
/// the tracer (wall-clock is its purpose), the bench harness, the
/// datagen crate (seeded generators; timing only feeds reports), and the
/// telemetry clock module — the *single* file where the telemetry plane
/// may touch `Instant`; the rest of `telemetry/` must go through the
/// injectable `Clock` trait and so stays in scope.
pub fn in_wall_clock_scope(path: &str) -> bool {
    let p = norm(path);
    if !p.contains("crates/") || !p.contains("/src/") {
        return false;
    }
    let allowlisted = p.contains("crates/bench/")
        || p.contains("crates/datagen/")
        || p.ends_with("crates/mapreduce/src/trace.rs")
        || p.ends_with("crates/mapreduce/src/telemetry/clock.rs");
    !allowlisted
}

/// R3 scope: the engine's reduce/shuffle hot paths, plus the whole live
/// telemetry plane (it runs inside those hot paths, so a panic there is a
/// panic in the engine).
pub fn in_no_panic_scope(path: &str) -> bool {
    let p = norm(path);
    p.ends_with("crates/mapreduce/src/engine.rs")
        || p.ends_with("crates/mapreduce/src/dfs.rs")
        || p.ends_with("crates/mapreduce/src/job.rs")
        || p.ends_with("crates/mapreduce/src/spill.rs")
        || p.contains("crates/mapreduce/src/telemetry/")
}

/// R4 scope: the predicate-specialized kernel layer.
pub fn in_kernel_doc_scope(path: &str) -> bool {
    norm(path).contains("crates/core/src/kernel/")
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
        assert!(in_unordered_iter_scope("crates/core/src/cascade.rs"));
        assert!(in_unordered_iter_scope("crates/mapreduce/src/fault.rs"));
        assert!(!in_unordered_iter_scope("crates/query/src/query.rs"));

        assert!(in_wall_clock_scope("crates/query/src/query.rs"));
        assert!(!in_wall_clock_scope("crates/mapreduce/src/trace.rs"));
        assert!(!in_wall_clock_scope("crates/bench/src/scenarios.rs"));
        assert!(!in_wall_clock_scope("crates/datagen/src/lib.rs"));
        assert!(!in_wall_clock_scope(
            "crates/mapreduce/src/telemetry/clock.rs"
        ));
        assert!(
            in_wall_clock_scope("crates/mapreduce/src/telemetry/mod.rs"),
            "only clock.rs is allowlisted; the rest of telemetry/ must use Clock"
        );
        assert!(in_wall_clock_scope(
            "crates/mapreduce/src/telemetry/hist.rs"
        ));

        assert!(in_no_panic_scope("crates/mapreduce/src/engine.rs"));
        assert!(in_no_panic_scope("crates/mapreduce/src/spill.rs"));
        assert!(in_no_panic_scope("crates/mapreduce/src/telemetry/mod.rs"));
        assert!(in_no_panic_scope(
            "crates/mapreduce/src/telemetry/recorder.rs"
        ));
        assert!(!in_no_panic_scope("crates/mapreduce/src/metrics.rs"));

        assert!(in_wall_clock_scope("crates/mapreduce/src/spill.rs"));

        assert!(in_kernel_doc_scope("crates/core/src/kernel/mod.rs"));
        assert!(!in_kernel_doc_scope("crates/core/src/cascade.rs"));
    }
}
