//! Cross-crate self-check: the workspace carries zero counter-registry
//! drift and zero lock-discipline violations. This is the test-suite pin
//! for `repolint check` — if a counter name bypasses
//! `mapreduce::metrics::names`, or a guard is held across stream or Dfs
//! I/O, this test fails before the lint job does.

use std::path::Path;

#[test]
fn workspace_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (violations, scanned) = repolint::check_workspace(root).expect("workspace scan");
    assert!(
        scanned > 50,
        "expected a real workspace scan, saw {scanned} files"
    );
    for rule in [
        repolint::config::COUNTER_REGISTRY,
        repolint::config::LOCK_DISCIPLINE,
    ] {
        let hits: Vec<_> = violations.iter().filter(|v| v.rule == rule).collect();
        assert!(hits.is_empty(), "{rule} violations:\n{hits:#?}");
    }
    assert!(
        violations.is_empty(),
        "workspace check has violations:\n{violations:#?}"
    );
}

#[test]
fn execution_shape_classifiers_are_registry_backed() {
    // The satellite dedup: both classifiers must be the registry's —
    // the historical re-export paths and the registry module agree on
    // every registered name.
    use ij_mapreduce::metrics::names;
    for name in names::ALL {
        assert_eq!(
            ij_mapreduce::is_execution_shape(name),
            names::is_execution_shape(name),
            "{name}"
        );
        assert_eq!(
            ij_mapreduce::telemetry::snapshot::is_execution_shape_series(name),
            names::is_execution_shape_series(name),
            "{name}"
        );
    }
    // The one intentionally split classification stays pinned: reduce
    // heartbeats are execution-shape as counters but data-plane as series.
    assert!(names::is_execution_shape(names::HEARTBEATS_REDUCE));
    assert!(!names::is_execution_shape_series(names::HEARTBEATS_REDUCE));
}
