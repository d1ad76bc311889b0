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
    // One classifier serves counters, series and histograms: the crate-root
    // re-export is the registry's function, and every name it singles out
    // is registered.
    use ij_mapreduce::metrics::names;
    for name in names::ALL {
        assert_eq!(
            ij_mapreduce::is_execution_shape(name),
            names::is_execution_shape(name),
            "{name}"
        );
    }
    for name in names::SHAPE_NAMES {
        assert!(
            names::ALL.contains(name),
            "{name} classified but unregistered"
        );
    }
    // A counter family, a series and a histogram, all through the one list.
    assert!(names::is_execution_shape(names::SPILL_RUNS));
    assert!(names::is_execution_shape(names::PROGRESS_MAP_TASKS));
    assert!(names::is_execution_shape(names::REDUCE_SERVICE_US));
    assert!(!names::is_execution_shape(names::REDUCE_BUCKET_PAIRS));
}
