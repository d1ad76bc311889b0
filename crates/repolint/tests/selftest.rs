//! Self-tests: each seeded violation fixture trips exactly its rule, and
//! clean rewrites do not. The fixtures live under `tests/fixtures/`
//! (excluded from the workspace scan) and are presented to the checker
//! under synthetic workspace paths.

use repolint::rules::{check, Violation};
use repolint::{config, report};

fn run(files: &[(&str, &str)]) -> Vec<Violation> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    check(&owned)
}

const KERNEL_DOC: &str = include_str!("fixtures/r4_kernel_doc.rs");
const NAMES_FIXTURE: &str = include_str!("fixtures/names_fixture.rs");
const REGISTRY_DRIFT: &str = include_str!("fixtures/registry_drift.rs");
const LOCK_NESTED: &str = include_str!("fixtures/lock_nested.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/lock_clean.rs");

#[test]
fn r4_fixture_trips_kernel_doc() {
    let v = run(&[("crates/core/src/kernel/bad.rs", KERNEL_DOC)]);
    assert_eq!(v.len(), 2, "{v:?}"); // vague doc + missing doc
    assert!(v.iter().all(|v| v.rule == config::KERNEL_DOC));
    let msgs: String = v.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.contains("undocumented_precondition"));
    assert!(msgs.contains("no_doc_at_all"));
    assert!(!msgs.contains("properly_documented"));
    assert!(!msgs.contains("helper"));
}

#[test]
fn fixtures_render_to_json() {
    let v = run(&[("crates/core/src/kernel/bad.rs", KERNEL_DOC)]);
    let json = report::to_json(&v, 1);
    assert!(json.contains("\"rule\": \"kernel-doc\""));
    assert!(json.contains("\"violation_count\": 2"));
}

#[test]
fn counter_registry_detects_all_three_drift_shapes() {
    let v = run(&[
        ("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE),
        ("crates/mapreduce/src/metrics.rs", REGISTRY_DRIFT),
    ]);
    assert!(
        v.iter().all(|v| v.rule == config::COUNTER_REGISTRY),
        "{v:?}"
    );
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("spill.rogue")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("names::REDUCE_SERVICE_US")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("`fn is_execution_shape`")));
}

#[test]
fn registry_module_itself_is_exempt() {
    // The registry declares the literals; it must not be reported for
    // containing them, and its in-registry classifier is legal.
    let v = run(&[("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn lock_discipline_flags_nested_and_across_io() {
    let v = run(&[("crates/mapreduce/src/dfs.rs", LOCK_NESTED)]);
    assert!(v.iter().all(|v| v.rule == config::LOCK_DISCIPLINE), "{v:?}");
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("nested lock")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("lock held across stream/Dfs I/O")));
}

#[test]
fn disciplined_locking_is_clean() {
    let v = run(&[("crates/mapreduce/src/dfs.rs", LOCK_CLEAN)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn suggestions_name_the_mechanical_fix() {
    let v = run(&[
        ("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE),
        ("crates/mapreduce/src/metrics.rs", REGISTRY_DRIFT),
    ]);
    assert!(
        v.iter()
            .any(|v| v.suggestion.contains("names::REDUCE_SERVICE_US")),
        "{v:?}"
    );
}
