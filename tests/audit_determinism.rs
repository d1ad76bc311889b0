//! Whole-suite determinism: every algorithm family, threads 1/2/8,
//! budgets unlimited and pinned-low.
//!
//! `tests/determinism.rs` checks two families end-to-end. This test
//! closes the gap by driving `repolint`'s dynamic auditor, which runs
//! *all twelve* audited family/query cases on a seeded workload under
//! `worker_threads` 1, 2 and 8, serializes each run's output tuples and
//! chain `total_counters` through the Dfs, and byte-diffs the snapshots
//! across thread counts. Every family is additionally re-run with
//! `reduce_memory_budget` pinned to the auditor's `SPILL_BUDGET`, so the
//! spill-to-Dfs reduce path is byte-diffed against the in-memory baseline
//! too. The skew leg re-runs the clique family on a skewed hot-region mix
//! across the same thread × budget matrix.

use repolint::audit::{run_audit, SPILL_BUDGET, THREAD_COUNTS};

#[test]
fn all_algorithm_families_are_byte_identical_across_thread_counts() {
    let report = run_audit(80).expect("audit suite runs");
    assert_eq!(
        report.cases.len(),
        12,
        "expected every algorithm family to be audited"
    );
    for case in &report.cases {
        assert!(
            case.identical,
            "{} diverged from the single-thread baseline at threads {:?} \
             (budget {SPILL_BUDGET}B at {:?}) (of {THREAD_COUNTS:?})",
            case.algorithm, case.diverged, case.budget_diverged
        );
        // The workload must actually exercise the join — a zero-output
        // run would pass the diff vacuously.
        assert!(
            case.output_count > 0,
            "{} produced no output tuples",
            case.algorithm
        );
    }
    // The pinned budget must actually drive at least one family through
    // the spill path, or the budgeted re-audit is vacuous.
    assert!(
        report.cases.iter().any(|c| c.spilled_buckets > 0),
        "no family spilled under the pinned {SPILL_BUDGET}B budget:\n{}",
        report.render()
    );
    // The skew leg: byte-identical across threads × budgets on the
    // hot-region mix, and the mix must actually join.
    let skew = report.skew.as_ref().expect("skew leg present");
    assert!(
        skew.identical,
        "skewed mix diverged at {:?}:\n{}",
        skew.diverged,
        report.render()
    );
    assert!(skew.output_count > 0, "skew leg produced no output");
    assert!(report.deterministic());
}
