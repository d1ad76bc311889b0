//! The single registry of every counter, histogram and series name the
//! production engine, the algorithms and the trace fold record.
//!
//! The one determinism classifier, [`is_execution_shape`], lives *here*
//! over one name/prefix/suffix list, and serves counters, series and
//! histograms alike — the byte-diffs `repolint audit` builds on cannot
//! drift between two copies. `repolint check`'s counter-registry rule
//! enforces that (a) every metric-name literal passed to a recording
//! call is declared in this module and (b) a declared name never
//! reappears as a string literal anywhere else in production code — call
//! sites must use these constants, so renames and classification changes
//! have exactly one home.

// ---------------------------------------------------------------------------
// Counters (recorded via `Emitter::inc` / `ReduceCtx::inc` /
// `Counters::inc`, merged per-name by the engine).

/// Buckets joined by the endpoint-sorted plane-sweep kernel.
pub const KERNEL_SWEEP_BUCKETS: &str = "kernel.sweep_buckets";
/// Buckets joined by the merged-event-list sweep kernel.
pub const KERNEL_EVENT_SWEEP_BUCKETS: &str = "kernel.event_sweep_buckets";
/// Buckets joined by the sort-merge kernel.
pub const KERNEL_MERGE_BUCKETS: &str = "kernel.merge_buckets";
/// Buckets joined by the windowed-backtracking fallback kernel.
pub const KERNEL_FALLBACK_BUCKETS: &str = "kernel.fallback_buckets";
/// No longer emitted (reads 0): buckets used to be split across
/// intra-reducer worker chunks, and every bucket now runs serially. Kept
/// because the end-to-end benchmark in `perfbench/` still reads it.
pub const KERNEL_PARALLEL_BUCKETS: &str = "kernel.parallel_buckets";
/// Summed per-bucket peak active-interval count of the event sweep
/// (execution-shape: it describes how the kernel ran, not what the join
/// computed). Also recorded as a per-bucket histogram under the same
/// name.
pub const KERNEL_ACTIVE_PEAK: &str = "kernel.active_peak";

/// Candidate pairs examined by a join kernel.
pub const JOIN_CANDIDATES: &str = "join.candidates";
/// Result pairs emitted by a join kernel.
pub const JOIN_EMITTED: &str = "join.emitted";

/// All-Rep: replicated key-value pairs shuffled.
pub const ALLREP_REPLICA_PAIRS: &str = "allrep.replica_pairs";
/// All-Rep: pairs surviving bucket projection.
pub const ALLREP_PROJECTED_PAIRS: &str = "allrep.projected_pairs";
/// RCCIS: split pairs produced by the partition round.
pub const RCCIS_SPLIT_PAIRS: &str = "rccis.split_pairs";
/// RCCIS: intervals crossing a partition boundary.
pub const RCCIS_CROSSING_INTERVALS: &str = "rccis.crossing_intervals";
/// RCCIS: crossing intervals flagged for the merge round.
pub const RCCIS_FLAGGED_INTERVALS: &str = "rccis.flagged_intervals";
/// RCCIS: replicated pairs shuffled by the join round.
pub const RCCIS_REPLICA_PAIRS: &str = "rccis.replica_pairs";
/// RCCIS: pairs surviving bucket projection.
pub const RCCIS_PROJECTED_PAIRS: &str = "rccis.projected_pairs";
/// 2-way cascade: composite pairs carried between cycles.
pub const CASCADE_COMP_PAIRS: &str = "cascade.comp_pairs";
/// 2-way cascade: base-relation pairs read per cycle.
pub const CASCADE_BASE_PAIRS: &str = "cascade.base_pairs";
/// One-Bucket: row-replica copies shuffled.
pub const ONEBUCKET_ROW_COPIES: &str = "onebucket.row_copies";
/// One-Bucket: column-replica copies shuffled.
pub const ONEBUCKET_COL_COPIES: &str = "onebucket.col_copies";

/// Reduce buckets that overflowed the memory budget (execution-shape:
/// depends on `reduce_memory_budget`).
pub const SPILL_BUCKETS: &str = "spill.buckets";
/// Sorted runs written to the Dfs by the budgeted shuffle
/// (execution-shape).
pub const SPILL_RUNS: &str = "spill.runs";
/// Approximate bytes spilled (execution-shape).
pub const SPILL_BYTES: &str = "spill.bytes";

/// No longer emitted (reads 0): the intra-reduce scheduler that granted
/// threads to buckets was removed. Kept because the end-to-end benchmark
/// in `perfbench/` still reads it.
pub const SCHED_GRANTS: &str = "sched.grants";
/// No longer emitted (reads 0): the intra-reduce scheduler that classified
/// buckets as heavy was removed. Kept because the end-to-end benchmark in
/// `perfbench/` still reads it.
pub const SCHED_HEAVY_BUCKETS: &str = "sched.heavy_buckets";

// ---------------------------------------------------------------------------
// Histograms and series, folded from the trace by
// `TelemetrySnapshot::from_events`.

/// Per-bucket pair counts, from the reduce spans (data-plane).
pub const REDUCE_BUCKET_PAIRS: &str = "reduce.bucket_pairs";
/// One shuffle-volume sample per job, from the shuffle spans (data-plane).
pub const SHUFFLE_JOB_BYTES: &str = "shuffle.job_bytes";
/// Per-map-task record counts, from the map-task spans (execution-shape:
/// chunking).
pub const MAP_TASK_RECORDS: &str = "map.task_records";
/// Per-reducer service times in µs, from the reduce-span durations
/// (execution-shape: wall time).
pub const REDUCE_SERVICE_US: &str = "reduce.service_us";
/// Per-run spilled bytes, from the spill spans (execution-shape: budget).
pub const SPILL_RUN_BYTES: &str = "spill.run_bytes";
/// Jobs the engine ran, failed ones included (gauge).
pub const PROGRESS_JOBS_STARTED: &str = "progress.jobs_started";
/// Jobs that ran to completion (gauge).
pub const PROGRESS_JOBS_FINISHED: &str = "progress.jobs_finished";
/// Map records processed (gauge).
pub const PROGRESS_MAP_RECORDS: &str = "progress.map_records";
/// Map tasks completed (gauge; execution-shape: chunk count).
pub const PROGRESS_MAP_TASKS: &str = "progress.map_tasks";
/// Reducer buckets the shuffles formed (gauge).
pub const PROGRESS_REDUCERS: &str = "progress.reducers";
/// Reducer buckets fully reduced (gauge).
pub const PROGRESS_REDUCERS_DONE: &str = "progress.reducers_done";

/// Every registered metric name. `repolint check` parses this module's
/// `const` declarations, so a name recorded anywhere in production code
/// but missing here fails the counter-registry rule.
pub const ALL: &[&str] = &[
    KERNEL_SWEEP_BUCKETS,
    KERNEL_EVENT_SWEEP_BUCKETS,
    KERNEL_MERGE_BUCKETS,
    KERNEL_FALLBACK_BUCKETS,
    KERNEL_PARALLEL_BUCKETS,
    KERNEL_ACTIVE_PEAK,
    JOIN_CANDIDATES,
    JOIN_EMITTED,
    ALLREP_REPLICA_PAIRS,
    ALLREP_PROJECTED_PAIRS,
    RCCIS_SPLIT_PAIRS,
    RCCIS_CROSSING_INTERVALS,
    RCCIS_FLAGGED_INTERVALS,
    RCCIS_REPLICA_PAIRS,
    RCCIS_PROJECTED_PAIRS,
    CASCADE_COMP_PAIRS,
    CASCADE_BASE_PAIRS,
    ONEBUCKET_ROW_COPIES,
    ONEBUCKET_COL_COPIES,
    SPILL_BUCKETS,
    SPILL_RUNS,
    SPILL_BYTES,
    SCHED_GRANTS,
    SCHED_HEAVY_BUCKETS,
    REDUCE_BUCKET_PAIRS,
    SHUFFLE_JOB_BYTES,
    MAP_TASK_RECORDS,
    REDUCE_SERVICE_US,
    SPILL_RUN_BYTES,
    PROGRESS_JOBS_STARTED,
    PROGRESS_JOBS_FINISHED,
    PROGRESS_MAP_RECORDS,
    PROGRESS_MAP_TASKS,
    PROGRESS_REDUCERS,
    PROGRESS_REDUCERS_DONE,
];

// ---------------------------------------------------------------------------
// Execution-shape classification — the ONE list every byte-diff filter
// derives from.

/// Name prefix of every spill-layout metric.
pub const SPILL_PREFIX: &str = "spill.";
/// Name suffix of wall-time metrics (µs span durations).
pub const US_SUFFIX: &str = "_us";

/// Exact names that are execution-shape without sharing a shape prefix
/// or suffix.
pub const SHAPE_NAMES: &[&str] = &[KERNEL_ACTIVE_PEAK, MAP_TASK_RECORDS, PROGRESS_MAP_TASKS];
/// Name prefixes whose whole family is execution-shape.
pub const SHAPE_PREFIXES: &[&str] = &[SPILL_PREFIX];
/// Name suffixes whose whole family is execution-shape.
pub const SHAPE_SUFFIXES: &[&str] = &[US_SUFFIX];

/// Whether a counter, series or histogram name describes *execution
/// shape* — how a run was physically carried out (spill decisions,
/// kernel occupancy, map chunking, wall time) rather than what it
/// computed. Execution-shape names may be configuration-dependent: the
/// `spill.*` family varies with `ClusterConfig::reduce_memory_budget`,
/// the map-task names with `worker_threads`. Determinism byte-diffs
/// (`repolint audit`, the equivalence proptests) exclude exactly these
/// names; every data-plane name must stay byte-identical across thread
/// counts *and* budgets.
pub fn is_execution_shape(name: &str) -> bool {
    SHAPE_NAMES.contains(&name)
        || SHAPE_PREFIXES.iter().any(|p| name.starts_with(p))
        || SHAPE_SUFFIXES.iter().any(|s| name.ends_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_sorted_within_reason() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate registry entry {name}");
            assert!(name.contains('.'), "registry names are dotted: {name}");
        }
    }

    #[test]
    fn shape_entries_are_registered() {
        for name in SHAPE_NAMES {
            assert!(ALL.contains(name), "{name} classified but unregistered");
        }
    }

    #[test]
    fn one_classifier_covers_counters_series_and_histograms() {
        for name in [
            SPILL_RUNS,
            SPILL_RUN_BYTES,
            KERNEL_ACTIVE_PEAK,
            MAP_TASK_RECORDS,
            PROGRESS_MAP_TASKS,
            REDUCE_SERVICE_US,
        ] {
            assert!(is_execution_shape(name), "{name}");
        }
        for name in [
            JOIN_EMITTED,
            REDUCE_BUCKET_PAIRS,
            SHUFFLE_JOB_BYTES,
            PROGRESS_JOBS_STARTED,
            PROGRESS_REDUCERS_DONE,
        ] {
            assert!(!is_execution_shape(name), "{name}");
        }
    }
}
