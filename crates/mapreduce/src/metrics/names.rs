//! The single registry of every counter, histogram and series name the
//! production engine, the algorithms and the trace fold record.
//!
//! A metric name is a [`Name`], and a `Name` can only be built in this
//! module: its constructors are private. So every name recorded through
//! [`crate::Counters::inc`], [`crate::Emitter::inc`],
//! [`crate::ReduceCtx::inc`] or the trace fold is one of the constants
//! below, an unregistered name is a compile error, and a rename or a
//! reclassification has exactly one home. Each entry also carries its
//! execution-shape flag ([`Name::is_execution_shape`]), the one
//! determinism classifier every byte-diff filter reads.

use std::fmt;

/// A registered metric name plus its execution-shape flag.
///
/// `Copy`; ordered, compared and displayed by its dotted string (names
/// are unique, so the flag never decides an ordering). Built only by the
/// constants in this module.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name {
    name: &'static str,
    shape: bool,
}

impl Name {
    /// A name whose totals describe what a run computed.
    const fn data_plane(name: &'static str) -> Name {
        Name { name, shape: false }
    }

    /// A name whose totals describe how a run was carried out.
    const fn execution_shape(name: &'static str) -> Name {
        Name { name, shape: true }
    }

    /// The dotted name, e.g. `"join.emitted"`.
    pub const fn as_str(self) -> &'static str {
        self.name
    }

    /// Whether this name describes *execution shape*: how a run was
    /// physically carried out (spill decisions, kernel occupancy, map
    /// chunking, wall time) rather than what it computed. Such names may
    /// depend on configuration: the `spill.*` family varies with
    /// `ClusterConfig::reduce_memory_budget`, the map-task names with
    /// `worker_threads`, the `*_us` names with the clock. Determinism
    /// byte-diffs (the audit test, the equivalence proptests) exclude
    /// exactly these names; every data-plane name must stay
    /// byte-identical across thread counts *and* budgets.
    pub const fn is_execution_shape(self) -> bool {
        self.shape
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.name, f)
    }
}

// ---------------------------------------------------------------------------
// Counters (recorded via `Emitter::inc` / `ReduceCtx::inc` /
// `Counters::inc`, merged per-name by the engine).

/// Buckets joined by the endpoint-sorted plane-sweep kernel.
pub const KERNEL_SWEEP_BUCKETS: Name = Name::data_plane("kernel.sweep_buckets");
/// Buckets joined by the merged-event-list sweep kernel.
pub const KERNEL_EVENT_SWEEP_BUCKETS: Name = Name::data_plane("kernel.event_sweep_buckets");
/// Buckets joined by the sort-merge kernel.
pub const KERNEL_MERGE_BUCKETS: Name = Name::data_plane("kernel.merge_buckets");
/// Buckets joined by the windowed-backtracking fallback kernel.
pub const KERNEL_FALLBACK_BUCKETS: Name = Name::data_plane("kernel.fallback_buckets");
/// No longer emitted (reads 0): buckets used to be split across
/// intra-reducer worker chunks, and every bucket now runs serially. Kept
/// because the end-to-end benchmark in `perfbench/` still reads it.
pub const KERNEL_PARALLEL_BUCKETS: Name = Name::data_plane("kernel.parallel_buckets");
/// Summed per-bucket peak active-interval count of the event sweep
/// (execution-shape: it describes how the kernel ran, not what the join
/// computed). Also recorded as a per-bucket histogram under the same
/// name.
pub const KERNEL_ACTIVE_PEAK: Name = Name::execution_shape("kernel.active_peak");

/// Candidate pairs examined by a join kernel.
pub const JOIN_CANDIDATES: Name = Name::data_plane("join.candidates");
/// Result pairs emitted by a join kernel.
pub const JOIN_EMITTED: Name = Name::data_plane("join.emitted");

/// All-Rep: replicated key-value pairs shuffled.
pub const ALLREP_REPLICA_PAIRS: Name = Name::data_plane("allrep.replica_pairs");
/// All-Rep: pairs surviving bucket projection.
pub const ALLREP_PROJECTED_PAIRS: Name = Name::data_plane("allrep.projected_pairs");
/// RCCIS: split pairs produced by the partition round.
pub const RCCIS_SPLIT_PAIRS: Name = Name::data_plane("rccis.split_pairs");
/// RCCIS: intervals crossing a partition boundary.
pub const RCCIS_CROSSING_INTERVALS: Name = Name::data_plane("rccis.crossing_intervals");
/// RCCIS: crossing intervals flagged for the merge round.
pub const RCCIS_FLAGGED_INTERVALS: Name = Name::data_plane("rccis.flagged_intervals");
/// RCCIS: replicated pairs shuffled by the join round.
pub const RCCIS_REPLICA_PAIRS: Name = Name::data_plane("rccis.replica_pairs");
/// RCCIS: pairs surviving bucket projection.
pub const RCCIS_PROJECTED_PAIRS: Name = Name::data_plane("rccis.projected_pairs");
/// 2-way cascade: composite pairs carried between cycles.
pub const CASCADE_COMP_PAIRS: Name = Name::data_plane("cascade.comp_pairs");
/// 2-way cascade: base-relation pairs read per cycle.
pub const CASCADE_BASE_PAIRS: Name = Name::data_plane("cascade.base_pairs");
/// One-Bucket: row-replica copies shuffled.
pub const ONEBUCKET_ROW_COPIES: Name = Name::data_plane("onebucket.row_copies");
/// One-Bucket: column-replica copies shuffled.
pub const ONEBUCKET_COL_COPIES: Name = Name::data_plane("onebucket.col_copies");

/// Reduce buckets that overflowed the memory budget (execution-shape:
/// depends on `reduce_memory_budget`).
pub const SPILL_BUCKETS: Name = Name::execution_shape("spill.buckets");
/// Sorted runs written to the Dfs by the budgeted shuffle
/// (execution-shape).
pub const SPILL_RUNS: Name = Name::execution_shape("spill.runs");
/// Approximate bytes spilled (execution-shape).
pub const SPILL_BYTES: Name = Name::execution_shape("spill.bytes");

/// No longer emitted (reads 0): the intra-reduce scheduler that granted
/// threads to buckets was removed. Kept because the end-to-end benchmark
/// in `perfbench/` still reads it.
pub const SCHED_GRANTS: Name = Name::data_plane("sched.grants");
/// No longer emitted (reads 0): the intra-reduce scheduler that classified
/// buckets as heavy was removed. Kept because the end-to-end benchmark in
/// `perfbench/` still reads it.
pub const SCHED_HEAVY_BUCKETS: Name = Name::data_plane("sched.heavy_buckets");

// ---------------------------------------------------------------------------
// Histograms and series, folded from the trace by
// `TelemetrySnapshot::from_events`.

/// Per-bucket pair counts, from the reduce spans (data-plane).
pub const REDUCE_BUCKET_PAIRS: Name = Name::data_plane("reduce.bucket_pairs");
/// One shuffle-volume sample per job, from the shuffle spans (data-plane).
pub const SHUFFLE_JOB_BYTES: Name = Name::data_plane("shuffle.job_bytes");
/// Per-map-task record counts, from the map-task spans (execution-shape:
/// chunking).
pub const MAP_TASK_RECORDS: Name = Name::execution_shape("map.task_records");
/// Per-reducer service times in µs, from the reduce-span durations
/// (execution-shape: wall time).
pub const REDUCE_SERVICE_US: Name = Name::execution_shape("reduce.service_us");
/// Per-run spilled bytes, from the spill spans (execution-shape: budget).
pub const SPILL_RUN_BYTES: Name = Name::execution_shape("spill.run_bytes");
/// Jobs the engine ran, failed ones included (gauge).
pub const PROGRESS_JOBS_STARTED: Name = Name::data_plane("progress.jobs_started");
/// Jobs that ran to completion (gauge).
pub const PROGRESS_JOBS_FINISHED: Name = Name::data_plane("progress.jobs_finished");
/// Map records processed (gauge).
pub const PROGRESS_MAP_RECORDS: Name = Name::data_plane("progress.map_records");
/// Map tasks completed (gauge; execution-shape: chunk count).
pub const PROGRESS_MAP_TASKS: Name = Name::execution_shape("progress.map_tasks");
/// Reducer buckets the shuffles formed (gauge).
pub const PROGRESS_REDUCERS: Name = Name::data_plane("progress.reducers");
/// Reducer buckets fully reduced (gauge).
pub const PROGRESS_REDUCERS_DONE: Name = Name::data_plane("progress.reducers_done");

/// Every registered metric name.
pub const ALL: &[Name] = &[
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_dotted() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(
                seen.insert(name.as_str()),
                "duplicate registry entry {name}"
            );
            assert!(
                name.as_str().contains('.'),
                "registry names are dotted: {name}"
            );
        }
    }

    #[test]
    fn names_order_and_print_as_their_strings() {
        let mut sorted = ALL.to_vec();
        sorted.sort();
        let strings: Vec<&str> = sorted.iter().map(|n| n.as_str()).collect();
        let mut expected: Vec<&str> = ALL.iter().map(|n| n.as_str()).collect();
        expected.sort_unstable();
        assert_eq!(strings, expected);
        assert_eq!(JOIN_EMITTED.to_string(), "join.emitted");
        assert_eq!(format!("{JOIN_EMITTED:?}"), "\"join.emitted\"");
    }

    #[test]
    fn one_flag_covers_counters_series_and_histograms() {
        for name in [
            SPILL_RUNS,
            SPILL_RUN_BYTES,
            KERNEL_ACTIVE_PEAK,
            MAP_TASK_RECORDS,
            PROGRESS_MAP_TASKS,
            REDUCE_SERVICE_US,
        ] {
            assert!(name.is_execution_shape(), "{name}");
        }
        for name in [
            JOIN_EMITTED,
            REDUCE_BUCKET_PAIRS,
            SHUFFLE_JOB_BYTES,
            PROGRESS_JOBS_STARTED,
            PROGRESS_REDUCERS_DONE,
        ] {
            assert!(!name.is_execution_shape(), "{name}");
        }
    }
}
