//! The single registry of every counter, histogram and telemetry-series
//! name the production engine and algorithms record.
//!
//! Two determinism classifiers used to live apart —
//! `metrics::is_execution_shape` for counters and
//! `telemetry::snapshot::is_execution_shape_series` for series — and
//! could silently drift, corrupting the byte-diffs `repolint audit`
//! builds on. Both now live *here*, driven by the same shared prefix
//! constants, and `repolint check`'s counter-registry rule enforces that
//! (a) every metric-name literal passed to a recording call is declared
//! in this module and (b) a declared name never reappears as a string
//! literal anywhere else in production code — call sites must use these
//! constants, so renames and classification changes have exactly one
//! home.

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
/// Reducers flagged below the straggler rate threshold (execution-shape:
/// rates depend on wall time). Also a telemetry series.
pub const TELEMETRY_STRAGGLERS: &str = "telemetry.stragglers";

/// No longer emitted (reads 0): the intra-reduce scheduler that granted
/// threads to buckets was removed. Kept because the end-to-end benchmark
/// in `perfbench/` still reads it.
pub const SCHED_GRANTS: &str = "sched.grants";
/// No longer emitted (reads 0): the intra-reduce scheduler that classified
/// buckets as heavy was removed. Kept because the end-to-end benchmark in
/// `perfbench/` still reads it.
pub const SCHED_HEAVY_BUCKETS: &str = "sched.heavy_buckets";

// ---------------------------------------------------------------------------
// Histograms (recorded via `HistogramRegistry::record` /
// `Telemetry::record_hist`).

/// Per-bucket pair counts in key order (data-plane).
pub const REDUCE_BUCKET_PAIRS: &str = "reduce.bucket_pairs";
/// One shuffle-volume sample per job (data-plane).
pub const SHUFFLE_JOB_BYTES: &str = "shuffle.job_bytes";
/// Per-map-task record counts (execution-shape: chunking).
pub const MAP_TASK_RECORDS: &str = "map.task_records";
/// Per-reducer service times (execution-shape: wall time).
pub const REDUCE_SERVICE_NS: &str = "reduce.service_ns";
/// Per-run spilled bytes (execution-shape: budget).
pub const SPILL_RUN_BYTES: &str = "spill.run_bytes";

// ---------------------------------------------------------------------------
// Telemetry series (recorded via `Telemetry::inc_series` and the
// progress gauges).

/// Map-side heartbeats (execution-shape: one per map chunk quantum).
pub const HEARTBEATS_MAP: &str = "telemetry.heartbeats.map";
/// Reduce-side heartbeats (data-plane: pull quanta are byte-stable).
pub const HEARTBEATS_REDUCE: &str = "telemetry.heartbeats.reduce";
/// Jobs entered (gauge).
pub const PROGRESS_JOBS_STARTED: &str = "progress.jobs_started";
/// Jobs finished (gauge).
pub const PROGRESS_JOBS_FINISHED: &str = "progress.jobs_finished";
/// Map records processed (gauge).
pub const PROGRESS_MAP_RECORDS: &str = "progress.map_records";
/// Map tasks completed (gauge; execution-shape: chunk count).
pub const PROGRESS_MAP_TASKS: &str = "progress.map_tasks";
/// Reduce values pulled (gauge).
pub const PROGRESS_REDUCE_VALUES: &str = "progress.reduce_values";
/// Reducers scheduled (gauge).
pub const PROGRESS_REDUCERS: &str = "progress.reducers";
/// Reducers completed (gauge).
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
    TELEMETRY_STRAGGLERS,
    SCHED_GRANTS,
    SCHED_HEAVY_BUCKETS,
    REDUCE_BUCKET_PAIRS,
    SHUFFLE_JOB_BYTES,
    MAP_TASK_RECORDS,
    REDUCE_SERVICE_NS,
    SPILL_RUN_BYTES,
    HEARTBEATS_MAP,
    HEARTBEATS_REDUCE,
    PROGRESS_JOBS_STARTED,
    PROGRESS_JOBS_FINISHED,
    PROGRESS_MAP_RECORDS,
    PROGRESS_MAP_TASKS,
    PROGRESS_REDUCE_VALUES,
    PROGRESS_REDUCERS,
    PROGRESS_REDUCERS_DONE,
];

// ---------------------------------------------------------------------------
// Execution-shape classification — the ONE place both byte-diff filters
// derive from.

/// Name prefix of every spill-layout metric; shared by the counter and
/// series classifiers (the satellite-1 "one prefix list drives both").
pub const SPILL_PREFIX: &str = "spill.";
/// Name prefix of the live-telemetry counter family.
pub const TELEMETRY_PREFIX: &str = "telemetry.";
/// Name prefix of the progress gauges (rendered as Prometheus gauges).
pub const PROGRESS_PREFIX: &str = "progress.";
/// Name prefix of per-map-task series (chunking-dependent).
pub const MAP_TASK_PREFIX: &str = "map.task";
/// Name suffix of wall-time series (nanosecond histograms).
pub const NS_SUFFIX: &str = "_ns";

/// Exact counter names that are execution-shape without sharing a shape
/// prefix.
pub const SHAPE_COUNTER_NAMES: &[&str] = &[KERNEL_ACTIVE_PEAK];
/// Counter-name prefixes whose whole family is execution-shape.
pub const SHAPE_COUNTER_PREFIXES: &[&str] = &[SPILL_PREFIX, TELEMETRY_PREFIX];

/// Exact series names that are execution-shape without sharing a shape
/// prefix or suffix. Note `telemetry.heartbeats.reduce` is *absent*:
/// reduce heartbeats derive from pull quanta and stay byte-identical,
/// while map heartbeats follow the chunk count.
pub const SHAPE_SERIES_NAMES: &[&str] = &[
    TELEMETRY_STRAGGLERS,
    HEARTBEATS_MAP,
    PROGRESS_MAP_TASKS,
    KERNEL_ACTIVE_PEAK,
];
/// Series-name prefixes whose whole family is execution-shape.
pub const SHAPE_SERIES_PREFIXES: &[&str] = &[SPILL_PREFIX, MAP_TASK_PREFIX];
/// Series-name suffixes whose whole family is execution-shape.
pub const SHAPE_SERIES_SUFFIXES: &[&str] = &[NS_SUFFIX];

/// Whether a counter name describes *execution shape* — how a run was
/// physically carried out (spill decisions, kernel occupancy) rather
/// than the data plane. Execution-shape counters may be
/// configuration-dependent: the `spill.*` family varies with
/// `ClusterConfig::reduce_memory_budget`. Determinism byte-diffs
/// (`repolint audit`, the equivalence proptests) exclude exactly these
/// names; every data-plane counter must stay byte-identical across
/// thread counts *and* budgets.
pub fn is_execution_shape(name: &str) -> bool {
    SHAPE_COUNTER_NAMES.contains(&name)
        || SHAPE_COUNTER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// True for telemetry series whose value legitimately depends on *how*
/// the job executed (thread count, chunking, memory budget, wall clock)
/// rather than on *what* it computed. These are excluded from the
/// cross-thread-count determinism contract, mirroring
/// [`is_execution_shape`] for counters.
pub fn is_execution_shape_series(name: &str) -> bool {
    SHAPE_SERIES_NAMES.contains(&name)
        || SHAPE_SERIES_PREFIXES.iter().any(|p| name.starts_with(p))
        || SHAPE_SERIES_SUFFIXES.iter().any(|s| name.ends_with(s))
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
        for name in SHAPE_COUNTER_NAMES.iter().chain(SHAPE_SERIES_NAMES) {
            assert!(ALL.contains(name), "{name} classified but unregistered");
        }
    }

    #[test]
    fn both_classifiers_share_the_spill_prefix() {
        assert!(SHAPE_COUNTER_PREFIXES.contains(&SPILL_PREFIX));
        assert!(SHAPE_SERIES_PREFIXES.contains(&SPILL_PREFIX));
        assert!(is_execution_shape(SPILL_RUNS));
        assert!(is_execution_shape_series(SPILL_RUN_BYTES));
    }

    #[test]
    fn classifier_split_is_intentional() {
        // Shape as counter (telemetry.* prefix) but data-plane as series:
        // reduce heartbeats count pull quanta, which are byte-stable.
        assert!(is_execution_shape(HEARTBEATS_REDUCE));
        assert!(!is_execution_shape_series(HEARTBEATS_REDUCE));
        // Shape as series (chunk count) without being a counter at all.
        assert!(is_execution_shape_series(PROGRESS_MAP_TASKS));
        assert!(!is_execution_shape(PROGRESS_MAP_TASKS));
    }
}
