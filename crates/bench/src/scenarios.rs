//! Shared measurement plumbing for the per-table/figure binaries.

use ij_core::{Algorithm, JoinInput, JoinOutput};
use ij_mapreduce::{ClusterConfig, Counters, Engine, TelemetrySnapshot, Tracer};
use ij_query::JoinQuery;
use std::sync::Arc;
use std::time::Instant;

/// One algorithm measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Simulated cluster time (cost units), summed across cycles.
    pub simulated: f64,
    /// Real wall-clock seconds of the in-process run.
    pub wall_secs: f64,
    /// Map-phase wall-clock seconds, summed across cycles.
    pub map_secs: f64,
    /// Shuffle (run-merge) wall-clock seconds, summed across cycles.
    pub shuffle_secs: f64,
    /// Reduce-phase wall-clock seconds, summed across cycles.
    pub reduce_secs: f64,
    /// Spill I/O wall-clock seconds, summed across cycles (zero unless a
    /// reduce-memory budget made buckets spill).
    pub spill_secs: f64,
    /// Total intermediate key-value pairs across cycles.
    pub pairs: u64,
    /// Output tuple count.
    pub output: u64,
    /// Intervals replicated (if the algorithm reports it).
    pub replicated: Option<u64>,
    /// Worst per-cycle load skew.
    pub skew: f64,
    /// Consistent cells used / total, when the algorithm is matrix-based.
    pub consistent_cells: Option<(u64, u64)>,
    /// User counters summed across the algorithm's cycles (replicas,
    /// crossing intervals, candidate vs emitted pairs, …).
    pub counters: Counters,
    /// The raw output (for cross-checking between algorithms).
    pub out: JoinOutput,
}

/// Builds the simulated cluster (the paper runs 16 reduce processes).
pub fn engine(slots: usize) -> Engine {
    Engine::new(ClusterConfig::with_slots(slots))
}

/// Builds the simulated cluster, applying the `--budget <bytes>`
/// reduce-memory budget when given (oversized reducer buckets then spill
/// to the Dfs and `spill.*` counters appear in the tables). With
/// `observed` — the bench binaries' `--trace <path>` and/or
/// `--metrics-out <path>` — one [`Tracer`] is attached and records every
/// job run against the engine; dump it with [`write_trace`] and
/// [`write_metrics`].
pub fn instrumented_engine(
    slots: usize,
    budget: Option<u64>,
    observed: bool,
) -> (Engine, Option<Arc<Tracer>>) {
    let engine = Engine::new(ClusterConfig {
        reduce_memory_budget: budget,
        ..ClusterConfig::with_slots(slots)
    });
    if observed {
        let tracer = Arc::new(Tracer::new());
        (engine.with_tracer(tracer.clone()), Some(tracer))
    } else {
        (engine, None)
    }
}

/// Writes the Prometheus fold of the trace to `path` (no-op without a
/// tracer).
pub fn write_metrics(path: Option<&str>, tracer: &Option<Arc<Tracer>>) {
    if let (Some(path), Some(t)) = (path, tracer) {
        let snap = TelemetrySnapshot::from_events(&t.snapshot());
        std::fs::write(path, snap.to_prometheus())
            .unwrap_or_else(|e| panic!("cannot write metrics {path}: {e}"));
        eprintln!(
            "(wrote {path}: {} series, {} histograms — Prometheus text format)",
            snap.series.len(),
            snap.histograms.len()
        );
    }
}

/// Writes the accumulated Chrome trace to `path` (no-op without a tracer).
pub fn write_trace(path: Option<&str>, tracer: &Option<Arc<Tracer>>) {
    if let (Some(path), Some(t)) = (path, tracer) {
        t.write_chrome_trace(path)
            .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
        eprintln!(
            "(wrote {path}: {} spans — open in chrome://tracing or ui.perfetto.dev)",
            t.len()
        );
    }
}

/// Runs one algorithm and collects the table-relevant numbers.
///
/// # Panics
/// Panics if the algorithm rejects the query — bench scenarios only pair
/// algorithms with the query classes they support.
pub fn measure(
    alg: &dyn Algorithm,
    q: &JoinQuery,
    input: &JoinInput,
    engine: &Engine,
) -> Measurement {
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench harness reports wall time; it never reaches job output"
    )]
    let start = Instant::now();
    let out = alg
        .run(q, input, engine)
        .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
    let wall_secs = start.elapsed().as_secs_f64();
    Measurement {
        algorithm: alg.name(),
        simulated: out.chain.total_simulated(),
        wall_secs,
        map_secs: out.chain.total_map_wall().as_secs_f64(),
        shuffle_secs: out.chain.total_shuffle_wall().as_secs_f64(),
        reduce_secs: out.chain.total_reduce_wall().as_secs_f64(),
        spill_secs: out.chain.total_spill_wall().as_secs_f64(),
        pairs: out.chain.total_pairs(),
        output: out.count,
        replicated: out.stats.replicated_intervals,
        skew: out.chain.worst_skew(),
        consistent_cells: out.stats.consistent_cells,
        counters: out.chain.total_counters(),
        out,
    }
}

/// Asserts that all measurements produced the same output count — the
/// harness's built-in cross-check that the compared algorithms computed the
/// same join.
pub fn assert_same_output(ms: &[Measurement]) {
    if let Some(first) = ms.first() {
        for m in &ms[1..] {
            assert_eq!(
                m.output, first.output,
                "{} and {} disagree on the join size",
                m.algorithm, first.algorithm
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_core::two_way::TwoWayJoin;
    use ij_core::OutputMode;
    use ij_interval::{AllenPredicate::Overlaps, Interval, Relation};
    use ij_mapreduce::metrics::names;

    #[test]
    fn measure_runs_and_counts() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 10).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 15).unwrap()]),
            ],
        )
        .unwrap();
        let e = engine(4);
        let alg = TwoWayJoin {
            partitions: 4,
            mode: OutputMode::Count,
        };
        let m = measure(&alg, &q, &input, &e);
        assert_eq!(m.output, 1);
        assert!(m.simulated > 0.0);
        assert_same_output(&[m.clone(), m]);
    }

    #[test]
    fn instrumented_engine_records_jobs_and_writes_chrome_json() {
        let (e, tracer) = instrumented_engine(4, None, true);
        assert!(tracer.is_some());
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 10).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 15).unwrap()]),
            ],
        )
        .unwrap();
        let alg = TwoWayJoin {
            partitions: 4,
            mode: OutputMode::Count,
        };
        let m = measure(&alg, &q, &input, &e);
        assert_eq!(m.output, 1);
        let t = tracer.as_ref().unwrap();
        assert!(
            !t.is_empty(),
            "jobs run against a traced engine leave spans"
        );
        let path = std::env::temp_dir().join("ij_bench_trace_test.json");
        write_trace(path.to_str(), &tracer);
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("{\"traceEvents\":["));
        let _ = std::fs::remove_file(&path);

        let (_, no_tracer) = instrumented_engine(4, None, false);
        assert!(no_tracer.is_none());
        write_trace(None, &no_tracer); // no-op must not panic
    }

    #[test]
    fn instrumented_engine_folds_its_trace_into_prometheus() {
        let (e, tracer) = instrumented_engine(4, None, true);
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 10).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 15).unwrap()]),
            ],
        )
        .unwrap();
        let alg = TwoWayJoin {
            partitions: 4,
            mode: OutputMode::Count,
        };
        let m = measure(&alg, &q, &input, &e);
        assert_eq!(m.output, 1);
        let path = std::env::temp_dir().join("ij_bench_metrics_test.prom");
        write_metrics(path.to_str(), &tracer);
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("# TYPE ij_progress_jobs_started gauge"));
        let reduce_spans = tracer
            .as_ref()
            .unwrap()
            .snapshot()
            .iter()
            .filter(|e| e.kind == ij_mapreduce::SpanKind::Reduce)
            .count();
        assert!(reduce_spans > 0);
        assert!(
            written.contains(&format!("ij_reduce_bucket_pairs_count {reduce_spans}\n")),
            "one bucket-pairs sample per reduce span: {written}"
        );
        let _ = std::fs::remove_file(&path);
        write_metrics(None, &tracer); // no-op must not panic
    }

    #[test]
    fn budgeted_engine_spills_and_reports_spill_time() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let many: Vec<Interval> = (0..200)
            .map(|i| Interval::new(i, i + 300).unwrap())
            .collect();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", many.clone()),
                Relation::from_intervals("B", many),
            ],
        )
        .unwrap();
        let alg = TwoWayJoin {
            partitions: 2,
            mode: OutputMode::Count,
        };
        let (unbudgeted, _) = instrumented_engine(4, None, false);
        let base = measure(&alg, &q, &input, &unbudgeted);
        assert_eq!(base.counters.get(names::SPILL_BUCKETS), 0);
        assert_eq!(base.spill_secs, 0.0);

        let (budgeted, _) = instrumented_engine(4, Some(64), false);
        let m = measure(&alg, &q, &input, &budgeted);
        assert_eq!(m.output, base.output, "budget must not change the join");
        assert!(m.counters.get(names::SPILL_BUCKETS) > 0);
        assert!(m.spill_secs > 0.0);
    }
}
