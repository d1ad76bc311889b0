//! Property tests for the metrics folded from the trace (DESIGN.md §13).
//!
//! The fold promises its *data-plane* snapshot — the progress gauges and
//! the `reduce.bucket_pairs` and `shuffle.job_bytes` histograms — is
//! byte-identical in Prometheus text form across `worker_threads` counts
//! and reduce-memory budgets, exactly like job outputs. Execution-shape
//! names (map tasks, `spill.*`, `*_us` timings) are excluded by
//! `data_plane()`. These tests pin that contract, plus the trace a failed
//! job leaves behind.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    ClusterConfig, Emitter, Engine, EngineError, FaultPlan, JobOutput, ReduceCtx, SpanKind,
    TelemetrySnapshot, Tracer, ValueStream, VirtualClock,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A tracer on a virtual clock (timestamps carry no entropy), whose
/// `snapshot` is the Prometheus fold over its events.
struct Folded(Arc<Tracer>);

impl Folded {
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_events(&self.0.snapshot())
    }
}

fn telemetry() -> Arc<Tracer> {
    Arc::new(Tracer::with_clock(Arc::new(VirtualClock::new())))
}

fn engine(threads: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        reduce_memory_budget: budget,
        ..ClusterConfig::default()
    })
}

/// Runs the shared fan-out job against a traced engine and returns the
/// output plus the fold over its trace.
fn run(
    input: &[u64],
    fanout: u64,
    threads: usize,
    budget: Option<u64>,
) -> (JobOutput<(u64, u64)>, Folded) {
    let tel = telemetry();
    let out = engine(threads, budget)
        .with_tracer(Arc::clone(&tel))
        .run_job(
            "telemetry-prop",
            input,
            move |&n: &u64, e: &mut Emitter<u64>| {
                for i in 0..1 + n % fanout {
                    e.emit((n + i) % 13, n * 10 + i);
                }
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                for v in vs.by_ref() {
                    out.push((ctx.key, v));
                }
            },
        )
        .expect("job runs");
    (out, Folded(tel))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn data_plane_prometheus_text_is_thread_and_budget_invariant(
        input in proptest::collection::vec(0u64..5_000, 0..300),
        fanout in 1u64..4,
    ) {
        let (base_out, base_tel) = run(&input, fanout, 1, None);
        let base = base_tel.snapshot().data_plane().to_prometheus();
        for budget in [None, Some(256)] {
            for threads in [1usize, 2, 8] {
                let (out, tel) = run(&input, fanout, threads, budget);
                prop_assert_eq!(&out.outputs, &base_out.outputs);
                let text = tel.snapshot().data_plane().to_prometheus();
                prop_assert_eq!(
                    &text, &base,
                    "telemetry data plane diverged at budget {:?}, threads {}",
                    budget, threads
                );
            }
        }
    }
}

#[test]
fn snapshot_folds_progress_from_spans() {
    let input: Vec<u64> = (0..200).collect();
    let (out, tel) = run(&input, 3, 4, None);
    let snap = tel.snapshot();
    assert_eq!(snap.series[&names::PROGRESS_JOBS_STARTED], 1);
    assert_eq!(snap.series[&names::PROGRESS_JOBS_FINISHED], 1);
    assert_eq!(snap.series[&names::PROGRESS_MAP_RECORDS], 200);
    assert_eq!(snap.series[&names::PROGRESS_MAP_TASKS], 4);
    assert_eq!(
        snap.series[&names::PROGRESS_REDUCERS],
        snap.series[&names::PROGRESS_REDUCERS_DONE]
    );
    let pairs = snap
        .histograms
        .get(&names::REDUCE_BUCKET_PAIRS)
        .expect("hist");
    assert_eq!(pairs.sum(), out.metrics.intermediate_pairs);
    assert_eq!(pairs.count(), out.metrics.distinct_reducers);
    let service = snap
        .histograms
        .get(&names::REDUCE_SERVICE_US)
        .expect("hist");
    assert_eq!(service.count(), out.metrics.distinct_reducers);
}

#[test]
fn failed_job_leaves_its_trace() {
    // Bucket 0 fails every attempt; the other worker finishes 1, 2 and 3.
    let tracer = telemetry();
    let result = engine(2, None)
        .with_tracer(Arc::clone(&tracer))
        .with_faults(FaultPlan::new().fail("doomed", 0, 10).with_max_attempts(2))
        .run_job(
            "doomed",
            &(0..64u64).collect::<Vec<_>>(),
            |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
            |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
        );
    assert!(
        matches!(result, Err(EngineError::MaxAttemptsExceeded { .. })),
        "{result:?}"
    );
    let events = tracer.snapshot();
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Phase)
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(phases, vec!["map", "shuffle"], "no reduce phase completed");
    let finished: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Reduce)
        .filter_map(|e| e.get("key"))
        .collect();
    assert_eq!(finished, vec![1, 2, 3], "finished buckets, in key order");
    let job = events.last().expect("job span closes the trace");
    assert_eq!((job.kind, job.name.as_str()), (SpanKind::Job, "doomed"));
    assert_eq!(job.get("failed"), Some(1));

    // The same record, as JSONL: one object per line, the job span last.
    let jsonl = tracer.jsonl();
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    let last = jsonl.lines().last().expect("non-empty");
    assert!(
        last.contains("\"cat\":\"job\"") && last.contains("\"failed\":1"),
        "{last}"
    );
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"cat\":\"reduce\""))
            .count(),
        3
    );

    // A successful job's span carries no `failed` arg; the fold counts the
    // failed job as started but not finished.
    let (_, ok) = run(&(0..32).collect::<Vec<_>>(), 2, 2, None);
    let events = ok.0.snapshot();
    let job = events
        .iter()
        .find(|e| e.kind == SpanKind::Job)
        .expect("job span");
    assert_eq!(job.get("failed"), None);
    let snap = TelemetrySnapshot::from_events(&tracer.snapshot());
    assert_eq!(snap.series[&names::PROGRESS_JOBS_STARTED], 1);
    assert_eq!(snap.series[&names::PROGRESS_JOBS_FINISHED], 0);
}
