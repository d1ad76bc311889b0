//! Property tests for the live-telemetry plane (DESIGN.md §13).
//!
//! The telemetry subsystem promises its *data-plane* snapshot — progress
//! gauges, reduce heartbeats, the `reduce.bucket_pairs` and
//! `shuffle.job_bytes` histograms — is byte-identical in Prometheus text
//! form across `worker_threads` counts and reduce-memory budgets, exactly
//! like job outputs. Execution-shape series (map heartbeats, stragglers,
//! `spill.*`, `*_ns` timings) are excluded by `data_plane()`. These tests
//! pin that contract, plus the flight recorder's crash-dump path.

use ij_mapreduce::{
    ClusterConfig, Emitter, Engine, EngineError, FaultPlan, JobOutput, ReduceCtx, Telemetry,
    TelemetryConfig, ValueStream, VirtualClock,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A telemetry plane with a virtual clock (timestamps carry no entropy)
/// and a tiny heartbeat quantum so reduce heartbeats fire at test scale.
fn telemetry() -> Arc<Telemetry> {
    Arc::new(Telemetry::with_clock(
        TelemetryConfig {
            heartbeat_every: 8,
            ..TelemetryConfig::default()
        },
        Arc::new(VirtualClock::new()),
    ))
}

fn engine(threads: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        reduce_memory_budget: budget,
        ..ClusterConfig::default()
    })
}

/// Runs the shared fan-out job against an instrumented engine and
/// returns the output plus the attached telemetry plane.
fn run(
    input: &[u64],
    fanout: u64,
    threads: usize,
    budget: Option<u64>,
) -> (JobOutput<(u64, u64)>, Arc<Telemetry>) {
    let tel = telemetry();
    let out = engine(threads, budget)
        .with_telemetry(Arc::clone(&tel))
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
    (out, tel)
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
fn snapshot_tracks_progress_and_heartbeats() {
    let input: Vec<u64> = (0..200).collect();
    let (out, tel) = run(&input, 3, 4, None);
    let snap = tel.snapshot();
    assert_eq!(snap.series["progress.jobs_started"], 1);
    assert_eq!(snap.series["progress.jobs_finished"], 1);
    assert_eq!(snap.series["progress.map_records"], 200);
    assert_eq!(
        snap.series["progress.reducers"],
        snap.series["progress.reducers_done"]
    );
    assert_eq!(
        snap.series["progress.reduce_values"],
        out.metrics.intermediate_pairs
    );
    assert!(snap.series["telemetry.heartbeats.reduce"] > 0);
    let pairs = snap.histograms.get("reduce.bucket_pairs").expect("hist");
    assert_eq!(pairs.sum(), out.metrics.intermediate_pairs);
    assert!(snap.histograms.contains_key("reduce.service_ns"));
}

#[test]
fn failed_job_dumps_flight_recorder_jsonl() {
    let tel = telemetry();
    let result = engine(2, None)
        .with_telemetry(Arc::clone(&tel))
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
    let dump = tel
        .last_flight_dump()
        .expect("error path freezes a flight-recorder dump");
    assert!(!dump.is_empty());
    for line in dump.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "flight dump is JSONL, got {line:?}"
        );
    }
    assert!(
        dump.lines().any(|l| l.contains("\"event\":\"error\"")),
        "{dump}"
    );
    assert!(dump.contains("doomed"), "{dump}");
    assert!(
        dump.lines().any(|l| l.contains("\"event\":\"job_start\"")),
        "the events leading up to the failure are retained: {dump}"
    );
}

#[test]
fn flight_dump_is_not_frozen_on_success() {
    let input: Vec<u64> = (0..32).collect();
    let (_, tel) = run(&input, 2, 2, None);
    assert!(tel.last_flight_dump().is_none());
    assert!(!tel.flight().is_empty(), "events still recorded live");
}
