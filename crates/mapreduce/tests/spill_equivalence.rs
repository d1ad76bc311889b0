//! Property tests for the memory-budgeted (spilling) reduce path.
//!
//! The engine promises that `reduce_memory_budget` is *invisible* to the
//! data plane: for any budget and any `worker_threads` count, a job's
//! outputs, reducer loads and data-plane counters are byte-identical to
//! the unlimited in-memory run. Spilling may only change execution-shape
//! observables (`spill.*` counters, `spill_wall`). These properties pin
//! that equivalence over arbitrary emit patterns: a fan-out mix of
//! similar-sized buckets and a skewed mix with one dominant hot bucket.

use ij_mapreduce::metrics::names::{self, Name};
use ij_mapreduce::{
    ClusterConfig, Counters, Emitter, Engine, JobOutput, Mapper, ReduceCtx, ValueStream,
};
use proptest::prelude::*;

/// Budgets the property sweeps: unlimited (pure in-memory), tiny (every
/// non-trivial bucket spills, many runs) and mid (only heavy buckets
/// spill).
const BUDGETS: [Option<u64>; 3] = [None, Some(64), Some(1024)];

fn engine(threads: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        reduce_memory_budget: budget,
        ..ClusterConfig::default()
    })
}

/// The fan-out mix: each input value emits `1 + n % fanout` pairs across
/// 13 reducer keys.
fn fan_out(fanout: u64) -> impl Fn(&u64, &mut Emitter<u64>) + Sync + Copy {
    move |&n: &u64, e: &mut Emitter<u64>| {
        for i in 0..1 + n % fanout {
            e.emit((n + i) % 13, n * 10 + i);
        }
    }
}

/// The skewed mix: `hot_share` of every 8 values go to the hot bucket
/// (key 0), the rest spread over 16 light keys.
fn skewed(hot_share: u64) -> impl Fn(&u64, &mut Emitter<u64>) + Sync + Copy {
    move |&n: &u64, e: &mut Emitter<u64>| {
        if n % 8 < hot_share {
            e.emit(0, n);
        } else {
            e.emit(1 + n % 16, n);
        }
    }
}

/// Runs a job with the given routing; the reducer echoes its stream in
/// order (so any reordering or loss through the spill files is visible).
fn run(
    input: &[u64],
    map: impl Mapper<u64, u64>,
    threads: usize,
    budget: Option<u64>,
) -> JobOutput<(u64, u64)> {
    engine(threads, budget)
        .run_job(
            "spill-prop",
            input,
            map,
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                for v in vs.by_ref() {
                    out.push((ctx.key, v));
                }
            },
        )
        .expect("job runs")
}

/// The data-plane slice of a counter set: everything except
/// execution-shape names (`spill.*`, `kernel.active_peak`).
fn data_plane(counters: &Counters) -> Vec<(Name, u64)> {
    counters
        .iter()
        .filter(|(k, _)| !k.is_execution_shape())
        .collect()
}

/// Asserts that every budget × threads {1, 2, 8} run of `map` over
/// `input` matches the unbudgeted single-thread run on outputs, reducer
/// loads, data-plane counters and shuffle volume.
fn assert_budget_and_thread_invariant(input: &[u64], map: impl Mapper<u64, u64> + Copy) {
    let base = run(input, map, 1, None);
    assert_eq!(base.metrics.counters.get(names::SPILL_BUCKETS), 0);
    for budget in BUDGETS {
        for threads in [1usize, 2, 8] {
            let out = run(input, map, threads, budget);
            let at = format!("budget {budget:?}, threads {threads}");
            assert_eq!(&out.outputs, &base.outputs, "{at}");
            assert_eq!(
                &out.metrics.reducer_loads, &base.metrics.reducer_loads,
                "{at}"
            );
            assert_eq!(
                data_plane(&out.metrics.counters),
                data_plane(&base.metrics.counters),
                "{at}"
            );
            assert_eq!(
                out.metrics.intermediate_pairs,
                base.metrics.intermediate_pairs
            );
            assert_eq!(out.metrics.shuffle_bytes, base.metrics.shuffle_bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spilled_runs_match_in_memory_runs_exactly(
        input in proptest::collection::vec(0u64..5_000, 0..400),
        fanout in 1u64..4,
    ) {
        assert_budget_and_thread_invariant(&input, fan_out(fanout));
    }

    #[test]
    fn skewed_mix_matches_in_memory_run_exactly(
        input in proptest::collection::vec(0u64..10_000, 40..240),
        hot_share in 1u64..7,
    ) {
        assert_budget_and_thread_invariant(&input, skewed(hot_share));
    }

    #[test]
    fn spill_shape_is_thread_count_independent(
        input in proptest::collection::vec(0u64..5_000, 0..400),
        fanout in 1u64..4,
    ) {
        // With a fixed budget, even the spill layout (bucket/run/byte
        // counts) must not depend on worker_threads: the merged shuffle
        // stream the spiller consumes is itself deterministic.
        let budget = Some(64);
        let base = run(&input, fan_out(fanout), 1, budget);
        let base_spill: Vec<(Name, u64)> = base
            .metrics
            .counters
            .iter()
            .filter(|(k, _)| k.as_str().starts_with("spill."))
            .collect();
        for threads in [2usize, 8] {
            let out = run(&input, fan_out(fanout), threads, budget);
            let spill: Vec<(Name, u64)> = out
                .metrics
                .counters
                .iter()
                .filter(|(k, _)| k.as_str().starts_with("spill."))
                .collect();
            prop_assert_eq!(&spill, &base_spill, "threads {}", threads);
        }
    }
}
