//! Property tests for the user-counter facility.
//!
//! The engine merges per-worker counter maps with a per-name sum. These
//! properties pin what that buys: the merge is associative and commutative
//! (any merge tree gives the same totals), and a job's merged counters are
//! identical for every `worker_threads` count — the Hadoop counter
//! contract the algorithms' replica/candidate statistics rely on.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, CostModel, Counters, Emitter, Engine, ReduceCtx, ValueStream};
use proptest::prelude::*;

/// A small pool of registered names keeps collisions frequent, which is
/// where merge bugs would hide.
fn entries_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0usize..6, 0u64..1_000), 0..40)
}

fn counters_from(entries: &[(usize, u64)]) -> Counters {
    let mut c = Counters::new();
    for &(name, delta) in entries {
        c.inc(names::ALL[name], delta);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn merge_is_associative_and_commutative(
        a in entries_strategy(),
        b in entries_strategy(),
        c in entries_strategy(),
    ) {
        let (a, b, c) = (counters_from(&a), counters_from(&b), counters_from(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Identity: merging an empty map changes nothing.
        let mut id = a.clone();
        id.merge(&Counters::new());
        prop_assert_eq!(&id, &a);
    }

    #[test]
    fn job_counters_identical_across_worker_threads(
        input in proptest::collection::vec(0u64..5_000, 0..300),
        fanout in 1u64..4,
    ) {
        // Mappers and reducers both increment counters whose names and
        // deltas depend on the record, so different chunkings produce
        // different per-worker partial maps — the merged totals must not
        // care.
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
                cost: CostModel::default(),
    ..ClusterConfig::default()
            })
            .run_job(
                "prop-counters",
                &input,
                move |&n: &u64, e: &mut Emitter<u64>| {
                    let name = if n % 2 == 0 { names::JOIN_CANDIDATES } else { names::JOIN_EMITTED };
                    e.inc(name, 1 + n % 3);
                    for i in 0..1 + n % fanout {
                        e.emit((n + i) % 13, n);
                    }
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                    ctx.inc(names::ALL[(ctx.key % 3) as usize], vs.len() as u64);
                    out.push(vs.len() as u64);
                },
            )
            .unwrap()
            .metrics
            .counters
            .clone()
        };
        let base = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(&run(threads), &base, "threads = {}", threads);
        }
    }
}
