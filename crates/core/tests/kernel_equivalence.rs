//! Property tests for the kernel layer: the sweep kernel, the sort-merge
//! kernel and the windowed-backtracking fallback are *complete* executors
//! for any single-attribute query, so on random chains and cliques over all
//! 13 Allen predicates the three must produce identical result sets — and
//! all must agree with the nested-loop oracle. The event-list sweep is
//! complete only on its qualifying domain (pairwise-intersection-
//! guaranteed colocation sets), checked here on colocation cliques and
//! containment chains of arity 3–4. The dispatching kernel, which routes
//! each query to one of them, must agree as well.

use ij_core::executor::Candidates;
use ij_core::kernel;
use ij_core::oracle::oracle_join;
use ij_core::JoinInput;
use ij_interval::{AllenPredicate, Interval, Relation, TupleId};
use ij_query::{Condition, JoinQuery};
use proptest::prelude::*;

/// One relation's worth of random intervals: `(start, len)` pairs over a
/// span small enough that every predicate (including the point-equality
/// ones: meets, starts, equals, …) fires regularly.
fn rel_strategy() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(
        (0i64..30, 0i64..12).prop_map(|(s, l)| Interval::new(s, s + l).unwrap()),
        3..25usize,
    )
}

fn pred_strategy() -> impl Strategy<Value = AllenPredicate> {
    (0usize..13).prop_map(|i| AllenPredicate::ALL[i])
}

/// Builds the two candidate representations the executors take: the
/// reducer-side `Candidates` and the oracle's `JoinInput`, with matching
/// sequential tuple ids.
fn build_inputs(q: &JoinQuery, rels: &[Vec<Interval>]) -> (Candidates, JoinInput) {
    let mut cands = Candidates::new(rels.len());
    for (r, ivs) in rels.iter().enumerate() {
        for (t, &iv) in ivs.iter().enumerate() {
            cands.push(r, iv, t as TupleId);
        }
    }
    cands.finish();
    let input = JoinInput::bind_owned(
        q,
        rels.iter()
            .map(|ivs| Relation::from_intervals("R", ivs.iter().copied()))
            .collect(),
    )
    .expect("single-attr input binds");
    (cands, input)
}

/// Sorted result sets from the three forced kernels and the dispatching
/// kernel, for the caller to compare with each other and the oracle.
fn all_kernel_results(q: &JoinQuery, cands: &Candidates) -> [Vec<Vec<TupleId>>; 4] {
    type Emit<'a> = dyn FnMut(&[(Interval, TupleId)]) + 'a;
    let collect = |run: &dyn Fn(&mut Emit<'_>)| {
        let mut got: Vec<Vec<TupleId>> = Vec::new();
        run(&mut |a| got.push(a.iter().map(|(_, t)| *t).collect()));
        got.sort();
        got
    };
    [
        collect(&|emit| {
            kernel::backtrack_join(q, cands, |_| true, |a| emit(a));
        }),
        collect(&|emit| {
            kernel::sweep_join(q, cands, |_| true, |a| emit(a));
        }),
        collect(&|emit| {
            kernel::merge_join(q, cands, |_| true, |a| emit(a));
        }),
        collect(&|emit| {
            kernel::execute(q, cands, |_| true, |a| emit(a));
        }),
    ]
}

/// The 11 colocation predicates (everything but before/after) — the
/// domain where clique condition sets qualify for the event sweep.
const COLOCATION_PREDS: [AllenPredicate; 11] = {
    use AllenPredicate::*;
    [
        Overlaps,
        OverlappedBy,
        Contains,
        ContainedBy,
        Meets,
        MetBy,
        Starts,
        StartedBy,
        Finishes,
        FinishedBy,
        Equals,
    ]
};

fn colocation_pred_strategy() -> impl Strategy<Value = AllenPredicate> {
    (0usize..COLOCATION_PREDS.len()).prop_map(|i| COLOCATION_PREDS[i])
}

/// A clique: one condition between every pair of relations. Often
/// contradictory — those cases must simply produce empty sets everywhere.
fn clique(m: u16, preds: &[AllenPredicate]) -> JoinQuery {
    let mut conds = Vec::new();
    let mut pi = 0;
    for i in 0..m {
        for j in (i + 1)..m {
            conds.push(Condition::whole(i, preds[pi % preds.len()], j));
            pi += 1;
        }
    }
    JoinQuery::new(m, conds).expect("clique query builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Chains of 2–4 relations over random predicate mixes: every kernel
    /// and the oracle agree on the exact result set.
    #[test]
    fn kernels_match_oracle_on_chains(
        preds in proptest::collection::vec(pred_strategy(), 1..4usize),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        let rels = &seed_rels[..m];
        let (cands, input) = build_inputs(&q, rels);
        let [bt, sw, mg, dx] = all_kernel_results(&q, &cands);
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&bt, &sw, "sweep != backtrack for {}", q);
        prop_assert_eq!(&bt, &mg, "merge != backtrack for {}", q);
        prop_assert_eq!(&bt, &dx, "dispatch != backtrack for {}", q);
        prop_assert_eq!(&bt, &oracle, "kernels != oracle for {}", q);
    }

    /// Cliques over 3–4 relations (including contradictory ones, which must
    /// yield empty sets from every path).
    #[test]
    fn kernels_match_oracle_on_cliques(
        m in 3u16..5,
        preds in proptest::array::uniform3(pred_strategy()),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = clique(m, &preds);
        let rels = &seed_rels[..m as usize];
        let (cands, input) = build_inputs(&q, rels);
        let [bt, sw, mg, dx] = all_kernel_results(&q, &cands);
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&bt, &sw, "sweep != backtrack for {}", q);
        prop_assert_eq!(&bt, &mg, "merge != backtrack for {}", q);
        prop_assert_eq!(&bt, &dx, "dispatch != backtrack for {}", q);
        prop_assert_eq!(&bt, &oracle, "kernels != oracle for {}", q);
    }

    /// Arity-3/4 colocation cliques always qualify for the event sweep
    /// (every pair directly conditioned); its result set must match the
    /// oracle and the other complete kernels exactly — including the
    /// contradictory cliques, which must be empty everywhere.
    #[test]
    fn event_sweep_matches_oracle_on_colocation_cliques(
        m in 3u16..5,
        preds in proptest::collection::vec(colocation_pred_strategy(), 6),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = clique(m, &preds);
        let rels = &seed_rels[..m as usize];
        let (cands, input) = build_inputs(&q, rels);
        let mut es: Vec<Vec<TupleId>> = Vec::new();
        kernel::event_sweep_join(&q, &cands, |_| true, |a| {
            es.push(a.iter().map(|(_, t)| *t).collect())
        });
        es.sort();
        let [bt, ..] = all_kernel_results(&q, &cands);
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&es, &bt, "event sweep != backtrack for {}", q);
        prop_assert_eq!(&es, &oracle, "event sweep != oracle for {}", q);
    }

    /// Containment-family chains (arity 3–4) reach the event sweep via the
    /// subset closure; the result set must still match the oracle.
    #[test]
    fn event_sweep_matches_oracle_on_containment_chains(
        preds in proptest::collection::vec(
            (0usize..5).prop_map(|i| [
                AllenPredicate::Contains,
                AllenPredicate::ContainedBy,
                AllenPredicate::Starts,
                AllenPredicate::Finishes,
                AllenPredicate::Equals,
            ][i]),
            2..4usize,
        ),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        let rels = &seed_rels[..m];
        let (cands, input) = build_inputs(&q, rels);
        let mut es: Vec<Vec<TupleId>> = Vec::new();
        kernel::event_sweep_join(&q, &cands, |_| true, |a| {
            es.push(a.iter().map(|(_, t)| *t).collect())
        });
        es.sort();
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&es, &oracle, "event sweep != oracle for {}", q);
    }
}
