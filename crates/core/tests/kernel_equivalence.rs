//! Property tests for the kernel layer: the sweep kernel, the sort-merge
//! kernel and the windowed-backtracking fallback are *complete* executors
//! for any single-attribute query, so on random chains and cliques over all
//! 13 Allen predicates the three must produce identical result sets — and
//! all must agree with the nested-loop oracle. The event-list sweep is
//! complete only on its qualifying domain (pairwise-intersection-
//! guaranteed colocation sets), checked here on colocation cliques and
//! containment chains of arity 3–4. The dispatching kernel, which routes
//! each query to one of them, must agree as well.
//!
//! Ownership pushed into the kernel windows must be exact: under any
//! [`Owner`], every kernel enumerates precisely the bindings whose greatest
//! start per group lies in the group's partition, and `Sink::Count`
//! counts exactly those.

use ij_core::executor::Candidates;
use ij_core::kernel::{self, Owner, Sink};
use ij_core::oracle::oracle_join;
use ij_core::{JoinInput, SingleAttr};
use ij_interval::{AllenPredicate, Interval, Partitioning, Relation, TupleId};
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

/// The forced kernels plus the dispatcher, in the order
/// [`all_kernel_results`] reports them.
const KERNELS: [(&str, Kernel); 5] = [
    ("backtrack", kernel::backtrack_join),
    ("sweep", kernel::sweep_join),
    ("merge", kernel::merge_join),
    ("dispatch", |q, c, o, s| kernel::execute(q, c, o, s).work),
    ("event sweep", kernel::event_sweep_join),
];

type Kernel = fn(SingleAttr<'_>, &Candidates, &Owner, Sink<'_>) -> u64;

/// The single-attribute proof every generated query carries.
fn single(q: &JoinQuery) -> SingleAttr<'_> {
    SingleAttr::new(q).expect("single-attribute query")
}

/// Sorted bindings `run` emits under `owner`.
fn emitted(run: Kernel, q: &JoinQuery, cands: &Candidates, owner: &Owner) -> Vec<Vec<TupleId>> {
    let mut got: Vec<Vec<TupleId>> = Vec::new();
    let emit = &mut |a: &[(Interval, TupleId)]| got.push(a.iter().map(|(_, t)| *t).collect());
    run(single(q), cands, owner, Sink::Emit(emit));
    got.sort();
    got
}

/// Sorted result sets from the three forced kernels and the dispatching
/// kernel, for the caller to compare with each other and the oracle.
fn all_kernel_results(q: &JoinQuery, cands: &Candidates) -> [Vec<Vec<TupleId>>; 4] {
    let all = Owner::all();
    [0, 1, 2, 3].map(|k| emitted(KERNELS[k].1, q, cands, &all))
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
        let es = emitted(kernel::event_sweep_join, &q, &cands, &Owner::all());
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
        let es = emitted(kernel::event_sweep_join, &q, &cands, &Owner::all());
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&es, &oracle, "event sweep != oracle for {}", q);
    }
}

/// A partitioning of 2–6 partitions whose first boundary sits inside the
/// start span (so starts clamp into partition 0) and whose last sits
/// before the largest starts (so starts clamp into the last partition).
fn partitioning_strategy() -> impl Strategy<Value = Partitioning> {
    proptest::collection::vec(1i64..28, 3..8usize).prop_map(|mut b| {
        b.sort_unstable();
        b.dedup();
        if b.len() < 3 {
            b = vec![4, 11, 23];
        }
        Partitioning::from_boundaries(b).expect("strictly increasing")
    })
}

/// Adds to each relation an interval starting on a partition boundary.
fn with_boundary_starts(rels: &mut [Vec<Interval>], part: &Partitioning, picks: &[usize]) {
    let b = part.boundaries();
    for (r, ivs) in rels.iter_mut().enumerate() {
        let s = b[picks[r] % b.len()];
        ivs.push(Interval::new(s, s + (picks[r] as i64 % 7)).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every kernel, under both sinks, produces exactly the unowned
    /// result filtered by the ownership rule — one group over all
    /// relations (RCCIS) or one per colocation component (the matrix
    /// joins).
    #[test]
    fn owner_bounds_are_exact(
        shape in 0usize..3,
        preds in proptest::collection::vec(pred_strategy(), 1..4usize),
        coloc in proptest::collection::vec(colocation_pred_strategy(), 6),
        m in 3u16..5,
        per_component in 0u8..2,
        part in partitioning_strategy(),
        coords in proptest::array::uniform4(0usize..64),
        picks in proptest::array::uniform4(0usize..8),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = match shape {
            0 => JoinQuery::chain(&preds).unwrap(),
            // Containment-family chains qualify for the event sweep.
            1 => {
                use AllenPredicate::*;
                let family = [Contains, ContainedBy, Starts, Finishes, Contains];
                let links: Vec<_> = picks[..m as usize - 1].iter().map(|&i| family[i % 5]).collect();
                JoinQuery::chain(&links).unwrap()
            }
            // A hybrid chain: colocation links with a sequence link.
            _ => {
                let mut links = coloc[..m as usize - 1].to_vec();
                links[coords[3] % (m as usize - 1)] = AllenPredicate::Before;
                JoinQuery::chain(&links).unwrap()
            }
        };
        let n = q.num_relations() as usize;
        let mut rels = seed_rels[..n].to_vec();
        with_boundary_starts(&mut rels, &part, &picks);
        let (cands, _) = build_inputs(&q, &rels);
        let members: Vec<Vec<usize>> = if per_component == 1 {
            q.components()
                .components
                .iter()
                .map(|c| c.vertices.iter().map(|v| v.rel.idx()).collect())
                .collect()
        } else {
            vec![(0..n).collect()]
        };
        // Every binding, with its intervals, for the rule to judge.
        let mut all: Vec<Vec<(Interval, TupleId)>> = Vec::new();
        kernel::execute(single(&q), &cands, &Owner::all(), Sink::Emit(&mut |a| all.push(a.to_vec())));
        // Each cell of coordinates (one per group) owns a disjoint share;
        // small cell spaces are covered whole, so the shares must add up.
        let cells = part.len().pow(members.len() as u32);
        let mut owned_total = 0;
        for cell in (0..cells.min(64)).map(|c| (c + coords[0]) % cells) {
            let coord: Vec<usize> = (0..members.len())
                .map(|g| cell / part.len().pow(g as u32) % part.len())
                .collect();
            let owner = members.iter().zip(&coord).fold(Owner::all(), |o, (ms, &c)| {
                o.with_group(ms.iter().copied(), &part, c)
            });
            // Reference: the old rule on finished bindings.
            let mut reference: Vec<Vec<TupleId>> = all
                .iter()
                .filter(|a| {
                    members.iter().zip(&coord).all(|(ms, &c)| {
                        let max_start = ms.iter().map(|&r| a[r].0.start()).max().unwrap();
                        part.index_of(max_start) == c
                    })
                })
                .map(|a| a.iter().map(|(_, t)| *t).collect())
                .collect();
            reference.sort();
            owned_total += reference.len();
            for (name, run) in KERNELS {
                let got = emitted(run, &q, &cands, &owner);
                prop_assert_eq!(&got, &reference, "{} emits the wrong set for {}", name, q);
                let mut count = 0;
                run(single(&q), &cands, &owner, Sink::Count(&mut count));
                prop_assert_eq!(count, reference.len() as u64, "{} miscounts {}", name, q);
            }
        }
        if cells <= 64 {
            prop_assert_eq!(owned_total, all.len(), "cells must partition {}", q);
        }
    }
}
