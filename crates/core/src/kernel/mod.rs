//! Predicate-specialized reduce-side join kernels.
//!
//! Every reducer of every single-attribute algorithm funnels into
//! [`execute`] (via `executor::join_single_attr` or [`reduce_join`]): the
//! dispatcher classifies the query's condition set and routes each bucket
//! to the fastest applicable kernel —
//!
//! | Condition set | Kernel | Counter |
//! |---|---|---|
//! | colocation, all pairs provably intersecting | `event_sweep` (merged event list, gapless active arrays) | `kernel.event_sweep_buckets` |
//! | other colocation-only sets | `sweep` (active-set / dual-window plane sweep) | `kernel.sweep_buckets` |
//! | sequence only | `sort_merge` (suffix/prefix merge) | `kernel.merge_buckets` |
//! | mixed (hybrid) | `backtrack` (windowed backtracking) | `kernel.fallback_buckets` |
//!
//! The event-list sweep is the multi-way generalization of the pair
//! sweep: one pass over all relations' merged endpoints, emitting each
//! binding at its latest-starting tuple's event. Completeness of that
//! rule needs every relation pair of a satisfying assignment to
//! intersect (1-D Helly), which `event_sweep::qualifies` proves
//! statically — colocation cliques and containment-shaped chains route
//! there, while e.g. pure *overlaps* chains (where the ends of a binding
//! may not share a point) stay on the dual-window sweep. All kernels are
//! complete join executors for arbitrary single-attribute
//! Allen condition sets (they share the binding-order skeleton and differ
//! only in the per-level scan strategy), so dispatch is purely a
//! performance decision — property-tested to produce identical result
//! sets.
//!
//! **One serial call per bucket.** Each reduce worker runs its bucket's
//! kernel on its own thread, like a Hadoop reduce task; parallelism comes
//! only from the engine running several reducers at once. The `accept`
//! owner filter and the `on_output` sink are both called inline, in the
//! kernel's fixed emission order.
//!
//! **Streaming reducers.** Since the memory-budgeted reduce pipeline,
//! reducers receive their bucket as a pull-based
//! [`ij_mapreduce::ValueStream`] and build [`Candidates`] by draining it
//! once, in emission order — whether the stream is backed by the
//! in-memory merge or by spilled Dfs runs is invisible here. The kernels
//! themselves are unchanged: they run over the materialized `Candidates`
//! index, never over the raw stream.

mod backtrack;
mod event_sweep;
mod ranges;
mod scratch;
mod sort_merge;
mod sweep;

pub use ranges::{range_pair, RangePair};

use crate::executor::Candidates;
use ij_interval::{AllenPredicate, Interval, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::ReduceCtx;
use ij_query::{JoinQuery, QueryClass};

/// Sink for complete bindings: one `(interval, tuple)` slot per relation,
/// in query order.
pub(crate) type Emit<'a> = dyn FnMut(&[(Interval, TupleId)]) + 'a;

/// Which kernel a bucket was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Endpoint-sorted plane sweep (colocation condition sets).
    Sweep,
    /// Merged-event-list sweep with gapless active arrays (colocation
    /// sets whose relation pairs all provably intersect).
    EventSweep,
    /// Sort-merge path (sequence condition sets).
    SortMerge,
    /// Windowed backtracking fallback (mixed Allen condition sets).
    Backtrack,
}

impl KernelKind {
    /// The per-bucket user counter this kernel increments. Valid for
    /// every kernel kind regardless of predicate class.
    pub fn counter(self) -> &'static str {
        match self {
            KernelKind::Sweep => names::KERNEL_SWEEP_BUCKETS,
            KernelKind::EventSweep => names::KERNEL_EVENT_SWEEP_BUCKETS,
            KernelKind::SortMerge => names::KERNEL_MERGE_BUCKETS,
            KernelKind::Backtrack => names::KERNEL_FALLBACK_BUCKETS,
        }
    }
}

/// The fine-grained scan strategy the dispatcher will use for a query —
/// [`KernelKind`] plus the sweep kernel's internal pair/dual-window
/// split. This is query-static (independent of bucket contents), so the
/// cost model in `core::estimate` can price reducers per strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStrategy {
    /// Two-relation active-set sweep with a retirement array.
    PairSweep,
    /// Merged-event-list sweep over gapless active arrays.
    EventSweep,
    /// Per-level adaptive dual-window scan.
    DualWindow,
    /// Suffix/prefix merge for sequence condition sets.
    SortMerge,
    /// Windowed backtracking with per-candidate `holds` re-checks.
    Backtrack,
}

/// Whether the sweep kernel's two-relation fast path applies: a single
/// condition whose predicate orients to an *overlaps*/*contains* shape.
fn pair_sweep_eligible(q: &JoinQuery) -> bool {
    use AllenPredicate::*;
    q.num_relations() == 2
        && q.conditions().len() == 1
        && matches!(
            q.conditions()[0].pred,
            Overlaps | OverlappedBy | Contains | ContainedBy
        )
}

/// The strategy [`execute`] will route `q`'s buckets to. Valid for any
/// single-attribute query of any predicate class — the mapping depends
/// only on the condition set.
pub fn planned_kernel(q: &JoinQuery) -> KernelStrategy {
    match choose(q) {
        KernelKind::EventSweep => KernelStrategy::EventSweep,
        KernelKind::SortMerge => KernelStrategy::SortMerge,
        KernelKind::Backtrack => KernelStrategy::Backtrack,
        KernelKind::Sweep => {
            if pair_sweep_eligible(q) {
                KernelStrategy::PairSweep
            } else {
                KernelStrategy::DualWindow
            }
        }
    }
}

/// What one [`execute`] call did.
#[derive(Debug, Clone, Copy)]
pub struct KernelReport {
    /// The kernel the dispatcher chose.
    pub kind: KernelKind,
    /// Work units spent (candidates examined).
    pub work: u64,
    /// Maximum total active-array occupancy the event sweep observed
    /// (0 for the other kernels): the bucket's peak concurrent-interval
    /// count, a direct measure of its skew.
    pub active_peak: u64,
}

/// Routes a condition set to its kernel.
fn choose(q: &JoinQuery) -> KernelKind {
    match q.class() {
        // The pair fast path is the strongest specialization, so
        // pair-eligible queries keep the classic sweep; other colocation
        // sets take the event-list sweep when its completeness
        // precondition (all relation pairs provably intersecting) holds.
        QueryClass::Colocation if pair_sweep_eligible(q) => KernelKind::Sweep,
        QueryClass::Colocation if event_sweep::qualifies(q) => KernelKind::EventSweep,
        QueryClass::Colocation => KernelKind::Sweep,
        QueryClass::Sequence => KernelKind::SortMerge,
        // Mixed colocation/sequence sets (and anything unclassified) fall
        // back to the general windowed backtracking scan.
        _ => KernelKind::Backtrack,
    }
}

/// Binding order plus per-level checks, shared by all kernels.
///
/// `checks[level]` lists `(other_rel, pred)` for every condition whose
/// later-bound endpoint is at `level`, with the predicate oriented so the
/// *candidate is the right operand*: the check is `pred.holds(other, cand)`
/// and the candidate's endpoint ranges come from
/// [`ranges::range_pair`]`(pred, other)`.
pub(crate) struct Compiled {
    pub(crate) order: Vec<usize>,
    pub(crate) checks: Vec<Vec<(usize, AllenPredicate)>>,
}

impl Compiled {
    fn new(q: &JoinQuery, list_len: impl Fn(usize) -> usize) -> Compiled {
        let m = q.num_relations() as usize;
        let order = crate::executor::binding_order(q, list_len);
        let mut level_of = vec![0usize; m];
        for (lvl, &r) in order.iter().enumerate() {
            level_of[r] = lvl;
        }
        let mut checks: Vec<Vec<(usize, AllenPredicate)>> = vec![Vec::new(); m];
        for c in q.conditions() {
            let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
            let (lvl, other, pred) = if level_of[l] > level_of[r] {
                // `l` binds later: the candidate is the LEFT operand, so
                // flip to the right-operand form.
                (level_of[l], r, c.pred.inverse())
            } else {
                (level_of[r], l, c.pred)
            };
            checks[lvl].push((other, pred));
        }
        Compiled { order, checks }
    }
}

/// Runs `kind` over the whole bucket, filtering bindings through
/// `accept` before `on_output`; returns `(work, active_peak)`.
fn run(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    mut on_output: impl FnMut(&[(Interval, TupleId)]),
) -> (u64, u64) {
    assert!(
        cands.is_sorted(),
        "Candidates::finish must be called before joining"
    );
    if cands.any_empty() {
        return (0, 0);
    }
    let compiled = Compiled::new(q, |r| cands.len(r));
    let mut work = 0u64;
    let mut active_peak = 0u64;
    let emit: &mut Emit<'_> = &mut |a| {
        if accept(a) {
            on_output(a)
        }
    };
    match kind {
        KernelKind::Backtrack => backtrack::run(cands, &compiled, emit, &mut work),
        KernelKind::SortMerge => sort_merge::run(cands, &compiled, emit, &mut work),
        KernelKind::Sweep => {
            sweep::SweepPlan::new(q, cands, &compiled).run(cands, &compiled, emit, &mut work)
        }
        KernelKind::EventSweep => {
            event_sweep::EventSweepPlan::new(q, cands).run(cands, emit, &mut work, &mut active_peak)
        }
    }
    (work, active_peak)
}

/// Dispatching kernel execution. Precondition: any single-attribute
/// query — the dispatcher routes colocation condition sets to the sweep,
/// sequence sets to sort-merge and mixed Allen sets to the backtracking
/// fallback.
///
/// `executor::join_single_attr` delegates here, so the whole algorithm
/// suite picks the kernels up without signature changes.
pub fn execute(
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> KernelReport {
    let kind = choose(q);
    let (work, active_peak) = run(kind, q, cands, accept, on_output);
    KernelReport {
        kind,
        work,
        active_peak,
    }
}

/// Runs a bucket inside a reducer: executes the dispatching kernel,
/// reports the work units to the cost model and maintains the
/// `kernel.*` counters. Algorithm call sites use this instead of raw
/// `join_single_attr`. Precondition: any single-attribute query; the
/// dispatcher picks the kernel by predicate class.
pub fn reduce_join(
    ctx: &mut ReduceCtx,
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> KernelReport {
    let rep = execute(q, cands, accept, on_output);
    ctx.add_work(rep.work);
    ctx.inc(rep.kind.counter(), 1);
    if rep.active_peak > 0 {
        // Execution-shape counter (see `ij_mapreduce::is_execution_shape`):
        // the event sweep's peak concurrent-interval count. The engine
        // also records the per-bucket values into the `kernel.active_peak`
        // histogram.
        ctx.inc(names::KERNEL_ACTIVE_PEAK, rep.active_peak);
    }
    rep
}

/// Forces the plane-sweep kernel (complete for any single-attribute
/// query); returns work units. Used by benchmarks and equivalence tests.
pub fn sweep_join(
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> u64 {
    run(KernelKind::Sweep, q, cands, accept, on_output).0
}

/// Forces the event-list sweep (complete only for colocation condition
/// sets whose relation pairs all provably intersect — see
/// `event_sweep::qualifies`); non-qualifying queries fall back to the
/// plane sweep, which is complete for any single-attribute query.
/// Returns work units. Used by benchmarks and equivalence tests.
pub fn event_sweep_join(
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> u64 {
    let kind = if event_sweep::qualifies(q) {
        KernelKind::EventSweep
    } else {
        KernelKind::Sweep
    };
    run(kind, q, cands, accept, on_output).0
}

/// Forces the sort-merge kernel (complete for any single-attribute
/// query); returns work units.
pub fn merge_join(
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> u64 {
    run(KernelKind::SortMerge, q, cands, accept, on_output).0
}

/// Forces the windowed backtracking fallback (the pre-kernel
/// `join_single_attr` semantics, complete for any single-attribute
/// query including mixed Allen condition sets); returns work units.
pub fn backtrack_join(
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> u64 {
    run(KernelKind::Backtrack, q, cands, accept, on_output).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    fn random_cands(m: usize, n: u32, seed: u64) -> Candidates {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Candidates::new(m);
        for r in 0..m {
            for t in 0..n {
                let s = rng.gen_range(0..60);
                let e = s + rng.gen_range(0..20);
                c.push(r, iv(s, e), t);
            }
        }
        c.finish();
        c
    }

    fn collect(
        run: impl FnOnce(&mut dyn FnMut(&[(Interval, TupleId)])) -> u64,
    ) -> (u64, Vec<Vec<TupleId>>) {
        let mut got = Vec::new();
        let work = run(&mut |a: &[(Interval, TupleId)]| {
            got.push(a.iter().map(|(_, t)| *t).collect::<Vec<_>>())
        });
        (work, got)
    }

    #[test]
    fn dispatch_follows_query_class() {
        // Overlaps∘Contains chains don't guarantee pairwise intersection,
        // so they stay on the dual-window sweep.
        let coloc = JoinQuery::chain(&[Overlaps, Contains]).unwrap();
        let seq = JoinQuery::chain(&[Before, Before]).unwrap();
        let mixed = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        assert_eq!(choose(&coloc), KernelKind::Sweep);
        assert_eq!(choose(&seq), KernelKind::SortMerge);
        assert_eq!(choose(&mixed), KernelKind::Backtrack);
        // Qualifying multi-way colocation sets route to the event sweep:
        // cliques (every pair conditioned) and containment chains.
        let clique = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Contains, 2),
                ij_query::Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        assert_eq!(choose(&clique), KernelKind::EventSweep);
        let containment = JoinQuery::chain(&[Contains, Contains]).unwrap();
        assert_eq!(choose(&containment), KernelKind::EventSweep);
        // Pair-eligible queries keep the pair-sweep fast path.
        let pair = JoinQuery::chain(&[Overlaps]).unwrap();
        assert_eq!(choose(&pair), KernelKind::Sweep);
        assert_eq!(planned_kernel(&pair), KernelStrategy::PairSweep);
        assert_eq!(planned_kernel(&coloc), KernelStrategy::DualWindow);
        assert_eq!(planned_kernel(&clique), KernelStrategy::EventSweep);
        assert_eq!(planned_kernel(&seq), KernelStrategy::SortMerge);
        assert_eq!(planned_kernel(&mixed), KernelStrategy::Backtrack);
    }

    /// A satisfiable 3-clique: r0 ov r1, r1 ⊇ r2, r0 ov r2 — e.g.
    /// r0=[0,10], r1=[5,20], r2=[8,12].
    fn clique3() -> JoinQuery {
        JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Contains, 2),
                ij_query::Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn event_sweep_matches_other_kernels_on_cliques() {
        let q = clique3();
        for seed in 0..6 {
            let c = random_cands(3, 40, 100 + seed);
            let (_, mut es) = collect(|e| event_sweep_join(&q, &c, |_| true, |a| e(a)));
            let (_, mut bt) = collect(|e| backtrack_join(&q, &c, |_| true, |a| e(a)));
            let (_, mut sw) = collect(|e| sweep_join(&q, &c, |_| true, |a| e(a)));
            es.sort();
            bt.sort();
            sw.sort();
            assert!(!es.is_empty(), "workload too sparse");
            assert_eq!(es, bt, "event sweep != backtrack");
            assert_eq!(es, sw, "event sweep != dual-window sweep");
        }
    }

    #[test]
    fn event_sweep_reduce_join_reports_counters() {
        let q = clique3();
        let c = random_cands(3, 30, 5);
        let mut ctx = ReduceCtx::new(0);
        let rep = reduce_join(&mut ctx, &q, &c, |_| true, |_| {});
        assert_eq!(rep.kind, KernelKind::EventSweep);
        assert_eq!(ctx.counters().get("kernel.event_sweep_buckets"), 1);
        assert_eq!(ctx.counters().get("kernel.active_peak"), rep.active_peak);
        assert!(rep.active_peak > 0);
    }

    #[test]
    fn all_kernels_agree_on_every_chain_predicate() {
        for p in AllenPredicate::ALL {
            let q = JoinQuery::chain(&[p]).unwrap();
            let c = random_cands(2, 40, 7 + p as u64);
            let (_, mut bt) = collect(|e| backtrack_join(&q, &c, |_| true, |a| e(a)));
            let (_, mut sw) = collect(|e| sweep_join(&q, &c, |_| true, |a| e(a)));
            let (_, mut mg) = collect(|e| merge_join(&q, &c, |_| true, |a| e(a)));
            bt.sort();
            sw.sort();
            mg.sort();
            assert_eq!(bt, sw, "{p}: sweep != backtrack");
            assert_eq!(bt, mg, "{p}: merge != backtrack");
        }
    }

    #[test]
    fn empty_bucket_reports_zero() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut c = Candidates::new(2);
        c.push(0, iv(0, 5), 0);
        c.finish();
        let rep = execute(&q, &c, |_| true, |_| panic!("no outputs"));
        assert_eq!(rep.work, 0);
        assert_eq!(rep.kind, KernelKind::Sweep);
    }

    #[test]
    fn reduce_join_reports_work_and_counters() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let c = random_cands(2, 30, 3);
        let mut ctx = ReduceCtx::new(0);
        let rep = reduce_join(&mut ctx, &q, &c, |_| true, |_| {});
        assert_eq!(ctx.work(), rep.work);
        assert_eq!(ctx.counters().get("kernel.sweep_buckets"), 1);
    }
}
