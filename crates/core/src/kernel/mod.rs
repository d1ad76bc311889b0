//! Predicate-specialized reduce-side join kernels.
//!
//! Every reducer of every single-attribute algorithm funnels into
//! [`execute`] (via [`reduce_into`], [`reduce_join`] or
//! `executor::join_single_attr`): the
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
//! sets. The entry points take a [`SingleAttr`]
//! proof, so no other query reaches them.
//!
//! **One serial call per bucket.** Each reduce worker runs its bucket's
//! kernel on its own thread, like a Hadoop reduce task; parallelism comes
//! only from the engine running several reducers at once.
//!
//! **Declarative owner and sink.** A reducer's duplicate-elimination rule
//! arrives as an [`Owner`]: groups of relations whose greatest start must
//! lie in the reducer's partition. Every kernel applies it as start-window
//! bounds at each binding level, so exactly the owned bindings are
//! enumerated. The [`Sink`] says what happens to them: [`Sink::Emit`]
//! calls back per binding in the kernel's fixed order, [`Sink::Count`]
//! lets the last level add its matches without building them — a window
//! whose ranges imply every member (a *before* leaf) counts as its width.
//! [`reduce_into`] is the step every algorithm's reducer takes: it runs
//! the kernel in the reducer's `OutputMode` and writes the records.
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
mod owner;
mod ranges;
mod scratch;
mod sort_merge;
mod sweep;

pub use owner::Owner;
pub use ranges::{range_pair, RangePair};

use crate::algorithm::SingleAttr;
use crate::executor::Candidates;
use crate::output::OutputMode;
use crate::records::OutRec;
use ij_interval::{bounds_contain, AllenPredicate, Interval, TupleId};
use ij_mapreduce::metrics::names::{self, Name};
use ij_mapreduce::ReduceCtx;
use ij_query::{JoinQuery, QueryClass};
use owner::OwnerPlan;

/// A binding callback: one `(interval, tuple)` slot per relation, in
/// query order.
pub type EmitFn<'a> = dyn FnMut(&[(Interval, TupleId)]) + 'a;

/// Where a kernel delivers its complete bindings.
pub enum Sink<'a> {
    /// Adds the number of bindings. The last binding level counts its
    /// matches without building an assignment or calling back.
    Count(&'a mut u64),
    /// Calls back once per binding.
    Emit(&'a mut EmitFn<'a>),
}

impl Sink<'_> {
    /// Delivers one binding: `assignment` completed by `b` in slot `rel`.
    #[inline]
    pub(crate) fn hit(
        &mut self,
        assignment: &mut [(Interval, TupleId)],
        rel: usize,
        b: (Interval, TupleId),
    ) {
        match self {
            Sink::Count(n) => **n += 1,
            Sink::Emit(f) => {
                assignment[rel] = b;
                f(assignment)
            }
        }
    }
}

/// The last binding level over a start window: `window` holds relation
/// `rel`'s candidates inside `rp`'s start range, and the ones inside its
/// end range complete a binding. With [`Sink::Count`] and an end range
/// the start range already implies, the count is the window's width.
fn leaf(
    sink: &mut Sink<'_>,
    assignment: &mut [(Interval, TupleId)],
    rel: usize,
    window: &[(Interval, TupleId)],
    rp: &RangePair,
) {
    if let Sink::Count(n) = sink {
        if rp.covers(rp.start) {
            **n += window.len() as u64;
            return;
        }
    }
    for &b in window {
        if bounds_contain(rp.end, b.0.end()) {
            sink.hit(assignment, rel, b);
        }
    }
}

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
    /// The per-bucket user counter this kernel increments.
    pub fn counter(self) -> Name {
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

/// The strategy [`execute`] will route `q`'s buckets to. The mapping
/// depends only on the condition set.
pub fn planned_kernel(q: SingleAttr<'_>) -> KernelStrategy {
    match choose(&q) {
        KernelKind::EventSweep => KernelStrategy::EventSweep,
        KernelKind::SortMerge => KernelStrategy::SortMerge,
        KernelKind::Backtrack => KernelStrategy::Backtrack,
        KernelKind::Sweep => {
            if pair_sweep_eligible(&q) {
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
/// [`ranges::range_pair`]`(pred, other)`. `owner` holds the start bounds
/// each level adds for the reducer's [`Owner`].
pub(crate) struct Compiled {
    pub(crate) order: Vec<usize>,
    pub(crate) checks: Vec<Vec<(usize, AllenPredicate)>>,
    pub(crate) owner: OwnerPlan,
}

impl Compiled {
    fn new(q: &JoinQuery, list_len: impl Fn(usize) -> usize, owner: &Owner) -> Compiled {
        let order = crate::executor::binding_order(q, list_len);
        let checks = level_checks(q, &order);
        let owner = OwnerPlan::new(owner, &order);
        Compiled {
            order,
            checks,
            owner,
        }
    }
}

/// Each condition, checked at the level where its later-bound endpoint
/// binds, oriented so the candidate is the right operand.
fn level_checks(q: &JoinQuery, order: &[usize]) -> Vec<Vec<(usize, AllenPredicate)>> {
    let m = q.num_relations() as usize;
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
    checks
}

/// Runs `kind` over the whole bucket, enumerating only the bindings
/// `owner` admits into `sink`; returns `(work, active_peak)`.
fn run(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &Candidates,
    owner: &Owner,
    mut sink: Sink<'_>,
) -> (u64, u64) {
    assert!(
        cands.is_sorted(),
        "Candidates::finish must be called before joining"
    );
    if cands.any_empty() {
        return (0, 0);
    }
    let compiled = Compiled::new(q, |r| cands.len(r), owner);
    let mut work = 0u64;
    let mut active_peak = 0u64;
    let sink = &mut sink;
    match kind {
        KernelKind::Backtrack => backtrack::run(cands, &compiled, sink, &mut work),
        KernelKind::SortMerge => sort_merge::run(cands, &compiled, sink, &mut work),
        KernelKind::Sweep => {
            sweep::SweepPlan::new(q, cands, &compiled).run(cands, &compiled, sink, &mut work)
        }
        KernelKind::EventSweep => event_sweep::EventSweepPlan::new(q, cands, owner).run(
            cands,
            sink,
            &mut work,
            &mut active_peak,
        ),
    }
    (work, active_peak)
}

/// Dispatching kernel execution: routes colocation condition sets to the
/// sweep, sequence sets to sort-merge and mixed Allen sets to the
/// backtracking fallback.
///
/// Only the bindings `owner` admits are enumerated: its groups are start
/// bounds inside every kernel's windows, not a filter on finished
/// bindings. `executor::join_single_attr` delegates here.
pub fn execute(
    q: SingleAttr<'_>,
    cands: &Candidates,
    owner: &Owner,
    sink: Sink<'_>,
) -> KernelReport {
    let kind = choose(&q);
    let (work, active_peak) = run(kind, &q, cands, owner, sink);
    KernelReport {
        kind,
        work,
        active_peak,
    }
}

/// Runs a bucket inside a reducer: executes the dispatching kernel,
/// reports the work units to the cost model and maintains the
/// `kernel.*` counters. The dispatcher picks the kernel by predicate
/// class.
pub fn reduce_join(
    ctx: &mut ReduceCtx,
    q: SingleAttr<'_>,
    cands: &Candidates,
    owner: &Owner,
    sink: Sink<'_>,
) -> KernelReport {
    let rep = execute(q, cands, owner, sink);
    ctx.add_work(rep.work);
    ctx.inc(rep.kind.counter(), 1);
    if rep.active_peak > 0 {
        // Execution-shape counter (see `Name::is_execution_shape`):
        // the event sweep's peak concurrent-interval count. The engine
        // also records the per-bucket values into the `kernel.active_peak`
        // histogram.
        ctx.inc(names::KERNEL_ACTIVE_PEAK, rep.active_peak);
    }
    rep
}

/// A reducer's whole join step: runs [`reduce_join`] in `mode` and writes
/// the owned bindings to `out` — one `OutRec::Tuple` each when
/// materializing, a single `OutRec::Count` when counting (none for an
/// empty bucket). Records `join.candidates` (the kernel's work units) and
/// `join.emitted`, identical in both modes. The dispatcher picks the
/// kernel by predicate class.
pub fn reduce_into(
    ctx: &mut ReduceCtx,
    q: SingleAttr<'_>,
    cands: &Candidates,
    owner: &Owner,
    mode: OutputMode,
    out: &mut Vec<OutRec>,
) {
    let mut count = 0u64;
    let rep = match mode {
        OutputMode::Count => reduce_join(ctx, q, cands, owner, Sink::Count(&mut count)),
        OutputMode::Materialize => {
            let emit = &mut |a: &[(Interval, TupleId)]| {
                count += 1;
                out.push(OutRec::Tuple(a.iter().map(|(_, t)| *t).collect()));
            };
            reduce_join(ctx, q, cands, owner, Sink::Emit(emit))
        }
    };
    ctx.inc(names::JOIN_CANDIDATES, rep.work);
    ctx.inc(names::JOIN_EMITTED, count);
    if mode == OutputMode::Count && count > 0 {
        out.push(OutRec::Count(count));
    }
}

/// Forces the plane-sweep kernel (complete for any single-attribute
/// query); returns work units. Used by benchmarks and equivalence tests.
pub fn sweep_join(q: SingleAttr<'_>, cands: &Candidates, owner: &Owner, sink: Sink<'_>) -> u64 {
    run(KernelKind::Sweep, &q, cands, owner, sink).0
}

/// Forces the event-list sweep (complete only for colocation condition
/// sets whose relation pairs all provably intersect — see
/// `event_sweep::qualifies`); non-qualifying queries fall back to the
/// plane sweep, which is complete for any single-attribute query.
/// Returns work units. Used by benchmarks and equivalence tests.
pub fn event_sweep_join(
    q: SingleAttr<'_>,
    cands: &Candidates,
    owner: &Owner,
    sink: Sink<'_>,
) -> u64 {
    let kind = if event_sweep::qualifies(&q) {
        KernelKind::EventSweep
    } else {
        KernelKind::Sweep
    };
    run(kind, &q, cands, owner, sink).0
}

/// Forces the sort-merge kernel (complete for any single-attribute
/// query); returns work units.
pub fn merge_join(q: SingleAttr<'_>, cands: &Candidates, owner: &Owner, sink: Sink<'_>) -> u64 {
    run(KernelKind::SortMerge, &q, cands, owner, sink).0
}

/// Forces the windowed backtracking fallback (the pre-kernel
/// `join_single_attr` semantics, complete for any single-attribute
/// query including mixed Allen condition sets); returns work units.
pub fn backtrack_join(q: SingleAttr<'_>, cands: &Candidates, owner: &Owner, sink: Sink<'_>) -> u64 {
    run(KernelKind::Backtrack, &q, cands, owner, sink).0
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

    /// The single-attribute proof for a test query.
    fn sa(q: &JoinQuery) -> SingleAttr<'_> {
        SingleAttr::new(q).unwrap()
    }

    type Forced = fn(SingleAttr<'_>, &Candidates, &Owner, Sink<'_>) -> u64;

    /// Sorted bindings from `kernel` with no owner.
    fn collect(kernel: Forced, q: &JoinQuery, c: &Candidates) -> Vec<Vec<TupleId>> {
        let mut got = Vec::new();
        let emit = &mut |a: &[(Interval, TupleId)]| {
            got.push(a.iter().map(|(_, t)| *t).collect::<Vec<_>>())
        };
        kernel(sa(q), c, &Owner::all(), Sink::Emit(emit));
        got.sort();
        got
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
        assert_eq!(planned_kernel(sa(&pair)), KernelStrategy::PairSweep);
        assert_eq!(planned_kernel(sa(&coloc)), KernelStrategy::DualWindow);
        assert_eq!(planned_kernel(sa(&clique)), KernelStrategy::EventSweep);
        assert_eq!(planned_kernel(sa(&seq)), KernelStrategy::SortMerge);
        assert_eq!(planned_kernel(sa(&mixed)), KernelStrategy::Backtrack);
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
            let es = collect(event_sweep_join, &q, &c);
            let bt = collect(backtrack_join, &q, &c);
            let sw = collect(sweep_join, &q, &c);
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
        let rep = reduce_join(&mut ctx, sa(&q), &c, &Owner::all(), Sink::Count(&mut 0));
        assert_eq!(rep.kind, KernelKind::EventSweep);
        assert_eq!(ctx.counters().get(names::KERNEL_EVENT_SWEEP_BUCKETS), 1);
        assert_eq!(
            ctx.counters().get(names::KERNEL_ACTIVE_PEAK),
            rep.active_peak
        );
        assert!(rep.active_peak > 0);
    }

    #[test]
    fn all_kernels_agree_on_every_chain_predicate() {
        for p in AllenPredicate::ALL {
            let q = JoinQuery::chain(&[p]).unwrap();
            let c = random_cands(2, 40, 7 + p as u64);
            let bt = collect(backtrack_join, &q, &c);
            let sw = collect(sweep_join, &q, &c);
            let mg = collect(merge_join, &q, &c);
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
        let mut n = 0;
        let rep = execute(sa(&q), &c, &Owner::all(), Sink::Count(&mut n));
        assert_eq!(n, 0);
        assert_eq!(rep.work, 0);
        assert_eq!(rep.kind, KernelKind::Sweep);
    }

    #[test]
    fn reduce_join_reports_work_and_counters() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let c = random_cands(2, 30, 3);
        let mut ctx = ReduceCtx::new(0);
        let rep = reduce_join(&mut ctx, sa(&q), &c, &Owner::all(), Sink::Count(&mut 0));
        assert_eq!(ctx.work(), rep.work);
        assert_eq!(ctx.counters().get(names::KERNEL_SWEEP_BUCKETS), 1);
    }
}
