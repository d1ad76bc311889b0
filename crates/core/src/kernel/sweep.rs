//! Endpoint-sorted plane-sweep kernel for colocation condition sets.
//!
//! Two strategies, both driven by the exact range decomposition of
//! [`super::ranges`]:
//!
//! * **Pair sweep** (`m == 2`, single `overlaps`/`contains`-shaped
//!   condition): a genuine active-set plane sweep. Outer intervals are
//!   processed in end-point order; inner candidates whose end point can no
//!   longer satisfy the end range are *retired* from an alive list (a
//!   path-compressed next-pointer array over the start-sorted inner list,
//!   O(1) amortized deletion and skip). Every alive candidate inside the
//!   outer's start range is then an exact match — enumeration is
//!   output-linear, `O(n log n + output)` overall.
//!
//! * **Adaptive dual-window scan** (general colocation sets, any arity):
//!   each relation gets an end-sorted view next to its start-sorted list;
//!   at each binding level the intersected [`RangePair`] yields a start
//!   window *and* an end window, and the kernel scans whichever is
//!   narrower, filtering by the other range with a single comparison. For
//!   predicates like `overlaps` with long outer intervals the end window
//!   (`e2 > e1`) is often tiny while the start window (`s2 ∈ (s1, e1)`)
//!   is huge — exactly the case where the windowed backtracking path
//!   degrades.

use super::ranges::{range_pair, window_ends};
use super::scratch::with_scratch;
use super::{Compiled, Emit, RangePair};
use crate::executor::{window, Candidates};
use ij_interval::{bounds_contain, AllenPredicate, Interval, Time, TupleId};
use ij_query::JoinQuery;

/// Precomputed sweep structures for one bucket.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    /// Per-relation end-sorted views: `(end, index into the start-sorted
    /// list)`, sorted by `(end, index)`. Empty for the level-0 relation.
    ends: Vec<Vec<(Time, u32)>>,
    pair: Option<PairSweep>,
}

/// The specialized two-relation active-set sweep.
#[derive(Debug)]
struct PairSweep {
    outer_rel: usize,
    inner_rel: usize,
    /// `false` → `overlaps` shape (inner must outlive the outer: retire
    /// `e2 <= e1`, ends ascending); `true` → `contains` shape (inner must
    /// end inside the outer: retire `e2 >= e1`, ends descending).
    contains: bool,
    /// Outer list positions in processing order: ascending `(end, idx)`
    /// for `overlaps`, descending for `contains`.
    outer_order: Vec<u32>,
    /// Inner list positions sorted by ascending `(end, idx)` — the
    /// retirement schedule.
    inner_ends: Vec<(Time, u32)>,
}

fn end_view(list: &[(Interval, TupleId)]) -> Vec<(Time, u32)> {
    let mut v: Vec<(Time, u32)> = list
        .iter()
        .enumerate()
        .map(|(i, (iv, _))| (iv.end(), i as u32))
        .collect();
    v.sort_unstable();
    v
}

impl SweepPlan {
    pub(crate) fn new(q: &JoinQuery, cands: &Candidates, compiled: &Compiled) -> SweepPlan {
        // Pair fast path: two relations, one condition, oriented to an
        // `overlaps`/`contains` shape (binding_order places the provably
        // earlier-starting relation first, so the level-1 predicate is in
        // left-operand form for both families).
        if compiled.order.len() == 2 && q.conditions().len() == 1 {
            if let [(other, pred)] = compiled.checks[1][..] {
                if matches!(pred, AllenPredicate::Overlaps | AllenPredicate::Contains) {
                    let outer_rel = other;
                    let inner_rel = compiled.order[1];
                    let contains = pred == AllenPredicate::Contains;
                    let mut outer_order: Vec<u32> = {
                        let ends = end_view(cands.list(outer_rel));
                        ends.into_iter().map(|(_, i)| i).collect()
                    };
                    if contains {
                        outer_order.reverse();
                    }
                    return SweepPlan {
                        ends: Vec::new(),
                        pair: Some(PairSweep {
                            outer_rel,
                            inner_rel,
                            contains,
                            outer_order,
                            inner_ends: end_view(cands.list(inner_rel)),
                        }),
                    };
                }
            }
        }
        let m = q.num_relations() as usize;
        let ends = (0..m)
            .map(|r| {
                if r == compiled.order[0] {
                    Vec::new()
                } else {
                    end_view(cands.list(r))
                }
            })
            .collect();
        SweepPlan { ends, pair: None }
    }

    /// Runs the sweep over the whole bucket.
    pub(crate) fn run(
        &self,
        cands: &Candidates,
        compiled: &Compiled,
        emit: &mut Emit<'_>,
        work: &mut u64,
    ) {
        match &self.pair {
            Some(p) => p.run(cands, emit, work),
            None => self.run_multi(cands, compiled, emit, work),
        }
    }

    fn run_multi(
        &self,
        cands: &Candidates,
        compiled: &Compiled,
        emit: &mut Emit<'_>,
        work: &mut u64,
    ) {
        let rel0 = compiled.order[0];
        let list0 = cands.list(rel0);
        with_scratch(|s| {
            let assignment = s.reset_assignment(compiled.order.len());
            *work += list0.len() as u64;
            for &(iv, tid) in list0 {
                assignment[rel0] = (iv, tid);
                self.descend(cands, compiled, 1, assignment, emit, work);
            }
        });
    }

    fn descend(
        &self,
        cands: &Candidates,
        compiled: &Compiled,
        level: usize,
        assignment: &mut Vec<(Interval, TupleId)>,
        emit: &mut Emit<'_>,
        work: &mut u64,
    ) {
        if level == compiled.order.len() {
            emit(assignment);
            return;
        }
        let rel = compiled.order[level];
        let mut rp = RangePair::full();
        for &(other, pred) in &compiled.checks[level] {
            rp.intersect(&range_pair(pred, assignment[other].0));
        }
        let list = cands.list(rel);
        let ends = &self.ends[rel];
        let (sfrom, sto) = window(list, rp.start.0, rp.start.1);
        let (efrom, eto) = window_ends(ends, rp.end.0, rp.end.1);
        // Scan the narrower window, filter by the other range — exact
        // either way, no `holds` re-check.
        if eto - efrom < sto - sfrom {
            *work += (eto - efrom) as u64;
            for &(_, idx) in &ends[efrom..eto] {
                let (iv, tid) = list[idx as usize];
                if bounds_contain(rp.start, iv.start()) {
                    assignment[rel] = (iv, tid);
                    self.descend(cands, compiled, level + 1, assignment, emit, work);
                }
            }
        } else {
            *work += (sto - sfrom) as u64;
            for &(iv, tid) in &list[sfrom..sto] {
                if bounds_contain(rp.end, iv.end()) {
                    assignment[rel] = (iv, tid);
                    self.descend(cands, compiled, level + 1, assignment, emit, work);
                }
            }
        }
    }
}

/// First alive position `>= i` in the retirement array (path-halving find;
/// `next[i] == i` means alive, the last slot is a sentinel).
#[inline]
fn find(next: &mut [u32], mut i: usize) -> usize {
    while next[i] as usize != i {
        let p = next[i] as usize;
        next[i] = next[p];
        i = next[i] as usize;
    }
    i
}

impl PairSweep {
    fn run(&self, cands: &Candidates, emit: &mut Emit<'_>, work: &mut u64) {
        let outer_list = cands.list(self.outer_rel);
        let inner_list = cands.list(self.inner_rel);
        let n = inner_list.len();
        with_scratch(|s| {
            s.reset_assignment(2);
            let super::scratch::Scratch {
                assignment, next, ..
            } = s;
            // Alive structure over the start-sorted inner list; retirement
            // is monotone along the outer order.
            next.clear();
            next.extend(0..=n as u32);
            let mut retire = if self.contains { n } else { 0 };
            for &oi in &self.outer_order {
                let (o_iv, o_tid) = outer_list[oi as usize];
                let (s1, e1) = (o_iv.start(), o_iv.end());
                *work += 1;
                assignment[self.outer_rel] = (o_iv, o_tid);
                if self.contains {
                    // Alive ⇔ e2 < e1 (outer ends descending ⇒ retire from
                    // the top of the end order). Every alive inner with
                    // s2 > s1 is a match: s2 <= e2 < e1 holds automatically.
                    while retire > 0 && self.inner_ends[retire - 1].0 >= e1 {
                        retire -= 1;
                        let victim = self.inner_ends[retire].1 as usize;
                        next[victim] = victim as u32 + 1;
                    }
                    let from = inner_list.partition_point(|(iv, _)| iv.start() <= s1);
                    let mut j = find(next, from);
                    while j < n {
                        *work += 1;
                        assignment[self.inner_rel] = inner_list[j];
                        emit(assignment);
                        j = find(next, j + 1);
                    }
                } else {
                    // Alive ⇔ e2 > e1 (outer ends ascending ⇒ retire from
                    // the bottom). Every alive inner with s2 ∈ (s1, e1) is
                    // a match.
                    while retire < n && self.inner_ends[retire].0 <= e1 {
                        let victim = self.inner_ends[retire].1 as usize;
                        next[victim] = victim as u32 + 1;
                        retire += 1;
                    }
                    let from = inner_list.partition_point(|(iv, _)| iv.start() <= s1);
                    let mut j = find(next, from);
                    while j < n && inner_list[j].0.start() < e1 {
                        *work += 1;
                        assignment[self.inner_rel] = inner_list[j];
                        emit(assignment);
                        j = find(next, j + 1);
                    }
                }
            }
        });
    }
}
