//! Sort-merge path for sequence-class (before/after) condition sets.
//!
//! Sequence predicates decompose into *half-open* endpoint ranges
//! (`before` is just `s2 > e1`), so on the start-sorted candidate lists a
//! level's window is a single suffix or prefix and every candidate whose
//! end point passes the (usually unbounded) end range is a match — a merge
//! join with no per-candidate `holds` re-check. The same code is exact for
//! arbitrary condition sets via [`super::ranges::range_pair`]; dispatch
//! routes only sequence-class queries here because the sweep kernel has
//! the better access pattern for colocation windows.

use super::scratch::with_scratch;
use super::Compiled;
use super::{ranges::range_pair, Emit, RangePair};
use crate::executor::{window, Candidates};
use ij_interval::{bounds_contain, Interval, TupleId};

/// Runs the merge join over the whole bucket.
pub(crate) fn run(cands: &Candidates, compiled: &Compiled, emit: &mut Emit<'_>, work: &mut u64) {
    let rel0 = compiled.order[0];
    let list0 = cands.list(rel0);
    with_scratch(|s| {
        let assignment = s.reset_assignment(compiled.order.len());
        *work += list0.len() as u64;
        for &(iv, tid) in list0 {
            assignment[rel0] = (iv, tid);
            descend(cands, compiled, 1, assignment, emit, work);
        }
    });
}

fn descend(
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
    let (from, to) = window(list, rp.start.0, rp.start.1);
    *work += (to - from) as u64;
    for &(iv, tid) in &list[from..to] {
        // Start membership is the window itself; the end range is the whole
        // remaining constraint — no `holds` re-check.
        if bounds_contain(rp.end, iv.end()) {
            assignment[rel] = (iv, tid);
            descend(cands, compiled, level + 1, assignment, emit, work);
        }
    }
}
