//! The windowed backtracking fallback — the original `join_single_attr`
//! scan.
//!
//! Each level binary-searches the start window compatible with the bound
//! neighbors (via [`ij_interval::AllenPredicate::right_start_bounds`])
//! and the reducer's owner bounds, and re-checks every condition with
//! [`ij_interval::AllenPredicate::holds`] per candidate. Counting, the
//! last level first asks the exact endpoint ranges (see
//! [`super::ranges`]) whether they cover the whole window — as for a
//! *before* leaf — and then adds its width without a check per match.
//! This handles arbitrary Allen mixes and is the dispatch fallback for
//! hybrid condition sets; the sweep and sort-merge kernels beat it on the
//! pure predicate classes by replacing the `holds` re-check with the
//! exact ranges at every level.

use super::ranges::range_pair;
use super::scratch::with_scratch;
use super::{Compiled, RangePair, Sink};
use crate::executor::{tighten_lower, tighten_upper, window, Candidates};
use ij_interval::{Interval, TupleId};

/// Runs the backtracking join over the whole bucket.
pub(crate) fn run(cands: &Candidates, compiled: &Compiled, sink: &mut Sink<'_>, work: &mut u64) {
    with_scratch(|s| {
        let assignment = s.reset_assignment(compiled.order.len());
        descend(cands, compiled, 0, assignment, sink, work);
    });
}

fn descend(
    cands: &Candidates,
    compiled: &Compiled,
    level: usize,
    assignment: &mut Vec<(Interval, TupleId)>,
    sink: &mut Sink<'_>,
    work: &mut u64,
) {
    let rel = compiled.order[level];
    let checks = &compiled.checks[level];
    // Window bounds from the owner and every condition to an
    // already-bound neighbor.
    let (mut lo, mut hi) = compiled.owner.bounds(level, assignment);
    for &(other, pred) in checks {
        let (l, h) = pred.right_start_bounds(assignment[other].0);
        lo = tighten_lower(lo, l);
        hi = tighten_upper(hi, h);
    }
    let list = cands.list(rel);
    let (from, to) = window(list, lo, hi);
    *work += (to - from) as u64;
    let candidates = &list[from..to];
    if level + 1 == compiled.order.len() {
        if let Sink::Count(n) = sink {
            // A count takes the window whole when the exact ranges cover it.
            let mut rp = RangePair::full();
            for &(other, pred) in checks {
                rp.intersect(&range_pair(pred, assignment[other].0));
            }
            if rp.covers((lo, hi)) {
                **n += candidates.len() as u64;
                return;
            }
        }
        for &b in candidates {
            if checks
                .iter()
                .all(|&(other, pred)| pred.holds(assignment[other].0, b.0))
            {
                sink.hit(assignment, rel, b);
            }
        }
        return;
    }
    'candidates: for &(iv, tid) in candidates {
        // Full predicate check against all bound neighbors.
        for &(other, pred) in checks {
            if !pred.holds(assignment[other].0, iv) {
                continue 'candidates;
            }
        }
        assignment[rel] = (iv, tid);
        descend(cands, compiled, level + 1, assignment, sink, work);
    }
}
