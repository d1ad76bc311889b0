//! The windowed backtracking fallback — the original `join_single_attr`
//! scan, kept semantically identical.
//!
//! Each level binary-searches the start window compatible with the bound
//! neighbors (via [`ij_interval::AllenPredicate::right_start_bounds`]) and
//! re-checks every condition with [`ij_interval::AllenPredicate::holds`]
//! per candidate. This handles arbitrary Allen mixes and is the dispatch
//! fallback for hybrid condition sets; the sweep and sort-merge kernels
//! beat it on the pure predicate classes by replacing the `holds` re-check
//! with exact endpoint ranges (see [`super::ranges`]).

use super::scratch::with_scratch;
use super::{Compiled, Emit};
use crate::executor::{tighten_lower, tighten_upper, window, Candidates};
use ij_interval::{Interval, TupleId};
use std::ops::Bound;

/// Runs the backtracking join over the whole bucket.
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
    let checks = &compiled.checks[level];
    // Window bounds from every condition to an already-bound neighbor.
    let mut lo = Bound::Unbounded;
    let mut hi = Bound::Unbounded;
    for &(other, pred) in checks {
        let (l, h) = pred.right_start_bounds(assignment[other].0);
        lo = tighten_lower(lo, l);
        hi = tighten_upper(hi, h);
    }
    let list = cands.list(rel);
    let (from, to) = window(list, lo, hi);
    *work += (to - from) as u64;
    'candidates: for &(iv, tid) in &list[from..to] {
        // Full predicate check against all bound neighbors.
        for &(other, pred) in checks {
            if !pred.holds(assignment[other].0, iv) {
                continue 'candidates;
            }
        }
        assignment[rel] = (iv, tid);
        descend(cands, compiled, level + 1, assignment, emit, work);
    }
}
