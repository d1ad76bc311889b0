//! The RCCIS replication-marking computation run by first-cycle reducers.
//!
//! Reducer `p` receives all intervals intersecting partition `p` (one split
//! copy each) and must find `uS_p`: the union of all interval-sets that
//! satisfy C1 (consistent) and C2 (cross `p`). It then flags the members of
//! `uS_p` that *start* in `p`.
//!
//! ## Enumeration strategy
//!
//! A crossing set never needs relations from two different *connected
//! pieces* of the query graph: if the set's relation-set is disconnected,
//! the crossing conditions factor per piece, so the union over connected
//! relation-subsets already yields `uS_p`. The enumeration therefore:
//!
//! 1. enumerates the connected relation-subsets of the query graph (for the
//!    paper's chain queries these are the `O(m²)` contiguous ranges);
//! 2. for each subset, backtracks over its relations in BFS order, using
//!    the same start-point windows as the join executor, checking pairwise
//!    consistency incrementally;
//! 3. at each complete assignment, checks the crossing conditions (B1/B2)
//!    and marks the assigned intervals that start in `p`.

use crate::executor::{tighten_lower, tighten_upper, window};
use ij_interval::{Interval, PartitionIndex, Partitioning, TupleId};
use ij_query::{crosses_partition, JoinQuery};
use std::ops::Bound;

/// Per-relation inputs for one marking reducer: intervals intersecting the
/// partition, each with its tuple id, sorted by start by [`mark`].
pub type PerRelation = Vec<Vec<(Interval, TupleId)>>;

/// Runs the marking for partition `p`: returns, per relation, a flag per
/// input interval (parallel to the *sorted* list also returned), plus the
/// work units expended. Only intervals whose start point lies in `p` can be
/// flagged.
pub struct Marking {
    /// Sorted candidate lists, per relation.
    pub sorted: PerRelation,
    /// `flags[r][i]` — whether `sorted[r][i]` is to be replicated.
    pub flags: Vec<Vec<bool>>,
    /// Candidates examined (reported to the cost model).
    pub work: u64,
}

/// Options for [`mark_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct MarkOptions {
    /// Enforce condition C2 (the set must *cross* the partition). Turning
    /// this off is the paper-motivated ablation: every interval belonging
    /// to any consistent set gets replicated, quantifying how much the
    /// crossing condition saves (DESIGN.md §8).
    pub enforce_crossing: bool,
}

impl Default for MarkOptions {
    fn default() -> Self {
        MarkOptions {
            enforce_crossing: true,
        }
    }
}

/// Computes the marking (see module docs).
pub fn mark(
    q: &JoinQuery,
    part: &Partitioning,
    p: PartitionIndex,
    per_rel: PerRelation,
) -> Marking {
    mark_with_options(q, part, p, per_rel, MarkOptions::default())
}

/// [`mark`] with explicit [`MarkOptions`].
pub fn mark_with_options(
    q: &JoinQuery,
    part: &Partitioning,
    p: PartitionIndex,
    mut per_rel: PerRelation,
    opts: MarkOptions,
) -> Marking {
    let m = q.num_relations() as usize;
    assert_eq!(per_rel.len(), m);
    assert!(m <= 16, "marking enumerates relation subsets; m <= 16");
    for l in &mut per_rel {
        l.sort_unstable_by_key(|(iv, tid)| (iv.start(), *tid));
    }
    let mut flags: Vec<Vec<bool>> = per_rel.iter().map(|l| vec![false; l.len()]).collect();
    let mut work = 0u64;

    let full_mask = (1u32 << m) - 1;
    for subset in connected_subsets(q) {
        if opts.enforce_crossing && subset == full_mask {
            // A set covering every relation is an output tuple, never a
            // crossing set (Section 6.1) — skip the whole enumeration.
            continue;
        }
        let order = bfs_order(q, subset);
        let constraints = if opts.enforce_crossing {
            boundary_constraints(q, subset)
        } else {
            vec![BoundaryNeed::default(); m]
        };
        let mut assign: Vec<Option<(Interval, usize)>> = vec![None; m];
        enumerate(
            q,
            part,
            p,
            &per_rel,
            &order,
            &constraints,
            opts.enforce_crossing,
            0,
            &mut assign,
            &mut flags,
            &mut work,
        );
    }

    Marking {
        sorted: per_rel,
        flags,
        work,
    }
}

/// All subsets of relations (as bitmasks) that are connected in the join
/// graph, in ascending mask order. Singletons are connected.
fn connected_subsets(q: &JoinQuery) -> Vec<u32> {
    let m = q.num_relations() as usize;
    let mut adj = vec![0u32; m];
    for c in q.conditions() {
        adj[c.left.rel.idx()] |= 1 << c.right.rel.idx();
        adj[c.right.rel.idx()] |= 1 << c.left.rel.idx();
    }
    (1u32..(1 << m))
        .filter(|&mask| {
            // Flood fill from the lowest set bit.
            let start = mask.trailing_zeros();
            let mut seen = 1u32 << start;
            loop {
                let mut grew = false;
                for (r, &nbrs) in adj.iter().enumerate() {
                    if seen & (1 << r) != 0 {
                        let add = nbrs & mask & !seen;
                        if add != 0 {
                            seen |= add;
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            seen == mask
        })
        .collect()
}

/// BFS order over the relations of `mask` (every later relation has a bound
/// neighbor within the subset, enabling window pruning).
fn bfs_order(q: &JoinQuery, mask: u32) -> Vec<usize> {
    let m = q.num_relations() as usize;
    let mut adj = vec![Vec::new(); m];
    for c in q.conditions() {
        adj[c.left.rel.idx()].push(c.right.rel.idx());
        adj[c.right.rel.idx()].push(c.left.rel.idx());
    }
    let mut order = Vec::new();
    let mut placed = 0u32;
    while (placed & mask) != mask {
        let next = (0..m)
            .filter(|&r| mask & (1 << r) != 0 && placed & (1 << r) == 0)
            .find(|&r| order.is_empty() || adj[r].iter().any(|&n| placed & (1 << n) != 0))
            .unwrap_or_else(|| {
                (0..m)
                    .find(|&r| mask & (1 << r) != 0 && placed & (1 << r) == 0)
                    .expect("unplaced relation exists")
            });
        placed |= 1 << next;
        order.push(next);
    }
    order
}

/// Per-relation boundary requirements of a subset (conditions B1/B2): for
/// every query edge with exactly one endpoint inside `mask`, the in-set
/// member must cross the right boundary if it is the lesser relation, the
/// left boundary otherwise. Knowing these *before* enumerating lets the
/// search reject candidates immediately instead of materializing every
/// consistent set and testing crossing at the leaf — this is what makes
/// the marking cheap relative to the join itself.
fn boundary_constraints(q: &JoinQuery, mask: u32) -> Vec<BoundaryNeed> {
    let m = q.num_relations() as usize;
    let mut needs = vec![BoundaryNeed::default(); m];
    for c in q.conditions() {
        let l_in = mask & (1 << c.left.rel.idx()) != 0;
        let r_in = mask & (1 << c.right.rel.idx()) != 0;
        let member = match (l_in, r_in) {
            (true, false) => c.left,
            (false, true) => c.right,
            _ => continue,
        };
        if c.lesser() == member {
            needs[member.rel.idx()].right = true;
        } else {
            needs[member.rel.idx()].left = true;
        }
    }
    needs
}

/// Whether a subset member must cross the partition's boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct BoundaryNeed {
    left: bool,
    right: bool,
}

impl BoundaryNeed {
    fn satisfied(self, part: &Partitioning, p: PartitionIndex, iv: Interval) -> bool {
        (!self.left || part.crosses_left(iv, p)) && (!self.right || part.crosses_right(iv, p))
    }
}

#[allow(
    clippy::too_many_arguments,
    clippy::only_used_in_recursion,
    reason = "the recursive enumeration carries its whole state as arguments"
)]
fn enumerate(
    q: &JoinQuery,
    part: &Partitioning,
    p: PartitionIndex,
    per_rel: &PerRelation,
    order: &[usize],
    constraints: &[BoundaryNeed],
    enforce_crossing: bool,
    level: usize,
    assign: &mut Vec<Option<(Interval, usize)>>,
    flags: &mut [Vec<bool>],
    work: &mut u64,
) {
    if level == order.len() {
        // With crossing enforced, the boundary constraints were applied per
        // candidate and inputs intersect p by construction (split routing),
        // so the set crosses.
        debug_assert!(
            !enforce_crossing || {
                let ivs: Vec<Option<Interval>> =
                    assign.iter().map(|a| a.map(|(iv, _)| iv)).collect();
                crosses_partition(q, part, p, &ivs)
            }
        );
        for &r in order {
            let (iv, idx) = assign[r].expect("assigned");
            if part.index_of(iv.start()) == p {
                flags[r][idx] = true;
            }
        }
        return;
    }
    let rel = order[level];
    // Start-point window from bound neighbors.
    let mut lo = Bound::Unbounded;
    let mut hi = Bound::Unbounded;
    let mut neighbor_conds: Vec<&ij_query::Condition> = Vec::new();
    for c in q.conditions_of(ij_interval::RelId(rel as u16)) {
        let (other, pred_right) = if c.left.rel.idx() == rel {
            (c.right.rel.idx(), c.pred.inverse())
        } else {
            (c.left.rel.idx(), c.pred)
        };
        if let Some((other_iv, _)) = assign[other] {
            let (l, h) = pred_right.right_start_bounds(other_iv);
            lo = tighten_lower(lo, l);
            hi = tighten_upper(hi, h);
            neighbor_conds.push(c);
        }
    }
    let list = &per_rel[rel];
    let (from, to) = window(list, lo, hi);
    *work += (to - from) as u64;
    'cands: for (offset, &(iv, _tid)) in list[from..to].iter().enumerate() {
        if !constraints[rel].satisfied(part, p, iv) {
            continue;
        }
        for c in &neighbor_conds {
            let ok = if c.left.rel.idx() == rel {
                c.pred
                    .holds(iv, assign[c.right.rel.idx()].expect("bound").0)
            } else {
                c.pred.holds(assign[c.left.rel.idx()].expect("bound").0, iv)
            };
            if !ok {
                continue 'cands;
            }
        }
        assign[rel] = Some((iv, from + offset));
        enumerate(
            q,
            part,
            p,
            per_rel,
            order,
            constraints,
            enforce_crossing,
            level + 1,
            assign,
            flags,
            work,
        );
    }
    assign[rel] = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn connected_subsets_of_a_chain_are_ranges() {
        // Chain R1-R2-R3: connected subsets are the 6 contiguous ranges.
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let subs = connected_subsets(&q);
        assert_eq!(subs, vec![0b001, 0b010, 0b011, 0b100, 0b110, 0b111]);
    }

    #[test]
    fn connected_subsets_of_a_star() {
        // Star R1-R2, R1-R3: {R2,R3} alone is NOT connected.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let subs = connected_subsets(&q);
        assert!(!subs.contains(&0b110));
        assert!(subs.contains(&0b111));
        assert_eq!(subs.len(), 6);
    }

    /// A hand-verified Q0 marking at partition p = [10, 20):
    ///
    /// * R1 `(12,15)`: in no consistent crossing set (does not cross right
    ///   alone, does not overlap the only R2 interval) → unflagged;
    /// * R1 `(14,23)`: crosses right alone (B1 for `R1 ov R2`) → flagged;
    /// * R2 `(16,29)`: `{u=(14,23), v}` is consistent, and v crossing right
    ///   satisfies B1 for `R2 contains R3` → flagged;
    /// * R3 `(17,25)`: `{u, v, w}` is consistent and w crossing right
    ///   satisfies B1 for `R3 ov R4` → flagged (note `{v, w}` alone does NOT
    ///   cross: B2 for `R1 ov R2` needs v to cross left, and it does not).
    #[test]
    fn hand_verified_q0_marking() {
        let q = JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let marking = mark(
            &q,
            &part,
            1,
            vec![
                vec![(iv(12, 15), 0), (iv(14, 23), 1)],
                vec![(iv(16, 29), 0)],
                vec![(iv(17, 25), 0)],
                vec![],
            ],
        );
        assert_eq!(marking.flags[0], vec![false, true]);
        assert_eq!(marking.flags[1], vec![true]);
        assert_eq!(marking.flags[2], vec![true]);
        assert!(marking.work > 0);
    }

    #[test]
    fn nothing_flagged_when_no_set_crosses() {
        // Everything comfortably inside the partition: no crossing sets.
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let marking = mark(&q, &part, 0, vec![vec![(iv(1, 4), 0)], vec![(iv(2, 6), 0)]]);
        assert!(marking.flags.iter().flatten().all(|&f| !f));
    }

    #[test]
    fn singleton_set_can_cross() {
        // A lone R1 interval crossing right is a crossing set for
        // R1 overlaps R2 (B1 on the boundary edge).
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let marking = mark(&q, &part, 0, vec![vec![(iv(3, 15), 0)], vec![]]);
        assert_eq!(marking.flags[0], vec![true]);
    }

    #[test]
    fn only_intervals_starting_in_partition_flagged() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        // Both cross p1's right boundary but u starts in p0.
        let marking = mark(
            &q,
            &part,
            1,
            vec![vec![(iv(5, 25), 0), (iv(12, 25), 1)], vec![]],
        );
        let flags: Vec<bool> = marking.flags[0].clone();
        // sorted order: (5,25) then (12,25); only the latter starts in p1.
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    #[should_panic(expected = "m <= 16")]
    fn too_many_relations_rejected() {
        let preds = vec![Overlaps; 17];
        let q = JoinQuery::chain(&preds).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        mark(&q, &part, 0, vec![Vec::new(); 18]);
    }
}
