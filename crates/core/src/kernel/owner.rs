//! Reducer ownership as start-point bounds.
//!
//! RCCIS (§6.1) and the matrix joins (§8.1) deliver a binding to several
//! reducers and keep it only at the one whose partition holds the
//! binding's greatest start point — per colocation component, for the
//! matrix joins. An [`Owner`] states that rule declaratively: groups of
//! relations, each with the start range `[lo, hi]` of the reducer's
//! partition. A binding is owned when, for every group, the greatest
//! start among the group's members lies in the group's range.
//!
//! Since `index_of` is monotone, "the greatest start lies in `[lo, hi]`"
//! splits into bounds the kernels apply to their start windows
//! ([`OwnerPlan`]): every member starts at or before `hi`, and at least
//! one member starts at or after `lo`. The second half is enforced on the
//! group's last-bound member, and only when no earlier-bound member
//! already starts at or after `lo`. A binding is therefore enumerated
//! exactly when the rule admits it — none is built and then dropped.

use crate::executor::{tighten_lower, tighten_upper};
use ij_interval::{bounds_contain, Interval, Partitioning, Time, TupleId};
use std::ops::Bound;

/// Which bindings a reducer owns: groups of relations, each owned only
/// where its greatest start lies in the group's start range. A pure
/// start-point filter, valid for any single-attribute condition set.
#[derive(Debug, Clone, Default)]
pub struct Owner {
    groups: Vec<Group>,
}

#[derive(Debug, Clone)]
struct Group {
    members: Vec<usize>,
    lo: Bound<Time>,
    hi: Bound<Time>,
}

impl Owner {
    /// No groups: every binding is owned (the oracle and the algorithms
    /// whose routing already delivers each binding once). Valid for any
    /// predicate mix.
    pub fn all() -> Owner {
        Owner::default()
    }

    /// Adds a group: `members` (relation indices) are owned only where
    /// their greatest start falls in partition `coord` of `part` — the
    /// range clamps exactly as `Partitioning::index_of` does. The group
    /// constrains start points only, so it is valid for any
    /// single-attribute query.
    pub fn with_group(
        mut self,
        members: impl IntoIterator<Item = usize>,
        part: &Partitioning,
        coord: usize,
    ) -> Owner {
        let (lo, hi) = part.index_range(coord);
        self.groups.push(Group {
            members: members.into_iter().collect(),
            lo,
            hi,
        });
        self
    }
}

/// The start bounds one binding level adds.
#[derive(Debug, Clone)]
struct Level {
    /// Tightest `hi` over the groups the level's relation belongs to.
    hi: Bound<Time>,
    /// For each group whose last-bound member binds here: its `lo` and the
    /// relations of its earlier-bound members.
    floors: Vec<(Bound<Time>, Vec<usize>)>,
}

/// An [`Owner`] compiled against one binding order: per level, the start
/// bounds the level's candidates must satisfy.
#[derive(Debug, Clone)]
pub(crate) struct OwnerPlan {
    levels: Vec<Level>,
}

impl OwnerPlan {
    /// Compiles `owner` for relations bound in `order`.
    pub(crate) fn new(owner: &Owner, order: &[usize]) -> OwnerPlan {
        let mut levels: Vec<Level> = order
            .iter()
            .map(|_| Level {
                hi: Bound::Unbounded,
                floors: Vec::new(),
            })
            .collect();
        for g in &owner.groups {
            // `last` is the latest-bound member so far; `earlier` the rest.
            let mut last = None;
            let mut earlier = Vec::new();
            for (lvl, &r) in order.iter().enumerate() {
                if g.members.contains(&r) {
                    levels[lvl].hi = tighten_upper(levels[lvl].hi, g.hi);
                    if let Some((_, prev)) = last.replace((lvl, r)) {
                        earlier.push(prev);
                    }
                }
            }
            if let (Some((lvl, _)), false) = (last, g.lo == Bound::Unbounded) {
                levels[lvl].floors.push((g.lo, earlier));
            }
        }
        OwnerPlan { levels }
    }

    /// Start bounds for the candidates of `level`, given the bindings of
    /// the earlier levels in `assignment` (indexed by relation).
    #[inline]
    pub(crate) fn bounds(
        &self,
        level: usize,
        assignment: &[(Interval, TupleId)],
    ) -> (Bound<Time>, Bound<Time>) {
        let l = &self.levels[level];
        let mut lo = Bound::Unbounded;
        for (floor, earlier) in &l.floors {
            let met = earlier
                .iter()
                .any(|&r| bounds_contain((*floor, Bound::Unbounded), assignment[r].0.start()));
            if !met {
                lo = tighten_lower(lo, *floor);
            }
        }
        (lo, l.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: Time) -> (Interval, TupleId) {
        (Interval::new(s, s + 1).unwrap(), 0)
    }

    #[test]
    fn all_adds_no_bounds() {
        let plan = OwnerPlan::new(&Owner::all(), &[1, 0, 2]);
        for lvl in 0..3 {
            assert_eq!(
                plan.bounds(lvl, &[iv(0); 3]),
                (Bound::Unbounded, Bound::Unbounded)
            );
        }
    }

    #[test]
    fn floor_lands_on_the_last_bound_member_and_lifts_once_met() {
        let part = Partitioning::from_boundaries(vec![0, 10, 20, 30]).unwrap();
        // Group {0, 2} at partition 1 = [10, 20); relation 1 is outside.
        let owner = Owner::all().with_group([0, 2], &part, 1);
        let plan = OwnerPlan::new(&owner, &[2, 1, 0]);
        let hi = Bound::Excluded(20);
        assert_eq!(plan.bounds(0, &[iv(0); 3]), (Bound::Unbounded, hi));
        assert_eq!(
            plan.bounds(1, &[iv(0); 3]),
            (Bound::Unbounded, Bound::Unbounded)
        );
        // Relation 0 binds last: it must reach 10 unless relation 2 did.
        let mut a = [iv(0), iv(0), iv(3)];
        assert_eq!(plan.bounds(2, &a), (Bound::Included(10), hi));
        a[2] = iv(12);
        assert_eq!(plan.bounds(2, &a), (Bound::Unbounded, hi));
    }
}
