//! The [`Interval`] type: a closed range `[start, end]` of time points.
//!
//! The paper (Section 1) represents an interval as the range `[t_s, t_e]`
//! which "consists of a start point `t_s` and an end point `t_e` and includes
//! all points in-between including `t_s` and `t_e`" — i.e. intervals are
//! *closed* on both sides. A real-valued data point is an interval of length
//! zero (`start == end`), which is how the multi-attribute algorithm of
//! Section 9 folds real-valued attributes into the interval machinery.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A discrete time point.
///
/// The paper treats time as a totally ordered domain; packet-train timestamps
/// are microseconds, synthetic data uses integer ticks. A signed 64-bit
/// integer covers both with room for arithmetic on boundaries.
pub type Time = i64;

/// Error constructing an [`Interval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalError {
    /// `end` was smaller than `start`.
    EndBeforeStart { start: Time, end: Time },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::EndBeforeStart { start, end } => {
                write!(f, "interval end {end} precedes start {start}")
            }
        }
    }
}

impl std::error::Error for IntervalError {}

/// A closed interval `[start, end]` over [`Time`] points.
///
/// Invariant: `start <= end`. A point (length-0 interval) has
/// `start == end`; this is how real-valued attributes are represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interval {
    start: Time,
    end: Time,
}

impl Interval {
    /// Creates `[start, end]`, rejecting `end < start`.
    pub fn new(start: Time, end: Time) -> Result<Self, IntervalError> {
        if end < start {
            Err(IntervalError::EndBeforeStart { start, end })
        } else {
            Ok(Interval { start, end })
        }
    }

    /// Creates `[start, end]` without checking the invariant.
    ///
    /// # Panics
    /// Panics in debug builds if `end < start`.
    #[inline]
    pub fn new_unchecked(start: Time, end: Time) -> Self {
        debug_assert!(start <= end, "interval end {end} precedes start {start}");
        Interval { start, end }
    }

    /// A length-0 interval `[t, t]` — the representation of a real value.
    #[inline]
    pub fn point(t: Time) -> Self {
        Interval { start: t, end: t }
    }

    /// The start point `t_s`.
    #[inline]
    pub fn start(self) -> Time {
        self.start
    }

    /// The end point `t_e`.
    #[inline]
    pub fn end(self) -> Time {
        self.end
    }

    /// `end - start`. A point interval has length 0.
    ///
    /// (`is_empty` is deliberately absent: a closed interval always
    /// contains at least one point.)
    #[inline]
    #[allow(
        clippy::len_without_is_empty,
        reason = "a closed interval is never empty"
    )]
    pub fn len(self) -> i64 {
        self.end - self.start
    }

    /// Whether this is a length-0 (point / real-valued) interval.
    #[inline]
    pub fn is_point(self) -> bool {
        self.start == self.end
    }

    /// Whether time point `t` lies inside the closed interval.
    #[inline]
    pub fn contains_point(self, t: Time) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether the two closed intervals share at least one common point.
    ///
    /// This is the paper's notion of *colocation*: every colocation
    /// predicate of Allen's algebra implies `intersects`.
    #[inline]
    pub fn intersects(self, other: Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection of two intervals, if non-empty.
    pub fn intersection(self, other: Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start <= end).then_some(Interval { start, end })
    }

    /// The smallest interval covering both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Translates the interval by `delta`.
    #[inline]
    pub fn shift(self, delta: i64) -> Interval {
        Interval {
            start: self.start + delta,
            end: self.end + delta,
        }
    }

    /// The *less-than order* between intervals (paper Section 5.1):
    /// `u` is less-than `v` iff `u.start <= v.start`.
    #[inline]
    pub fn less_than(self, other: Interval) -> bool {
        self.start <= other.start
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

/// Returns the index of a *left-most* interval — one whose start point is the
/// minimum (paper Section 5.1). Ties resolve to the first occurrence.
/// Returns `None` for an empty slice.
pub fn leftmost(intervals: &[Interval]) -> Option<usize> {
    intervals
        .iter()
        .enumerate()
        .min_by_key(|(_, iv)| iv.start())
        .map(|(i, _)| i)
}

/// Returns the index of a *right-most* interval — one whose start point is the
/// maximum (paper Section 5.1). Ties resolve to the first occurrence.
/// Returns `None` for an empty slice.
pub fn rightmost(intervals: &[Interval]) -> Option<usize> {
    intervals
        .iter()
        .enumerate()
        .max_by_key(|(_, iv)| iv.start())
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_order() {
        assert!(Interval::new(3, 3).is_ok());
        assert!(Interval::new(3, 4).is_ok());
        assert_eq!(
            Interval::new(4, 3),
            Err(IntervalError::EndBeforeStart { start: 4, end: 3 })
        );
    }

    #[test]
    fn point_is_zero_length() {
        let p = Interval::point(7);
        assert!(p.is_point());
        assert_eq!(p.len(), 0);
        assert!(p.contains_point(7));
        assert!(!p.contains_point(8));
    }

    #[test]
    fn contains_point_is_closed_on_both_sides() {
        let iv = Interval::new(2, 5).unwrap();
        assert!(iv.contains_point(2));
        assert!(iv.contains_point(5));
        assert!(!iv.contains_point(1));
        assert!(!iv.contains_point(6));
    }

    #[test]
    fn intersects_shares_endpoint() {
        // Closed intervals that merely touch at an endpoint DO share a point.
        let a = Interval::new(0, 5).unwrap();
        let b = Interval::new(5, 9).unwrap();
        assert!(a.intersects(b));
        assert!(b.intersects(a));
        assert_eq!(a.intersection(b), Some(Interval::point(5)));
    }

    #[test]
    fn intersects_disjoint() {
        let a = Interval::new(0, 4).unwrap();
        let b = Interval::new(5, 9).unwrap();
        assert!(!a.intersects(b));
        assert_eq!(a.intersection(b), None);
    }

    #[test]
    fn hull_covers_both() {
        let a = Interval::new(0, 4).unwrap();
        let b = Interval::new(7, 9).unwrap();
        assert_eq!(a.hull(b), Interval::new(0, 9).unwrap());
    }

    #[test]
    fn shift_translates() {
        let a = Interval::new(1, 4).unwrap();
        assert_eq!(a.shift(10), Interval::new(11, 14).unwrap());
        assert_eq!(a.shift(-1), Interval::new(0, 3).unwrap());
    }

    #[test]
    fn less_than_uses_start_points_only() {
        let a = Interval::new(0, 100).unwrap();
        let b = Interval::new(1, 2).unwrap();
        assert!(a.less_than(b));
        assert!(!b.less_than(a));
        // Equal starts: less-than in both directions (it is a preorder).
        let c = Interval::new(0, 1).unwrap();
        assert!(a.less_than(c));
        assert!(c.less_than(a));
    }

    #[test]
    fn leftmost_rightmost() {
        let ivs = vec![
            Interval::new(5, 9).unwrap(),
            Interval::new(1, 20).unwrap(),
            Interval::new(8, 8).unwrap(),
        ];
        assert_eq!(leftmost(&ivs), Some(1));
        assert_eq!(rightmost(&ivs), Some(2));
        assert_eq!(leftmost(&[]), None);
        assert_eq!(rightmost(&[]), None);
    }
}
