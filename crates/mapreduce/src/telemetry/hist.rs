//! Deterministically mergeable histograms with fixed log2 bucket bounds.
//!
//! Bucket `i` covers values whose bit length is `i`: bucket 0 holds only
//! the value 0, bucket 1 holds 1, bucket 2 holds 2..=3, bucket `i` holds
//! `2^(i-1) ..= 2^i - 1`. The bounds are *fixed* (never rescaled from
//! observed data), so merging two histograms is an element-wise sum —
//! associative and commutative, which is what makes worker-merged
//! histograms byte-identical across `worker_threads` counts, exactly like
//! [`crate::Counters`].

use std::collections::BTreeMap;

/// Bucket count: one per possible `u64` bit length (0..=64).
pub const HIST_BUCKETS: usize = 65;

/// One fixed-bound log2 histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index of a value: its bit length (0 for 0).
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_index clamps to BUCKETS - 1"
        )]
        {
            self.counts[bucket_index(value)] += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram in (element-wise bucket sum; commutative,
    /// so the result is independent of merge order).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket sample counts (index = bit length of the sample).
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }
}

/// A name-keyed set of [`Histogram`]s, merged across workers the same way
/// [`crate::Counters`] merges: per-name, order-independent. Iteration is
/// sorted by name (`BTreeMap`), so rendered output is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramRegistry {
    hists: BTreeMap<String, Histogram>,
}

impl HistogramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        HistogramRegistry::default()
    }

    /// Records one sample into the histogram `name` (creating it empty
    /// first). The name is only allocated on first use.
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Merges another registry in (per-name histogram merge).
    pub fn merge(&mut self, other: &HistogramRegistry) {
        for (name, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(name) {
                mine.merge(h);
            } else {
                self.hists.insert(name.clone(), h.clone());
            }
        }
    }

    /// The named histogram, if any sample was recorded under it.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Iterates `(name, histogram)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of named histograms.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// True when no histogram exists.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// A sorted-name map clone of the registry contents (what snapshots
    /// carry).
    pub fn to_map(&self) -> BTreeMap<String, Histogram> {
        self.hists.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value falls inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} in bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [5u64, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 105);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.highest_bucket(), Some(bucket_index(100)));
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let xs = [1u64, 7, 7, 300, 0];
        let ys = [2u64, 9000, 1];
        let mut a = Histogram::new();
        xs.iter().for_each(|&v| a.record(v));
        let mut b = Histogram::new();
        ys.iter().for_each(|&v| b.record(v));
        let mut union = Histogram::new();
        xs.iter().chain(ys.iter()).for_each(|&v| union.record(v));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, union, "merge must equal recording the union");
        assert_eq!(ab, ba, "merge is commutative");
    }

    #[test]
    fn registry_merges_per_name_and_iterates_sorted() {
        let mut a = HistogramRegistry::new();
        a.record("b.size", 10);
        a.record("a.size", 1);
        let mut b = HistogramRegistry::new();
        b.record("b.size", 20);
        b.record("c.size", 5);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.size", "b.size", "c.size"]);
        let bs = a.get("b.size").unwrap();
        assert_eq!(bs.count(), 2);
        assert_eq!(bs.sum(), 30);
        assert!(a.get("missing").is_none());
    }
}
