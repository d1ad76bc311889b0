//! Per-job metrics: the quantities the paper's evaluation reports.
//!
//! Table 1 reports "# Intervals Replicated" and "# Pairs" (total key-value
//! pairs after replication); the Section 7 discussion is entirely about
//! per-reducer load skew. [`JobMetrics`] captures all of these per job, and
//! [`crate::JobChain`] aggregates them across the cycles of a multi-cycle
//! algorithm.

pub mod names;

pub use names::is_execution_shape;

use crate::job::ReducerId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

#[cfg(test)]
thread_local! {
    /// Counts key-`String` allocations made by [`Counters::inc`] misses —
    /// lets the micro-test below pin that the hit path allocates nothing.
    static KEY_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Hadoop-style user-defined counters: named `u64` totals incremented by
/// mappers (via [`crate::Emitter::inc`]) and reducers (via
/// [`crate::ReduceCtx::inc`]), merged across workers by the engine.
///
/// Merging is a per-name sum, so it is associative and commutative — the
/// merged totals are identical for every `worker_threads` count (the
/// property pinned by `tests/counters.rs`). Iteration order is the sorted
/// name order (`BTreeMap`), so serialized output is deterministic too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    totals: BTreeMap<String, u64>,
}

impl Counters {
    /// An empty counter map.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0 first). The
    /// hit path is a single lookup with no key allocation; only the first
    /// increment of a name allocates its `String`.
    #[inline]
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.totals.get_mut(name) {
            *v += delta;
        } else {
            #[cfg(test)]
            KEY_ALLOCS.with(|c| c.set(c.get() + 1));
            self.totals.insert(name.to_string(), delta);
        }
    }

    /// The counter's total, or 0 if it was never incremented.
    pub fn get(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Merges another counter map into this one (per-name sum).
    pub fn merge(&mut self, other: &Counters) {
        for (name, v) in &other.totals {
            self.inc(name, *v);
        }
    }

    /// Iterates `(name, total)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.totals.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True if no counter was ever incremented.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }
}

impl Serialize for Counters {
    /// Serializes as a JSON object `{name: total, …}` in sorted name order.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.totals
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::UInt(*v)))
                .collect(),
        )
    }
}

/// Load received and work done by a single logical reducer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducerLoad {
    /// The reducer's key.
    pub key: ReducerId,
    /// Intermediate pairs routed to this reducer.
    pub pairs_received: u64,
    /// Work units the reducer reported via [`crate::ReduceCtx::add_work`].
    pub work: u64,
    /// Output records the reducer emitted.
    pub output: u64,
    /// Times this reducer was attempted (> 1 only under fault injection).
    pub attempts: u32,
}

/// Metrics for one map-reduce cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub name: String,
    /// Records read by the map phase.
    pub map_input_records: u64,
    /// Approximate bytes read by the map phase.
    pub map_input_bytes: u64,
    /// Total intermediate key-value pairs (the paper's communication cost).
    pub intermediate_pairs: u64,
    /// Approximate bytes shuffled from mappers to reducers, accumulated
    /// inside the run merge (see [`crate::merge_sorted_runs`]).
    pub shuffle_bytes: u64,
    /// Number of distinct reducer keys that received at least one pair.
    pub distinct_reducers: u64,
    /// Per-reducer loads, in key order.
    pub reducer_loads: Vec<ReducerLoad>,
    /// Output records across all reducers.
    pub output_records: u64,
    /// Approximate bytes written by reducers.
    pub output_bytes: u64,
    /// Real wall-clock time of the in-process execution.
    pub wall: Duration,
    /// Wall-clock time of the map phase (chunked map + per-worker run sort).
    pub map_wall: Duration,
    /// Wall-clock time of the shuffle (k-way merge of sorted runs into
    /// reducer buckets).
    pub shuffle_wall: Duration,
    /// Wall-clock time of the reduce phase (including output concatenation).
    pub reduce_wall: Duration,
    /// Cumulative wall-clock time spent on spill I/O: shuffle-side run
    /// writes plus reduce-side streamed reads, summed across workers (so it
    /// overlaps `shuffle_wall`/`reduce_wall` rather than adding to them).
    /// Zero when no bucket overflowed the memory budget.
    pub spill_wall: Duration,
    /// Simulated cluster time (see [`crate::CostModel`]), in cost units.
    pub simulated: f64,
    /// User-defined counters incremented by this job's mappers and
    /// reducers, merged across workers (deterministic; see [`Counters`]).
    pub counters: Counters,
}

impl JobMetrics {
    /// The heaviest reducer's received-pair count — the straggler the
    /// paper's load-balancing discussion (Fig. 4) is about.
    pub fn max_reducer_pairs(&self) -> u64 {
        self.reducer_loads
            .iter()
            .map(|l| l.pairs_received)
            .max()
            .unwrap_or(0)
    }

    /// Mean pairs per *loaded* reducer (reducers that received nothing are
    /// not counted — inconsistent reducers never appear in the shuffle).
    pub fn mean_reducer_pairs(&self) -> f64 {
        if self.reducer_loads.is_empty() {
            return 0.0;
        }
        self.intermediate_pairs as f64 / self.reducer_loads.len() as f64
    }

    /// Load skew: max / mean pairs per reducer. 1.0 is perfectly balanced;
    /// All-Rep on a sequence join approaches the reducer count (the
    /// rightmost reducer gets nearly everything), while All-Matrix stays
    /// close to 1 — that contrast is Figure 4.
    pub fn skew(&self) -> f64 {
        let mean = self.mean_reducer_pairs();
        if mean == 0.0 {
            1.0
        } else {
            self.max_reducer_pairs() as f64 / mean
        }
    }

    /// Total reducer work units across the job.
    pub fn total_work(&self) -> u64 {
        self.reducer_loads.iter().map(|l| l.work).sum()
    }

    /// Total reducer attempts beyond the first (fault-injection retries).
    pub fn retries(&self) -> u64 {
        self.reducer_loads
            .iter()
            .map(|l| (l.attempts.saturating_sub(1)) as u64)
            .sum()
    }

    /// The full per-reducer skew diagnosis: distribution statistics plus
    /// the `k` heaviest reducer keys. See [`SkewReport`].
    pub fn skew_report(&self, k: usize) -> SkewReport {
        SkewReport::from_loads(&self.reducer_loads, k)
    }
}

/// Per-reducer load-skew diagnosis for one job: the distribution of
/// `pairs_received` across reducers, summarized the way the paper's
/// Section 7 / Figure 4 discussion compares algorithms.
///
/// All statistics are over *loaded* reducers only (reducers that received
/// no pair never appear in the shuffle, hence not in `reducer_loads`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkewReport {
    /// Number of loaded reducers.
    pub reducers: u64,
    /// Pairs received by the heaviest reducer.
    pub max: u64,
    /// Mean pairs per loaded reducer.
    pub mean: f64,
    /// Median pairs per reducer (nearest-rank).
    pub p50: u64,
    /// 99th-percentile pairs per reducer (nearest-rank).
    pub p99: u64,
    /// Straggler factor max/mean — 1.0 is perfectly balanced; the paper's
    /// All-Rep-on-sequence pathology approaches the reducer count.
    pub max_mean_ratio: f64,
    /// Tail ratio p99/p50 (1.0 when the median reducer already carries the
    /// tail load; large when a few reducers dominate).
    pub p99_p50_ratio: f64,
    /// Gini coefficient of the load distribution: 0 = perfectly equal,
    /// → 1 as one reducer absorbs everything.
    pub gini: f64,
    /// The `k` heaviest reducers as `(key, pairs_received)`, heaviest
    /// first; ties break toward the smaller key (deterministic).
    pub top: Vec<(ReducerId, u64)>,
}

impl SkewReport {
    /// Computes the report from per-reducer loads, keeping the `k`
    /// heaviest keys.
    pub fn from_loads(loads: &[ReducerLoad], k: usize) -> SkewReport {
        let mut pairs: Vec<u64> = loads.iter().map(|l| l.pairs_received).collect();
        pairs.sort_unstable();
        let n = pairs.len();
        let total: u64 = pairs.iter().sum();
        let max = pairs.last().copied().unwrap_or(0);
        let mean = if n == 0 { 0.0 } else { total as f64 / n as f64 };
        let p50 = percentile(&pairs, 50.0);
        let p99 = percentile(&pairs, 99.0);
        let mut top: Vec<(ReducerId, u64)> =
            loads.iter().map(|l| (l.key, l.pairs_received)).collect();
        // Heaviest first; ties on the smaller key so the order never
        // depends on the input order of `loads`.
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(k);
        SkewReport {
            reducers: n as u64,
            max,
            mean,
            p50,
            p99,
            max_mean_ratio: if mean == 0.0 { 1.0 } else { max as f64 / mean },
            p99_p50_ratio: if p50 == 0 {
                1.0
            } else {
                p99 as f64 / p50 as f64
            },
            gini: gini(&pairs, total),
            top,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 for empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.saturating_sub(1))
        .or(sorted.last())
        .copied()
        .unwrap_or(0)
}

/// Gini coefficient over ascending-sorted values summing to `total`.
/// `G = (2 Σ i·x_i) / (n Σ x) − (n+1)/n`, 1-based `i`; 0 for degenerate
/// inputs (empty, or all-zero loads).
fn gini(sorted: &[u64], total: u64) -> f64 {
    let n = sorted.len();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with_loads(pairs: &[u64]) -> JobMetrics {
        JobMetrics {
            name: "t".into(),
            map_input_records: 0,
            map_input_bytes: 0,
            intermediate_pairs: pairs.iter().sum(),
            shuffle_bytes: 0,
            distinct_reducers: pairs.len() as u64,
            reducer_loads: pairs
                .iter()
                .enumerate()
                .map(|(i, &p)| ReducerLoad {
                    key: i as u64,
                    pairs_received: p,
                    work: p * 2,
                    output: 0,
                    attempts: 1,
                })
                .collect(),
            output_records: 0,
            output_bytes: 0,
            wall: Duration::ZERO,
            map_wall: Duration::ZERO,
            shuffle_wall: Duration::ZERO,
            reduce_wall: Duration::ZERO,
            spill_wall: Duration::ZERO,
            simulated: 0.0,
            counters: Counters::default(),
        }
    }

    #[test]
    fn skew_balanced_is_one() {
        let m = metrics_with_loads(&[10, 10, 10, 10]);
        assert!((m.skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_detects_straggler() {
        let m = metrics_with_loads(&[1, 1, 1, 97]);
        assert!(m.skew() > 3.8, "skew = {}", m.skew());
        assert_eq!(m.max_reducer_pairs(), 97);
    }

    #[test]
    fn empty_job_skew_is_one() {
        let m = metrics_with_loads(&[]);
        assert_eq!(m.skew(), 1.0);
        assert_eq!(m.max_reducer_pairs(), 0);
    }

    #[test]
    fn total_work_sums() {
        let m = metrics_with_loads(&[3, 4]);
        assert_eq!(m.total_work(), 14);
    }

    #[test]
    fn counters_sum_and_merge_associatively() {
        let mut a = Counters::new();
        a.inc("pairs", 3);
        a.inc("pairs", 4);
        a.inc("replicas", 1);
        assert_eq!(a.get("pairs"), 7);
        assert_eq!(a.get("missing"), 0);

        let mut b = Counters::new();
        b.inc("pairs", 10);
        b.inc("crossing", 2);

        // (a ⊕ b) == (b ⊕ a): merge is commutative.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("pairs"), 17);
        assert_eq!(ab.len(), 3);
        assert_eq!(
            ab.iter().collect::<Vec<_>>(),
            vec![("crossing", 2), ("pairs", 17), ("replicas", 1)],
            "iteration is sorted by name"
        );
    }

    #[test]
    fn counters_serialize_as_object() {
        let mut c = Counters::new();
        c.inc("b", 2);
        c.inc("a", 1);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn skew_report_statistics() {
        // 99 light reducers and one straggler.
        let mut loads = vec![10u64; 99];
        loads.push(1000);
        let m = metrics_with_loads(&loads);
        let r = m.skew_report(3);
        assert_eq!(r.reducers, 100);
        assert_eq!(r.max, 1000);
        assert!((r.mean - 19.9).abs() < 1e-9);
        assert_eq!(r.p50, 10);
        assert_eq!(r.p99, 10, "p99 of 100 loads is the 99th-ranked one");
        assert!(r.max_mean_ratio > 50.0, "ratio {}", r.max_mean_ratio);
        assert_eq!(r.p99_p50_ratio, 1.0);
        assert!(r.gini > 0.4, "gini {}", r.gini);
        assert_eq!(r.top[0], (99, 1000), "heaviest key first");
        assert_eq!(r.top.len(), 3);
    }

    #[test]
    fn skew_report_balanced_and_empty() {
        let r = metrics_with_loads(&[50, 50, 50, 50]).skew_report(2);
        assert_eq!(r.max_mean_ratio, 1.0);
        assert_eq!(r.p99_p50_ratio, 1.0);
        assert!(r.gini.abs() < 1e-9, "equal loads have zero gini");
        assert_eq!(r.top, vec![(0, 50), (1, 50)], "ties break on key");

        let r = metrics_with_loads(&[]).skew_report(5);
        assert_eq!(r.reducers, 0);
        assert_eq!(r.max, 0);
        assert_eq!(r.max_mean_ratio, 1.0);
        assert_eq!(r.gini, 0.0);
        assert!(r.top.is_empty());
    }

    #[test]
    fn skew_report_matches_legacy_skew() {
        let m = metrics_with_loads(&[1, 1, 1, 97]);
        let r = m.skew_report(1);
        assert!((r.max_mean_ratio - m.skew()).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&sorted, 50.0), 5);
        assert_eq!(percentile(&sorted, 99.0), 10);
        assert_eq!(percentile(&sorted, 100.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn gini_extremes() {
        // One reducer holds everything: G = (n-1)/n.
        let sorted = [0u64, 0, 0, 100];
        assert!((gini(&sorted, 100) - 0.75).abs() < 1e-9);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }

    #[test]
    fn phase_walls_serialize() {
        let mut m = metrics_with_loads(&[1]);
        m.map_wall = Duration::from_millis(3);
        m.shuffle_wall = Duration::from_millis(2);
        m.reduce_wall = Duration::from_millis(1);
        let json = serde_json::to_string(&m).unwrap();
        for field in [
            "map_wall",
            "shuffle_wall",
            "reduce_wall",
            "spill_wall",
            "map_input_bytes",
            "output_bytes",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn execution_shape_counters_are_classified() {
        assert!(is_execution_shape("kernel.active_peak"));
        assert!(is_execution_shape("spill.buckets"));
        assert!(is_execution_shape("spill.runs"));
        assert!(is_execution_shape("spill.bytes"));
        assert!(is_execution_shape("telemetry.stragglers"));
        assert!(!is_execution_shape("kernel.candidates"));
        assert!(!is_execution_shape("replicas"));
    }

    #[test]
    fn counter_inc_hit_path_does_not_allocate_keys() {
        let mut c = Counters::new();
        let before = KEY_ALLOCS.with(std::cell::Cell::get);
        c.inc("hot.counter", 1);
        for _ in 0..1000 {
            c.inc("hot.counter", 1);
        }
        let allocs = KEY_ALLOCS.with(std::cell::Cell::get) - before;
        assert_eq!(allocs, 1, "only the first inc of a name allocates");
        assert_eq!(c.get("hot.counter"), 1001);
        // A second distinct name costs exactly one more allocation.
        c.inc("other", 5);
        c.inc("other", 5);
        let allocs = KEY_ALLOCS.with(std::cell::Cell::get) - before;
        assert_eq!(allocs, 2);
    }

    #[test]
    fn skew_report_single_reducer() {
        let r = metrics_with_loads(&[42]).skew_report(3);
        assert_eq!(r.reducers, 1);
        assert_eq!(r.max, 42);
        assert_eq!(r.max_mean_ratio, 1.0);
        assert_eq!(r.p50, 42);
        assert_eq!(r.p99, 42);
        assert_eq!(r.p99_p50_ratio, 1.0);
        assert_eq!(r.gini, 0.0, "one reducer cannot be skewed");
        assert_eq!(r.top, vec![(0, 42)]);
    }

    #[test]
    fn skew_report_all_equal_loads() {
        let r = metrics_with_loads(&[7, 7, 7, 7, 7, 7, 7, 7]).skew_report(2);
        assert_eq!(r.p50, r.p99, "equal loads: p50 == p99");
        assert_eq!(r.p99_p50_ratio, 1.0);
        assert_eq!(r.max_mean_ratio, 1.0);
        assert!(
            r.gini.abs() < 1e-12,
            "gini must be exactly ~0, got {}",
            r.gini
        );
        assert_eq!(r.mean, 7.0);
    }
}
