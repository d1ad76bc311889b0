//! Live progress gauges and the straggler detector.
//!
//! Gauges are plain atomics — workers bump them lock-free while a job
//! runs, and anything holding the [`crate::telemetry::Telemetry`] handle
//! can read a consistent-enough view mid-flight (each gauge individually
//! exact, the set weakly consistent, like any scrape of a live process).
//! Final values are deterministic: every gauge counts data-plane events
//! (records mapped, values reduced, buckets finished) whose totals do not
//! depend on thread count or memory budget.

use crate::job::ReducerId;
use crate::metrics::names;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free progress counters the engine bumps while jobs run.
#[derive(Debug, Default)]
pub struct ProgressGauges {
    jobs_started: AtomicU64,
    jobs_finished: AtomicU64,
    map_tasks: AtomicU64,
    map_records: AtomicU64,
    reducers: AtomicU64,
    reducers_done: AtomicU64,
    reduce_values: AtomicU64,
}

impl ProgressGauges {
    /// Fresh gauges, all zero.
    pub fn new() -> Self {
        ProgressGauges::default()
    }

    pub(crate) fn note_job_started(&self) {
        self.jobs_started.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_job_finished(&self) {
        self.jobs_finished.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_map_tasks(&self, n: u64) {
        self.map_tasks.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_map_records(&self, n: u64) {
        self.map_records.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_reducers(&self, n: u64) {
        self.reducers.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_reducer_done(&self) {
        self.reducers_done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_reduce_values(&self, n: u64) {
        self.reduce_values.fetch_add(n, Ordering::Relaxed);
    }

    /// Jobs the engine has started.
    pub fn jobs_started(&self) -> u64 {
        self.jobs_started.load(Ordering::Relaxed)
    }

    /// Jobs that ran to successful completion.
    pub fn jobs_finished(&self) -> u64 {
        self.jobs_finished.load(Ordering::Relaxed)
    }

    /// Map tasks (worker chunks) completed.
    pub fn map_tasks(&self) -> u64 {
        self.map_tasks.load(Ordering::Relaxed)
    }

    /// Input records mapped.
    pub fn map_records(&self) -> u64 {
        self.map_records.load(Ordering::Relaxed)
    }

    /// Reducer buckets formed by shuffles.
    pub fn reducers(&self) -> u64 {
        self.reducers.load(Ordering::Relaxed)
    }

    /// Reducer buckets fully reduced.
    pub fn reducers_done(&self) -> u64 {
        self.reducers_done.load(Ordering::Relaxed)
    }

    /// Values pulled through reducer [`crate::ValueStream`]s.
    pub fn reduce_values(&self) -> u64 {
        self.reduce_values.load(Ordering::Relaxed)
    }

    /// The gauge values as `(series name, value)` pairs, in a fixed order
    /// (what snapshots embed).
    pub fn read_all(&self) -> [(&'static str, u64); 7] {
        [
            (names::PROGRESS_JOBS_STARTED, self.jobs_started()),
            (names::PROGRESS_JOBS_FINISHED, self.jobs_finished()),
            (names::PROGRESS_MAP_RECORDS, self.map_records()),
            (names::PROGRESS_MAP_TASKS, self.map_tasks()),
            (names::PROGRESS_REDUCE_VALUES, self.reduce_values()),
            (names::PROGRESS_REDUCERS, self.reducers()),
            (names::PROGRESS_REDUCERS_DONE, self.reducers_done()),
        ]
    }
}

/// One reducer flagged by [`detect_stragglers`].
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// The straggling reducer's key.
    pub key: ReducerId,
    /// Pairs the reducer received.
    pub pairs: u64,
    /// Service time the reducer took, in clock nanoseconds.
    pub service_ns: u64,
    /// The reducer's progress rate (pairs per nanosecond).
    pub rate: f64,
    /// The median rate across all reducers of the job.
    pub median_rate: f64,
}

/// Flags reducers whose progress rate (pairs processed per service
/// nanosecond) fell below `fraction` of the job's median rate.
///
/// `loads` is `(key, pairs_received, service_ns)` per reducer. Jobs with
/// fewer than `min_reducers` loaded reducers are never flagged — a median
/// over a handful of reducers is noise, and single-reducer jobs would
/// always self-compare. Zero service times are clamped to 1 ns so the
/// rate stays finite (and so a virtual clock yields rates proportional to
/// load — deterministic, if not meaningful as wall time).
pub fn detect_stragglers(
    loads: &[(ReducerId, u64, u64)],
    fraction: f64,
    min_reducers: usize,
) -> Vec<Straggler> {
    if loads.len() < min_reducers.max(2) || !(0.0..=1.0).contains(&fraction) {
        return Vec::new();
    }
    let rate_of = |pairs: u64, ns: u64| pairs as f64 / ns.max(1) as f64;
    let mut rates: Vec<f64> = loads.iter().map(|&(_, p, ns)| rate_of(p, ns)).collect();
    rates.sort_by(f64::total_cmp);
    #[expect(
        clippy::indexing_slicing,
        reason = "rates.len() >= 2 by the guard at the top"
    )]
    let median = rates[rates.len() / 2];
    if median <= 0.0 {
        return Vec::new();
    }
    let cutoff = fraction * median;
    loads
        .iter()
        .filter_map(|&(key, pairs, service_ns)| {
            let rate = rate_of(pairs, service_ns);
            (rate < cutoff).then_some(Straggler {
                key,
                pairs,
                service_ns,
                rate,
                median_rate: median,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_accumulate_and_read_back() {
        let g = ProgressGauges::new();
        g.note_job_started();
        g.add_map_tasks(3);
        g.add_map_records(100);
        g.add_reducers(4);
        g.note_reducer_done();
        g.note_reducer_done();
        g.add_reduce_values(80);
        g.note_job_finished();
        assert_eq!(g.jobs_started(), 1);
        assert_eq!(g.jobs_finished(), 1);
        assert_eq!(g.map_tasks(), 3);
        assert_eq!(g.map_records(), 100);
        assert_eq!(g.reducers(), 4);
        assert_eq!(g.reducers_done(), 2);
        assert_eq!(g.reduce_values(), 80);
        let all = g.read_all();
        assert_eq!(all[0], ("progress.jobs_started", 1));
        assert!(all
            .iter()
            .any(|&(n, v)| n == "progress.reduce_values" && v == 80));
    }

    #[test]
    fn flags_the_slow_reducer() {
        // Four reducers with equal load; one took 100x longer.
        let loads: Vec<(ReducerId, u64, u64)> = vec![
            (0, 1000, 10_000),
            (1, 1000, 12_000),
            (2, 1000, 1_200_000),
            (3, 1000, 11_000),
        ];
        let s = detect_stragglers(&loads, 0.25, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].key, 2);
        assert!(s[0].rate < 0.25 * s[0].median_rate);
    }

    #[test]
    fn balanced_jobs_flag_nothing() {
        let loads: Vec<(ReducerId, u64, u64)> =
            (0..8).map(|k| (k, 500, 10_000 + k * 100)).collect();
        assert!(detect_stragglers(&loads, 0.25, 4).is_empty());
    }

    #[test]
    fn small_jobs_are_never_flagged() {
        let loads: Vec<(ReducerId, u64, u64)> = vec![(0, 10, 10), (1, 10, 1_000_000)];
        assert!(
            detect_stragglers(&loads, 0.25, 4).is_empty(),
            "below min_reducers no straggler is reported"
        );
        assert!(detect_stragglers(&[], 0.25, 0).is_empty());
        assert!(detect_stragglers(&[(0, 1, 1)], 0.25, 0).is_empty());
    }

    #[test]
    fn zero_service_times_stay_finite() {
        // A virtual clock reports 0 ns everywhere; rates degrade to the
        // pair counts and nothing is NaN/inf.
        let loads: Vec<(ReducerId, u64, u64)> =
            vec![(0, 100, 0), (1, 100, 0), (2, 100, 0), (3, 100, 0)];
        let s = detect_stragglers(&loads, 0.5, 4);
        assert!(s.is_empty(), "equal loads at zero time: no straggler");
    }

    #[test]
    fn bad_fraction_is_rejected() {
        let loads: Vec<(ReducerId, u64, u64)> = vec![(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1000)];
        assert!(detect_stragglers(&loads, -0.1, 4).is_empty());
        assert!(detect_stragglers(&loads, 1.5, 4).is_empty());
    }

    #[test]
    fn exactly_at_cutoff_rate_is_not_flagged() {
        // The comparison is strict (`rate < fraction * median`): a
        // reducer sitting exactly on the cutoff is NOT a straggler.
        // Median rate here is 1.0 (three reducers at 1000 pairs /
        // 1000 ns); with fraction 0.25 the cutoff is 0.25, and key 3
        // runs at exactly 0.25 pairs/ns.
        let loads: Vec<(ReducerId, u64, u64)> = vec![
            (0, 1000, 1_000),
            (1, 1000, 1_000),
            (2, 1000, 1_000),
            (3, 1000, 4_000),
        ];
        assert!(
            detect_stragglers(&loads, 0.25, 4).is_empty(),
            "exactly-at-cutoff must not be flagged (strict comparison)"
        );
        // One nanosecond slower crosses the boundary.
        let loads_below: Vec<(ReducerId, u64, u64)> = vec![
            (0, 1000, 1_000),
            (1, 1000, 1_000),
            (2, 1000, 1_000),
            (3, 1000, 4_001),
        ];
        let s = detect_stragglers(&loads_below, 0.25, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].key, 3);
    }

    #[test]
    fn exactly_at_median_rate_is_not_flagged() {
        // A reducer at exactly the median rate sits at fraction 1.0's
        // cutoff — still strict, still unflagged, even at the detector's
        // most aggressive legal fraction.
        let loads: Vec<(ReducerId, u64, u64)> = vec![
            (0, 1000, 1_000),
            (1, 1000, 1_000),
            (2, 1000, 1_000),
            (3, 1000, 1_000),
        ];
        assert!(
            detect_stragglers(&loads, 1.0, 4).is_empty(),
            "at fraction 1.0 every reducer equals the median — none flagged"
        );
    }

    #[test]
    fn single_reducer_never_self_compares() {
        // Whatever min_reducers says, the `max(2)` floor keeps a lone
        // reducer from being measured against its own median.
        for min in [0usize, 1, 2, 8] {
            assert!(
                detect_stragglers(&[(7, 1000, 1_000_000)], 1.0, min).is_empty(),
                "single reducer flagged at min_reducers {min}"
            );
        }
    }

    #[test]
    fn zero_processed_heartbeat_rates_degrade_gracefully() {
        // A reducer that processed nothing has rate 0 — below any
        // positive cutoff, so it IS a straggler when its peers made
        // progress…
        let loads: Vec<(ReducerId, u64, u64)> = vec![
            (0, 1000, 1_000),
            (1, 1000, 1_000),
            (2, 1000, 1_000),
            (3, 0, 1_000),
        ];
        let s = detect_stragglers(&loads, 0.25, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].key, 3);
        assert_eq!(s[0].rate, 0.0);
        // …but when *no* reducer processed anything the median is 0 and
        // the detector stays silent instead of flagging everyone (or
        // dividing by zero).
        let idle: Vec<(ReducerId, u64, u64)> = (0..4).map(|k| (k, 0, 1_000)).collect();
        assert!(detect_stragglers(&idle, 0.25, 4).is_empty());
        // Zero pairs at zero nanoseconds (a heartbeat that never ticked)
        // is the same: clamped denominator, rate 0, no NaN.
        let idle_zero_ns: Vec<(ReducerId, u64, u64)> = (0..4).map(|k| (k, 0, 0)).collect();
        assert!(detect_stragglers(&idle_zero_ns, 0.25, 4).is_empty());
    }
}
