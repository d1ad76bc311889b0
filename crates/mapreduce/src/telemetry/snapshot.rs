//! The Prometheus fold: series and histograms built from a trace.
//!
//! A [`TelemetrySnapshot`] is a plain, sorted value type: scalar series
//! (gauges) plus named histograms, built by
//! [`TelemetrySnapshot::from_events`] as a pure fold over a
//! [`crate::Tracer`]'s events. Rendering is fully deterministic —
//! `BTreeMap` iteration order plus fixed histogram bucket bounds — so two
//! equal snapshots always produce byte-identical Prometheus text. The
//! determinism *audit* compares the [`TelemetrySnapshot::data_plane`]
//! projection, which strips execution-shape names (anything timing-,
//! chunking- or spill-layout-dependent) by the same
//! [`Name::is_execution_shape`] flag that strips counters.

use super::hist::{bucket_upper_bound, Histogram};
use crate::metrics::names::{self, Name};
use crate::trace::{spans, SpanKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Series and histograms folded from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Scalar series (the `progress.*` gauges), keyed by registered
    /// name.
    pub series: BTreeMap<Name, u64>,
    /// Named log2 histograms (bucket sizes, service times, run bytes).
    pub histograms: BTreeMap<Name, Histogram>,
}

/// Every series the fold emits, present at zero on an empty trace.
const SERIES: [Name; 6] = [
    names::PROGRESS_JOBS_STARTED,
    names::PROGRESS_JOBS_FINISHED,
    names::PROGRESS_MAP_RECORDS,
    names::PROGRESS_MAP_TASKS,
    names::PROGRESS_REDUCERS,
    names::PROGRESS_REDUCERS_DONE,
];

/// Every histogram the fold emits, present (empty) on an empty trace.
const HISTOGRAMS: [Name; 6] = [
    names::REDUCE_BUCKET_PAIRS,
    names::SHUFFLE_JOB_BYTES,
    names::MAP_TASK_RECORDS,
    names::REDUCE_SERVICE_US,
    names::KERNEL_ACTIVE_PEAK,
    names::SPILL_RUN_BYTES,
];

/// Maps a dotted series name onto a Prometheus metric name:
/// `ij_` prefix, non-alphanumeric bytes become `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("ij_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

impl TelemetrySnapshot {
    /// Folds a trace's events into series and histograms. Every input is
    /// a span count, a span arg or a span duration:
    ///
    /// * job spans count `progress.jobs_started`, and those without a
    ///   `failed` arg `progress.jobs_finished`;
    /// * the map phase's `records` sum to `progress.map_records`; each
    ///   map-task span counts one `progress.map_tasks` and samples its
    ///   `records` into `map.task_records`;
    /// * the shuffle phase's `reducers` sum to `progress.reducers`, and
    ///   its `bytes` sample `shuffle.job_bytes`;
    /// * each reduce span counts one `progress.reducers_done` and samples
    ///   its `pairs` into `reduce.bucket_pairs`, its duration into
    ///   `reduce.service_us` and a non-zero `active_peak` into
    ///   `kernel.active_peak`;
    /// * each spill span samples its `bytes` into `spill.run_bytes`.
    pub fn from_events(events: &[TraceEvent]) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot {
            series: SERIES.iter().map(|&n| (n, 0)).collect(),
            histograms: HISTOGRAMS.iter().map(|&n| (n, Histogram::new())).collect(),
        };
        let arg = |ev: &TraceEvent, key: &str| ev.get(key).unwrap_or(0);
        for ev in events {
            match (ev.kind, ev.name.as_str()) {
                (SpanKind::Job, _) => {
                    snap.add(names::PROGRESS_JOBS_STARTED, 1);
                    if ev.get("failed").is_none() {
                        snap.add(names::PROGRESS_JOBS_FINISHED, 1);
                    }
                }
                (SpanKind::Phase, spans::MAP) => {
                    snap.add(names::PROGRESS_MAP_RECORDS, arg(ev, "records"));
                }
                (SpanKind::Phase, spans::SHUFFLE) => {
                    snap.add(names::PROGRESS_REDUCERS, arg(ev, "reducers"));
                    snap.sample(names::SHUFFLE_JOB_BYTES, arg(ev, "bytes"));
                }
                (SpanKind::Task, spans::MAP_TASK) => {
                    snap.add(names::PROGRESS_MAP_TASKS, 1);
                    snap.sample(names::MAP_TASK_RECORDS, arg(ev, "records"));
                }
                (SpanKind::Reduce, _) => {
                    snap.add(names::PROGRESS_REDUCERS_DONE, 1);
                    snap.sample(names::REDUCE_BUCKET_PAIRS, arg(ev, "pairs"));
                    snap.sample(names::REDUCE_SERVICE_US, ev.dur_us);
                    let peak = arg(ev, "active_peak");
                    if peak > 0 {
                        snap.sample(names::KERNEL_ACTIVE_PEAK, peak);
                    }
                }
                (SpanKind::Spill, _) => snap.sample(names::SPILL_RUN_BYTES, arg(ev, "bytes")),
                _ => {}
            }
        }
        snap
    }

    /// Adds `delta` to a series the fold seeded.
    fn add(&mut self, name: Name, delta: u64) {
        if let Some(v) = self.series.get_mut(&name) {
            *v += delta;
        }
    }

    /// Records one sample into a histogram the fold seeded.
    fn sample(&mut self, name: Name, value: u64) {
        if let Some(h) = self.histograms.get_mut(&name) {
            h.record(value);
        }
    }

    /// The snapshot restricted to data-plane names: everything
    /// execution-shape (see [`Name::is_execution_shape`]) removed. Two
    /// runs of the same job must produce byte-identical
    /// [`TelemetrySnapshot::to_prometheus`] output for this projection
    /// regardless of `worker_threads` or memory budget.
    pub fn data_plane(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            series: self
                .series
                .iter()
                .filter(|(k, _)| !k.is_execution_shape())
                .map(|(&k, &v)| (k, v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| !k.is_execution_shape())
                .map(|(&k, v)| (k, v.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// a `# TYPE` line per metric, series as gauges, histograms with
    /// cumulative `_bucket{le=...}`
    /// samples plus `_sum` and `_count`. Output is byte-deterministic for
    /// equal snapshots (sorted iteration, fixed bucket bounds).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(64 * (self.series.len() + self.histograms.len()));
        for (name, value) in &self.series {
            let pname = prometheus_name(name.as_str());
            let _ = writeln!(out, "# TYPE {pname} gauge");
            let _ = writeln!(out, "{pname} {value}");
        }
        for (name, hist) in &self.histograms {
            let pname = prometheus_name(name.as_str());
            let _ = writeln!(out, "# TYPE {pname} histogram");
            let mut cumulative = 0u64;
            let top = hist.highest_bucket().map_or(0, |i| i + 1);
            for (i, count) in hist.bucket_counts().iter().enumerate().take(top) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{pname}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{pname}_sum {}", hist.sum());
            let _ = writeln!(out, "{pname}_count {}", hist.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        s.series.insert(names::PROGRESS_JOBS_STARTED, 2);
        s.series.insert(names::PROGRESS_MAP_TASKS, 3);
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 900] {
            h.record(v);
        }
        s.histograms.insert(names::REDUCE_BUCKET_PAIRS, h);
        s.histograms.insert(names::REDUCE_SERVICE_US, {
            let mut h = Histogram::new();
            h.record(42);
            h
        });
        s
    }

    /// A two-job trace: one finished job with two map tasks, two reducers
    /// and a spill run; one failed job that reduced nothing.
    fn trace() -> Vec<TraceEvent> {
        let ev = TraceEvent::span;
        vec![
            ev(SpanKind::Task, spans::MAP_TASK, 0, 0, 5).arg("records", 6),
            ev(SpanKind::Task, spans::MAP_TASK, 1, 0, 4).arg("records", 4),
            ev(SpanKind::Phase, spans::MAP, 0, 0, 5).arg("records", 10),
            ev(SpanKind::Spill, spans::SPILL_RUN, 1, 6, 7).arg("bytes", 64),
            ev(SpanKind::Phase, spans::SHUFFLE, 0, 5, 8)
                .arg("bytes", 160)
                .arg("reducers", 2),
            ev(SpanKind::Reduce, spans::REDUCE, 0, 8, 11)
                .arg("pairs", 7)
                .arg("active_peak", 3),
            ev(SpanKind::Reduce, spans::REDUCE, 1, 8, 9)
                .arg("pairs", 3)
                .arg("active_peak", 0),
            ev(SpanKind::Task, spans::REDUCE_WORKER, 0, 8, 11),
            ev(SpanKind::Phase, spans::REDUCE, 0, 8, 12),
            ev(SpanKind::Job, "ok", 0, 0, 12),
            ev(SpanKind::Phase, spans::MAP, 0, 12, 13).arg("records", 1),
            ev(SpanKind::Job, "doomed", 0, 12, 14).arg("failed", 1),
        ]
    }

    #[test]
    fn from_events_folds_counts_args_and_durations() {
        let s = TelemetrySnapshot::from_events(&trace());
        let series = |n: Name| s.series[&n];
        assert_eq!(series(names::PROGRESS_JOBS_STARTED), 2);
        assert_eq!(series(names::PROGRESS_JOBS_FINISHED), 1);
        assert_eq!(series(names::PROGRESS_MAP_RECORDS), 11);
        assert_eq!(series(names::PROGRESS_MAP_TASKS), 2);
        assert_eq!(series(names::PROGRESS_REDUCERS), 2);
        assert_eq!(series(names::PROGRESS_REDUCERS_DONE), 2);
        let hist = |n: Name| &s.histograms[&n];
        assert_eq!(hist(names::REDUCE_BUCKET_PAIRS).sum(), 10);
        assert_eq!(hist(names::REDUCE_BUCKET_PAIRS).count(), 2);
        assert_eq!(hist(names::REDUCE_SERVICE_US).sum(), 4);
        assert_eq!(hist(names::MAP_TASK_RECORDS).sum(), 10);
        assert_eq!(hist(names::SHUFFLE_JOB_BYTES).sum(), 160);
        assert_eq!(hist(names::SPILL_RUN_BYTES).sum(), 64);
        assert_eq!(
            hist(names::KERNEL_ACTIVE_PEAK).count(),
            1,
            "a zero peak is not sampled"
        );
    }

    #[test]
    fn empty_trace_folds_to_a_zero_seeded_snapshot() {
        let s = TelemetrySnapshot::from_events(&[]);
        assert_eq!(s.series.len(), SERIES.len());
        assert!(s.series.values().all(|&v| v == 0));
        assert_eq!(s.histograms.len(), HISTOGRAMS.len());
        assert!(s.histograms.values().all(Histogram::is_empty));
        let text = s.to_prometheus();
        assert!(text.contains("ij_spill_run_bytes_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("ij_spill_run_bytes_sum 0"));
        assert!(text.contains("ij_spill_run_bytes_count 0"));
    }

    #[test]
    fn data_plane_strips_execution_shape() {
        let d = TelemetrySnapshot::from_events(&trace()).data_plane();
        assert!(d.series.contains_key(&names::PROGRESS_JOBS_STARTED));
        assert!(!d.series.contains_key(&names::PROGRESS_MAP_TASKS));
        assert!(d.histograms.contains_key(&names::REDUCE_BUCKET_PAIRS));
        assert!(d.histograms.contains_key(&names::SHUFFLE_JOB_BYTES));
        for shape in [
            names::REDUCE_SERVICE_US,
            names::MAP_TASK_RECORDS,
            names::KERNEL_ACTIVE_PEAK,
            names::SPILL_RUN_BYTES,
        ] {
            assert!(!d.histograms.contains_key(&shape), "{shape}");
        }
    }

    #[test]
    fn prometheus_output_has_types_and_cumulative_buckets() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE ij_progress_jobs_started gauge"));
        assert!(text.contains("ij_progress_jobs_started 2"));
        assert!(text.contains("# TYPE ij_reduce_bucket_pairs histogram"));
        // Samples 1,2,2,900: bucket le="1" -> 1, le="3" -> 3, ..., le="1023" -> 4.
        assert!(
            text.contains("ij_reduce_bucket_pairs_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ij_reduce_bucket_pairs_bucket{le=\"3\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("ij_reduce_bucket_pairs_bucket{le=\"1023\"} 4"),
            "{text}"
        );
        assert!(text.contains("ij_reduce_bucket_pairs_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ij_reduce_bucket_pairs_sum 905"));
        assert!(text.contains("ij_reduce_bucket_pairs_count 4"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("ij_reduce_bucket_pairs_bucket{le=\"") {
                if rest.starts_with('+') {
                    continue;
                }
                let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "{line}");
                last = v;
            }
        }
    }

    #[test]
    fn rendering_is_byte_deterministic() {
        assert_eq!(snap().to_prometheus(), snap().to_prometheus());
        assert_eq!(
            snap().data_plane().to_prometheus(),
            snap().data_plane().to_prometheus()
        );
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prometheus_name("a.b-c/d"), "ij_a_b_c_d");
        let mut s = TelemetrySnapshot::default();
        s.series.insert(names::PROGRESS_JOBS_STARTED, 1);
        assert!(s.to_prometheus().contains("ij_progress_jobs_started 1"));
    }
}
