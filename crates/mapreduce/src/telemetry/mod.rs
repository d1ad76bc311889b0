//! Live telemetry: progress gauges, heartbeats, straggler detection,
//! mergeable histograms, Prometheus exposition, and a crash flight
//! recorder.
//!
//! Everything post-mortem the engine already had ([`crate::JobMetrics`],
//! [`crate::SkewReport`], `spill.*` counters) is computed after a job
//! finishes. This module is the *live* plane: the engine feeds it while
//! jobs run, so a straggling or spilling reducer is observable mid-job.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic output.** The data-plane projection of a
//!    [`TelemetrySnapshot`] (see
//!    [`snapshot::is_execution_shape_series`]) must be byte-identical
//!    across `worker_threads` and memory budgets, exactly like engine
//!    outputs and data-plane [`crate::Counters`]. Histograms use fixed
//!    log2 bucket bounds so merges commute; heartbeat counts derive from
//!    pull quanta, not time.
//! 2. **Lock-light.** Progress gauges are plain atomics; the aggregate
//!    (series + histograms) mutex is taken once per heartbeat quantum or
//!    phase boundary, never per record.
//! 3. **No ambient wall clock.** All timestamps flow through the
//!    injectable [`Clock`]; only `clock.rs` reads `Instant::now`, so the
//!    workspace's `clippy::disallowed_methods` ban needs one exemption
//!    here instead of one per call site.

pub mod clock;
pub mod hist;
pub mod progress;
pub mod recorder;
pub mod snapshot;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HistogramRegistry, HIST_BUCKETS};
pub use progress::{detect_stragglers, ProgressGauges, Straggler};
pub use recorder::{FlightRecorder, TelemetryEvent};
pub use snapshot::{is_execution_shape_series, TelemetrySnapshot};

use crate::error::EngineError;
use crate::job::ReducerId;
use crate::metrics::names;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunables for the live telemetry plane.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Emit a heartbeat every N processed values (map records or reduce
    /// pulls). Clamped to ≥ 1 at use sites.
    pub heartbeat_every: u64,
    /// A reducer whose progress rate is below this fraction of the
    /// job median is flagged as a straggler.
    pub straggler_fraction: f64,
    /// Jobs with fewer reducers than this never flag stragglers.
    pub min_straggler_reducers: usize,
    /// Flight-recorder ring capacity (recent events retained).
    pub flight_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            heartbeat_every: 8192,
            straggler_fraction: 0.25,
            min_straggler_reducers: 4,
            flight_capacity: 1024,
        }
    }
}

/// Series + histogram aggregate behind one mutex (taken per quantum or
/// phase boundary, never per record).
#[derive(Debug, Default)]
struct Agg {
    series: BTreeMap<String, u64>,
    hists: HistogramRegistry,
}

/// The live telemetry plane. Attach one to an [`crate::Engine`] with
/// [`crate::Engine::with_telemetry`]; share the [`Arc`] to observe jobs
/// mid-flight or snapshot after.
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    clock: Arc<dyn Clock>,
    gauges: ProgressGauges,
    flight: FlightRecorder,
    agg: Mutex<Agg>,
    last_dump: Mutex<Option<String>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Default config and the production [`MonotonicClock`].
    pub fn new() -> Self {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// Custom config, production clock.
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        Telemetry::with_clock(cfg, Arc::new(MonotonicClock::new()))
    }

    /// Custom config and clock — tests and the determinism audit inject a
    /// [`VirtualClock`] here so snapshots carry no wall-clock entropy.
    pub fn with_clock(cfg: TelemetryConfig, clock: Arc<dyn Clock>) -> Self {
        let flight = FlightRecorder::new(cfg.flight_capacity);
        Telemetry {
            cfg,
            clock,
            gauges: ProgressGauges::new(),
            flight,
            agg: Mutex::new(Agg::default()),
            last_dump: Mutex::new(None),
        }
    }

    /// The active config.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Current clock reading (ns since the clock's epoch).
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The live progress gauges.
    pub fn gauges(&self) -> &ProgressGauges {
        &self.gauges
    }

    /// The flight recorder (recent-events ring).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Adds `delta` to the scalar series `name`.
    pub(crate) fn inc_series(&self, name: &str, delta: u64) {
        let mut agg = self.agg.lock();
        if let Some(v) = agg.series.get_mut(name) {
            *v += delta;
        } else {
            agg.series.insert(name.to_string(), delta);
        }
    }

    /// Records one sample into the histogram `name`.
    pub(crate) fn record_hist(&self, name: &str, value: u64) {
        self.agg.lock().hists.record(name, value);
    }

    /// Merges a worker-local registry into the aggregate (one lock for
    /// the whole batch).
    pub(crate) fn merge_hists(&self, other: &HistogramRegistry) {
        self.agg.lock().hists.merge(other);
    }

    /// A task reported liveness: bump the per-scope heartbeat series and
    /// record the event.
    pub(crate) fn heartbeat(&self, job: &str, scope: &'static str, id: u64, processed: u64) {
        let series = if scope == "map" {
            names::HEARTBEATS_MAP
        } else {
            names::HEARTBEATS_REDUCE
        };
        self.inc_series(series, 1);
        self.flight.push(TelemetryEvent::Heartbeat {
            job: job.to_string(),
            scope,
            id,
            processed,
            t_ns: self.clock.now_nanos(),
        });
    }

    /// A job entered the engine.
    pub(crate) fn job_start(&self, job: &str, records: u64) {
        self.gauges.note_job_started();
        self.flight.push(TelemetryEvent::JobStart {
            job: job.to_string(),
            records,
            t_ns: self.clock.now_nanos(),
        });
    }

    /// A phase (map / shuffle / reduce) completed.
    pub(crate) fn phase_end(&self, job: &str, phase: &'static str, items: u64) {
        self.flight.push(TelemetryEvent::PhaseEnd {
            job: job.to_string(),
            phase,
            items,
            t_ns: self.clock.now_nanos(),
        });
    }

    /// A job ran to successful completion.
    pub(crate) fn job_end(&self, job: &str, outputs: u64) {
        self.gauges.note_job_finished();
        self.flight.push(TelemetryEvent::JobEnd {
            job: job.to_string(),
            outputs,
            t_ns: self.clock.now_nanos(),
        });
    }

    /// The straggler detector flagged reducers: bump the
    /// `telemetry.stragglers` series and record one event each.
    pub(crate) fn note_stragglers(&self, job: &str, stragglers: &[Straggler]) {
        if stragglers.is_empty() {
            return;
        }
        self.inc_series(names::TELEMETRY_STRAGGLERS, stragglers.len() as u64);
        let t_ns = self.clock.now_nanos();
        for s in stragglers {
            self.flight.push(TelemetryEvent::Straggler {
                job: job.to_string(),
                reducer: s.key,
                pairs: s.pairs,
                service_ns: s.service_ns,
                t_ns,
            });
        }
    }

    /// The budgeted shuffle wrote a spill run.
    pub(crate) fn spill_run(&self, reducer: ReducerId, bytes: u64) {
        self.record_hist(names::SPILL_RUN_BYTES, bytes);
        self.flight.push(TelemetryEvent::SpillRun {
            reducer,
            bytes,
            t_ns: self.clock.now_nanos(),
        });
    }

    /// A job failed: record the error and freeze a JSONL dump of the
    /// flight recorder for forensics (readable via
    /// [`Telemetry::last_flight_dump`]).
    pub(crate) fn note_error(&self, job: &str, err: &EngineError) {
        self.flight.push(TelemetryEvent::Error {
            job: job.to_string(),
            detail: err.to_string(),
            t_ns: self.clock.now_nanos(),
        });
        let dump = self.flight.jsonl();
        *self.last_dump.lock() = Some(dump);
    }

    /// The flight-recorder JSONL dump frozen by the most recent engine
    /// error, if any job has failed.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.last_dump.lock().clone()
    }

    /// A point-in-time copy of every series and histogram. Core series
    /// (`telemetry.stragglers`, per-scope heartbeats, `spill.run_bytes`)
    /// are pre-seeded at zero so scrapes always expose them.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut series: BTreeMap<String, u64> = BTreeMap::new();
        for name in [
            names::HEARTBEATS_MAP,
            names::HEARTBEATS_REDUCE,
            names::TELEMETRY_STRAGGLERS,
        ] {
            series.insert(name.to_string(), 0);
        }
        for (name, v) in self.gauges.read_all() {
            series.insert(name.to_string(), v);
        }
        let agg = self.agg.lock();
        for (name, v) in &agg.series {
            *series.entry(name.clone()).or_insert(0) += *v;
        }
        let mut histograms = agg.hists.to_map();
        histograms
            .entry(names::SPILL_RUN_BYTES.to_string())
            .or_default();
        TelemetrySnapshot { series, histograms }
    }
}

/// Per-stream heartbeat bookkeeping for reduce-side [`crate::ValueStream`]
/// pulls: counts pulls locally and touches the shared telemetry only once
/// per `every` values (lock-light by construction).
#[derive(Debug)]
pub(crate) struct HeartbeatHook {
    tel: Arc<Telemetry>,
    job: Arc<str>,
    id: u64,
    every: u64,
    pulled: u64,
    since: u64,
}

impl HeartbeatHook {
    pub(crate) fn new(tel: Arc<Telemetry>, job: Arc<str>, id: u64, every: u64) -> Self {
        HeartbeatHook {
            tel,
            job,
            id,
            every: every.max(1),
            pulled: 0,
            since: 0,
        }
    }

    /// One value pulled; emits a heartbeat at each quantum boundary.
    pub(crate) fn tick(&mut self) {
        self.pulled += 1;
        self.since += 1;
        if self.since == self.every {
            self.since = 0;
            self.tel.gauges().add_reduce_values(self.every);
            self.tel
                .heartbeat(&self.job, "reduce", self.id, self.pulled);
        }
    }

    /// Flushes the sub-quantum remainder into the gauges (called on
    /// stream drop so `progress.reduce_values` is exact).
    pub(crate) fn flush(&mut self) {
        self.tel.gauges().add_reduce_values(self.since);
        self.since = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = TelemetryConfig::default();
        assert!(cfg.heartbeat_every > 0);
        assert!((0.0..=1.0).contains(&cfg.straggler_fraction));
        assert!(cfg.min_straggler_reducers >= 2);
        assert!(cfg.flight_capacity > 0);
    }

    #[test]
    fn snapshot_seeds_core_series_at_zero() {
        let tel = Telemetry::with_clock(TelemetryConfig::default(), Arc::new(VirtualClock::new()));
        let snap = tel.snapshot();
        assert_eq!(snap.series.get("telemetry.stragglers"), Some(&0));
        assert_eq!(snap.series.get("telemetry.heartbeats.map"), Some(&0));
        assert_eq!(snap.series.get("telemetry.heartbeats.reduce"), Some(&0));
        assert_eq!(snap.series.get("progress.jobs_started"), Some(&0));
        assert!(snap.histograms.contains_key("spill.run_bytes"));
        assert!(snap
            .histograms
            .get("spill.run_bytes")
            .is_some_and(Histogram::is_empty));
    }

    #[test]
    fn series_and_hists_accumulate() {
        let tel = Telemetry::with_clock(TelemetryConfig::default(), Arc::new(VirtualClock::new()));
        tel.inc_series("telemetry.stragglers", 2);
        tel.inc_series("telemetry.stragglers", 1);
        tel.record_hist("reduce.bucket_pairs", 10);
        let mut reg = HistogramRegistry::new();
        reg.record("reduce.bucket_pairs", 20);
        tel.merge_hists(&reg);
        let snap = tel.snapshot();
        assert_eq!(snap.series.get("telemetry.stragglers"), Some(&3));
        let h = snap.histograms.get("reduce.bucket_pairs").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
    }

    #[test]
    fn heartbeat_hook_fires_per_quantum_and_flushes_remainder() {
        let tel = Arc::new(Telemetry::with_clock(
            TelemetryConfig::default(),
            Arc::new(VirtualClock::new()),
        ));
        let mut hook = HeartbeatHook::new(Arc::clone(&tel), Arc::from("j"), 7, 4);
        for _ in 0..10 {
            hook.tick();
        }
        // 10 pulls at quantum 4: two heartbeats, 8 values in gauges so far.
        assert_eq!(tel.snapshot().series["telemetry.heartbeats.reduce"], 2);
        assert_eq!(tel.gauges().reduce_values(), 8);
        hook.flush();
        assert_eq!(tel.gauges().reduce_values(), 10);
        hook.flush();
        assert_eq!(tel.gauges().reduce_values(), 10, "flush is idempotent");
        assert_eq!(tel.flight().len(), 2, "one event per heartbeat");
    }

    #[test]
    fn note_error_freezes_a_jsonl_dump() {
        let tel = Telemetry::with_clock(TelemetryConfig::default(), Arc::new(VirtualClock::new()));
        assert!(tel.last_flight_dump().is_none());
        tel.job_start("j", 100);
        tel.note_error("j", &EngineError::Internal("boom"));
        let dump = tel.last_flight_dump().unwrap();
        assert!(dump.contains("\"event\":\"job_start\""));
        assert!(dump.contains("\"event\":\"error\""));
        assert!(dump.contains("boom"), "{dump}");
        assert!(dump.lines().count() >= 2);
    }

    #[test]
    fn virtual_clock_timestamps_flow_into_events() {
        let clock = Arc::new(VirtualClock::new());
        let tel = Telemetry::with_clock(
            TelemetryConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        clock.set(42);
        tel.phase_end("j", "map", 5);
        match &tel.flight().snapshot()[0] {
            TelemetryEvent::PhaseEnd { t_ns, .. } => assert_eq!(*t_ns, 42),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(tel.now_nanos(), 42);
    }
}
