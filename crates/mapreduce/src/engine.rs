//! The execution engine: runs one map-reduce cycle.
//!
//! The data plane is partitioned end-to-end, mirroring Hadoop's actual
//! shuffle rather than a single global sort:
//!
//! 1. **Map** — each worker maps its input chunk and finishes its output as
//!    a locally key-sorted run (the map-side sort before the spill).
//! 2. **Shuffle** — [`merge_sorted_runs`] k-way merges the runs by
//!    `(key, run index)`, building reducer buckets and accumulating the
//!    shuffle-volume counters in the same pass. No code path ever sorts the
//!    full intermediate-pair vector. With
//!    [`ClusterConfig::reduce_memory_budget`] set, a bucket that overflows
//!    the budget is cut into sorted runs on an engine-internal [`crate::Dfs`]
//!    instead of staying resident (see [`crate::spill`]).
//! 3. **Reduce** — workers steal buckets and reducers take *ownership* of
//!    their bucket, consuming it as a pull-based
//!    [`crate::job::ValueStream`]: resident buckets stream out of memory,
//!    spilled buckets stream back chunk-by-chunk from the DFS. The
//!    fault-free path moves the bucket out without a copy; only with a
//!    [`FaultPlan`] attached is the bucket cloned per attempt (for spilled
//!    buckets the clone is just run paths — the retry re-reads them),
//!    mirroring Hadoop re-reading the shuffled segment on retry.
//!
//! Determinism is preserved by construction: ties between runs break on the
//! run (chunk) index and per-run order is emission order, so the merged
//! stream equals a stable sort of the concatenated map outputs — identical
//! for every `worker_threads` count. Each phase is timed separately and
//! reported through [`JobMetrics`]: every phase boundary is read once from
//! the engine's one [`Clock`] — the attached [`Tracer`]'s — and that
//! reading gives both the `JobMetrics` wall and the phase span.

use crate::cost::{CostModel, ReducerCost};
use crate::dfs::DfsError;
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::job::{BucketSource, Emitter, Mapper, ReduceCtx, Reducer, ReducerId, SortedRun};
use crate::metrics::{names, Counters, JobMetrics, ReducerLoad};
use crate::record::Record;
use crate::spill::{SpillRun, SpillStats, SpillStore};
use crate::telemetry::{Clock, MonotonicClock};
use crate::trace::{spans, SpanKind, TraceEvent, Tracer};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Cluster shape and cost parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Parallel reduce slots — the paper runs "16 reduce processes".
    /// Note this is *slots*, not logical reducers: a job may have many more
    /// distinct reducer keys than slots; they queue, and the simulated time
    /// reflects the resulting waves.
    pub reducer_slots: usize,
    /// Worker threads used for the map phase and for running reducers:
    /// each reduce worker pulls the next bucket in key order and runs it
    /// serially, like a Hadoop reduce task in its slot. Defaults to the
    /// machine's available parallelism.
    pub worker_threads: usize,
    /// Per-reducer memory budget in approx-bytes (see
    /// [`Record::approx_bytes`]) — the paper's reducer-size bound. `None`
    /// (the default) keeps every bucket resident; with `Some(b)`, a bucket
    /// whose buffered values exceed `b` bytes during the shuffle merge is
    /// spilled to an engine-internal [`crate::Dfs`] as sorted runs and
    /// streamed back to its reducer on demand. Outputs and data-plane
    /// counters are byte-identical either way (only the `spill.*`
    /// execution-shape counters differ; see
    /// [`crate::metrics::names::Name::is_execution_shape`]).
    pub reduce_memory_budget: Option<u64>,
    /// Cost-model weights for the simulated cluster time.
    pub cost: CostModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            reducer_slots: 16,
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            reduce_memory_budget: None,
            cost: CostModel::default(),
        }
    }
}

impl ClusterConfig {
    /// A config with `slots` reduce slots and default cost weights.
    pub fn with_slots(slots: usize) -> Self {
        ClusterConfig {
            reducer_slots: slots,
            ..ClusterConfig::default()
        }
    }
}

/// Result of one map-reduce cycle: the reducer outputs (concatenated in
/// reducer-key order, hence deterministic) plus the job metrics.
#[derive(Debug, Clone)]
pub struct JobOutput<O> {
    /// Output records, ordered by reducer key then emission order.
    pub outputs: Vec<O>,
    /// The cycle's metrics.
    pub metrics: JobMetrics,
}

/// What the reduce phase hands back to `run_job`: per-key outputs (key
/// order), per-reducer loads, the merged user counters, and the cumulative
/// nanoseconds workers spent streaming spilled buckets back from DFS.
type ReducePhaseResult<O> = (Vec<(ReducerId, Vec<O>)>, Vec<ReducerLoad>, Counters, u64);

/// The MapReduce engine. Cheap to construct; holds only configuration, an
/// optional fault plan and an optional tracer, its one observer.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: ClusterConfig,
    faults: Option<Arc<FaultPlan>>,
    tracer: Option<Arc<Tracer>>,
}

/// What one job observes through: the clock every wall and span is read
/// from — the attached tracer's, so walls and spans share their readings —
/// and the tracer itself, if any.
struct Observer<'a> {
    clock: Arc<dyn Clock>,
    tracer: Option<&'a Tracer>,
}

impl Observer<'_> {
    /// One clock reading, in nanoseconds.
    fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Records `event` when a tracer is attached.
    fn record(&self, event: TraceEvent) {
        if let Some(t) = self.tracer {
            t.record(event);
        }
    }

    /// Records a worker batch when a tracer is attached.
    fn record_batch(&self, events: Vec<TraceEvent>) {
        if let Some(t) = self.tracer {
            t.record_batch(events);
        }
    }
}

/// The wall between two clock readings.
fn wall(from_ns: u64, to_ns: u64) -> Duration {
    Duration::from_nanos(to_ns.saturating_sub(from_ns))
}

impl Engine {
    /// Creates an engine over the given cluster configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        Engine {
            cfg,
            faults: None,
            tracer: None,
        }
    }

    /// Attaches a fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a [`Tracer`]: every subsequent job records job / phase /
    /// per-worker task / per-reducer / spill spans into it (see
    /// [`crate::trace`]), and times its [`JobMetrics`] walls on the
    /// tracer's clock. Without a tracer the engine records nothing and
    /// times its phases on a fresh [`MonotonicClock`] per job.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The clock and tracer one job observes through.
    fn observer(&self) -> Observer<'_> {
        match &self.tracer {
            Some(t) => Observer {
                clock: Arc::clone(t.clock()),
                tracer: Some(t),
            },
            None => Observer {
                clock: Arc::new(MonotonicClock::new()),
                tracer: None,
            },
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Runs one map-reduce cycle.
    ///
    /// * `input` — the records to map over (a multi-relation job simply
    ///   concatenates its relations, with the relation id carried inside
    ///   each record, as Hadoop jobs do with multiple input files).
    /// * `mapper` / `reducer` — the job logic; usually closures.
    ///
    /// Output records are ordered by reducer key, then by value emission
    /// order, so results are deterministic regardless of thread count.
    ///
    /// # Errors
    /// Returns [`EngineError::MaxAttemptsExceeded`] when an injected fault
    /// exhausts the fault plan's `max_attempts` (mirroring Hadoop failing
    /// the job), and [`EngineError::Internal`] if an engine invariant is
    /// breached (a bug in the engine itself).
    ///
    /// # Panics
    /// Re-raises a mapper/reducer panic with its original payload — a
    /// panicking map or reduce function is job-logic failure, exactly like
    /// an uncaught exception in a Hadoop task.
    pub fn run_job<I, M, O>(
        &self,
        name: &str,
        input: &[I],
        mapper: impl Mapper<I, M>,
        reducer: impl Reducer<M, O>,
    ) -> Result<JobOutput<O>, EngineError>
    where
        I: Record,
        M: Record,
        O: Record,
    {
        let obs = self.observer();
        let start = obs.now();
        let result = self.run_job_inner(&obs, start, name, input, mapper, reducer);
        if result.is_err() {
            // A failed job's trace is its forensic record: the phases and
            // reducers that finished are already in it, and the job span
            // closes it, marked failed.
            obs.record(
                TraceEvent::between_ns(SpanKind::Job, name, 0, start, obs.now())
                    .arg("records", input.len() as u64)
                    .arg("failed", 1),
            );
        }
        result
    }

    fn run_job_inner<I, M, O>(
        &self,
        obs: &Observer<'_>,
        start: u64,
        name: &str,
        input: &[I],
        mapper: impl Mapper<I, M>,
        reducer: impl Reducer<M, O>,
    ) -> Result<JobOutput<O>, EngineError>
    where
        I: Record,
        M: Record,
        O: Record,
    {
        // ---- Map phase: per-worker locally sorted runs ---------------------
        let (runs, map_input_bytes, mut counters) = self.run_map_phase(obs, input, &mapper);
        let map_end = obs.now();
        obs.record(
            TraceEvent::between_ns(SpanKind::Phase, spans::MAP, 0, start, map_end)
                .arg("records", input.len() as u64),
        );

        // ---- Shuffle: k-way merge of the runs into reducer buckets ---------
        let (buckets, shuffle, spill_stats, spill_write_nanos) = match self.cfg.reduce_memory_budget
        {
            // Unlimited budget: the in-memory fast path. No spill store
            // (hence no Dfs) is ever constructed.
            None => {
                let (buckets, stats) = merge_sorted_runs(runs);
                let sources: Vec<(ReducerId, BucketSource<M>)> = buckets
                    .into_iter()
                    .map(|(k, v)| (k, BucketSource::InMemory(v)))
                    .collect();
                (sources, stats, SpillStats::default(), 0u64)
            }
            Some(budget) => {
                let mut store = SpillStore::new(budget, Arc::clone(&obs.clock), obs.tracer);
                let (sources, stats) =
                    merge_sorted_runs_budgeted(runs, &mut store).map_err(|e| {
                        EngineError::Spill {
                            job: name.to_string(),
                            reducer: ReducerId::MAX,
                            detail: e.to_string(),
                        }
                    })?;
                let (spill_stats, write_nanos) = store.finish();
                (sources, stats, spill_stats, write_nanos)
            }
        };
        let shuffle_end = obs.now();
        obs.record(
            TraceEvent::between_ns(SpanKind::Phase, spans::SHUFFLE, 0, map_end, shuffle_end)
                .arg("pairs", shuffle.pairs)
                .arg("bytes", shuffle.bytes)
                .arg("reducers", buckets.len() as u64),
        );

        // ---- Reduce phase ---------------------------------------------------
        let (mut results, loads, reduce_counters, spill_read_nanos) =
            self.run_reduce_phase(obs, name, buckets, &reducer)?;
        counters.merge(&reduce_counters);
        if spill_stats.buckets > 0 {
            counters.inc(names::SPILL_BUCKETS, spill_stats.buckets);
            counters.inc(names::SPILL_RUNS, spill_stats.runs);
            counters.inc(names::SPILL_BYTES, spill_stats.bytes);
        }

        // Concatenate outputs in key order, accounting output volume in the
        // same pass (the reduce-side write).
        let output_records: u64 = results.iter().map(|(_, o)| o.len() as u64).sum();
        let mut outputs = Vec::with_capacity(output_records as usize);
        let mut output_bytes = 0u64;
        for (_, o) in &mut results {
            output_bytes += o.iter().map(Record::approx_bytes).sum::<u64>();
            outputs.append(o);
        }
        let reduce_end = obs.now();
        obs.record(
            TraceEvent::between_ns(SpanKind::Phase, spans::REDUCE, 0, shuffle_end, reduce_end)
                .arg("reducers", loads.len() as u64)
                .arg("outputs", output_records),
        );

        let simulated = self
            .cfg
            .cost
            .simulate_phases(
                input.len() as u64,
                shuffle.pairs,
                loads.iter().map(|l| ReducerCost {
                    pairs_received: l.pairs_received,
                    work: l.work,
                    output: l.output,
                }),
                self.cfg.reducer_slots,
            )
            .total();
        let end = obs.now();
        obs.record(
            TraceEvent::between_ns(SpanKind::Job, name, 0, start, end)
                .arg("records", input.len() as u64)
                .arg("pairs", shuffle.pairs)
                .arg("outputs", output_records),
        );

        let metrics = JobMetrics {
            name: name.to_string(),
            map_input_records: input.len() as u64,
            map_input_bytes,
            intermediate_pairs: shuffle.pairs,
            shuffle_bytes: shuffle.bytes,
            distinct_reducers: loads.len() as u64,
            reducer_loads: loads,
            output_records,
            output_bytes,
            wall: wall(start, end),
            map_wall: wall(start, map_end),
            shuffle_wall: wall(map_end, shuffle_end),
            reduce_wall: wall(shuffle_end, reduce_end),
            spill_wall: Duration::from_nanos(spill_write_nanos + spill_read_nanos),
            simulated,
            counters,
        };

        Ok(JobOutput { outputs, metrics })
    }

    /// Maps `input` in parallel chunks; each worker returns its run locally
    /// sorted by key (stable, so per-key emission order survives), the
    /// bytes it read and its accumulated user counters. Runs, counters and
    /// per-task trace events all come back in chunk order, so the
    /// downstream merge — and the trace — see the same sequence as
    /// sequential execution.
    fn run_map_phase<I, M>(
        &self,
        obs: &Observer<'_>,
        input: &[I],
        mapper: &impl Mapper<I, M>,
    ) -> (Vec<SortedRun<M>>, u64, Counters)
    where
        I: Record,
        M: Record,
    {
        let threads = self.cfg.worker_threads.max(1);
        if input.is_empty() {
            return (Vec::new(), 0, Counters::new());
        }
        let chunk = input.len().div_ceil(threads);
        let chunks: Vec<&[I]> = input.chunks(chunk).collect();
        let traced = obs.tracer.is_some();
        let mut runs: Vec<SortedRun<M>> = Vec::with_capacity(chunks.len());
        let mut input_bytes = 0u64;
        let mut counters = Counters::new();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        crossbeam::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    scope.spawn(move |_| {
                        let t0 = traced.then(|| obs.now());
                        let mut em = Emitter::new();
                        let mut bytes = 0u64;
                        for rec in *c {
                            bytes += rec.approx_bytes();
                            mapper.map(rec, &mut em);
                        }
                        let emitted = em.emitted() as u64;
                        let (run, worker_counters) = em.finish();
                        let event = t0.map(|t0| {
                            TraceEvent::between_ns(
                                SpanKind::Task,
                                spans::MAP_TASK,
                                ci as u64,
                                t0,
                                obs.now(),
                            )
                            .arg("records", c.len() as u64)
                            .arg("pairs", emitted)
                        });
                        (run, bytes, worker_counters, event)
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((run, bytes, worker_counters, event)) => {
                        runs.push(run);
                        input_bytes += bytes;
                        counters.merge(&worker_counters);
                        events.extend(event);
                    }
                    // Keep draining the remaining handles so the scope can
                    // close; re-raise the first payload afterwards.
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        })
        .unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        obs.record_batch(events);
        (runs, input_bytes, counters)
    }

    /// Runs reducers over the key buckets, work-stealing across worker
    /// threads, with fault-injection retries. Each bucket arrives as a
    /// [`BucketSource`] (resident or spilled) and is consumed by the
    /// reducer as a pull-based [`crate::job::ValueStream`].
    ///
    /// Ownership: without a fault plan each bucket is *moved* into its
    /// reducer (zero clones); with a plan attached the bucket stays resident
    /// and every attempt clones it — the in-process analogue of a re-executed
    /// Hadoop reduce task re-reading its shuffled segment from disk. A
    /// spilled bucket's "clone" is just its run paths: every attempt
    /// re-reads the runs from the spill store.
    fn run_reduce_phase<M, O>(
        &self,
        obs: &Observer<'_>,
        job_name: &str,
        buckets: Vec<(ReducerId, BucketSource<M>)>,
        reducer: &impl Reducer<M, O>,
    ) -> Result<ReducePhaseResult<O>, EngineError>
    where
        M: Record,
        O: Record,
    {
        struct BucketSlot<M> {
            key: ReducerId,
            pairs_received: u64,
            values: parking_lot::Mutex<Option<BucketSource<M>>>,
        }

        /// What one reducer invocation leaves behind: outputs, its load
        /// line, its user counters and (when tracing) its span. Stored per
        /// bucket so the merge below is in bucket order — deterministic no
        /// matter which worker stole which bucket.
        struct ReduceResult<O> {
            key: ReducerId,
            out: Vec<O>,
            load: ReducerLoad,
            counters: Counters,
            event: Option<TraceEvent>,
        }

        let threads = self.cfg.worker_threads.max(1);
        let next = AtomicUsize::new(0);
        let n = buckets.len();
        let faults = self.faults.clone();
        let traced = obs.tracer.is_some();
        let slots: Vec<BucketSlot<M>> = buckets
            .into_iter()
            .map(|(key, source)| BucketSlot {
                key,
                pairs_received: source.len() as u64,
                values: parking_lot::Mutex::new(Some(source)),
            })
            .collect();
        let result_slots: Vec<OnceLock<ReduceResult<O>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        let mut worker_error: Option<EngineError> = None;
        let mut worker_events: Vec<TraceEvent> = Vec::new();
        let mut spill_read_nanos = 0u64;

        // Shared state is captured by reference; the `move` below only
        // copies these references (plus each worker's index) into the
        // closure.
        let slots = &slots;
        let next = &next;
        let faults = &faults;
        let result_refs = &result_slots;

        crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(n.max(1)))
                .map(|w| {
                    scope.spawn(move |_| {
                        // One reading per boundary: each bucket's span ends
                        // where the next one on this worker begins.
                        let stint_start = traced.then(|| obs.now());
                        let mut mark = stint_start;
                        let mut buckets_run = 0u64;
                        let mut spill_read_nanos = 0u64;
                        loop {
                            // Workers pull buckets in key order; results
                            // land in per-bucket slots, so which worker ran
                            // which bucket never reaches the output.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(slot) = slots.get(i) else {
                                break;
                            };
                            let mut attempts = 0u32;
                            loop {
                                attempts += 1;
                                if let Some(plan) = &faults {
                                    if plan.should_fail(job_name, slot.key) {
                                        if attempts >= plan.max_attempts() {
                                            // The job fails, as Hadoop's
                                            // would; surfaced as a typed
                                            // error at the join point.
                                            return Err(EngineError::MaxAttemptsExceeded {
                                                job: job_name.to_string(),
                                                reducer: slot.key,
                                                attempts,
                                            });
                                        }
                                        continue; // retry (re-read below)
                                    }
                                }
                                let taken = if faults.is_some() {
                                    // Retryable run: keep the bucket resident and
                                    // hand the reducer a fresh copy per attempt.
                                    slot.values.lock().clone()
                                } else {
                                    // Fault-free run: move the bucket out.
                                    slot.values.lock().take()
                                };
                                // `next.fetch_add` hands each bucket index to
                                // exactly one worker, so an empty slot means
                                // an engine bug, not a user error.
                                let Some(source) = taken else {
                                    return Err(EngineError::Internal(
                                        "reduce bucket consumed twice",
                                    ));
                                };
                                let spilled = source.is_spilled();
                                let mut out = Vec::new();
                                let mut ctx = ReduceCtx::new(slot.key);
                                let mut values = source.into_stream();
                                reducer.reduce(&mut ctx, &mut values, &mut out);
                                // Streaming can't surface a Result per value,
                                // so a spilled-read failure ends the stream
                                // early and is latched for this check.
                                if let Some(e) = values.io_error() {
                                    return Err(EngineError::Spill {
                                        job: job_name.to_string(),
                                        reducer: slot.key,
                                        detail: e.to_string(),
                                    });
                                }
                                spill_read_nanos += values.io_nanos();
                                let r1 = mark.map(|_| obs.now());
                                let event = mark.zip(r1).map(|(r0, r1)| {
                                    TraceEvent::between_ns(
                                        SpanKind::Reduce,
                                        spans::REDUCE,
                                        w as u64,
                                        r0,
                                        r1,
                                    )
                                    .arg("key", slot.key)
                                    .arg("pairs", slot.pairs_received)
                                    .arg("work", ctx.work())
                                    .arg("out", out.len() as u64)
                                    .arg("spilled", spilled as u64)
                                    .arg(
                                        "active_peak",
                                        ctx.counters().get(names::KERNEL_ACTIVE_PEAK),
                                    )
                                });
                                mark = r1;
                                let load = ReducerLoad {
                                    key: slot.key,
                                    pairs_received: slot.pairs_received,
                                    work: ctx.work(),
                                    output: out.len() as u64,
                                    attempts,
                                };
                                let ReduceCtx { counters, .. } = ctx;
                                let result = ReduceResult {
                                    key: slot.key,
                                    out,
                                    load,
                                    counters,
                                    event,
                                };
                                #[expect(
                                    clippy::indexing_slicing,
                                    reason = "i < n == result_refs.len(), since slots.get(i) succeeded"
                                )]
                                if result_refs[i].set(result).is_err() {
                                    return Err(EngineError::Internal(
                                        "reduce result set twice",
                                    ));
                                }
                                buckets_run += 1;
                                break;
                            }
                        }
                        let stint = stint_start.zip(mark).map(|(t0, t1)| {
                            TraceEvent::between_ns(
                                SpanKind::Task,
                                spans::REDUCE_WORKER,
                                w as u64,
                                t0,
                                t1,
                            )
                            .arg("buckets", buckets_run)
                        });
                        Ok((stint, spill_read_nanos))
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok((event, nanos))) => {
                        worker_events.extend(event);
                        spill_read_nanos += nanos;
                    }
                    Ok(Err(e)) => {
                        worker_error.get_or_insert(e);
                    }
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        })
        .unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }

        // Finished buckets' spans in bucket (key) order, then worker stints
        // in worker order — the deterministic merge of the trace buffers.
        // Recorded before a worker error surfaces, so a failed job's trace
        // keeps every reducer that finished.
        let mut finished: Vec<ReduceResult<O>> = result_slots
            .into_iter()
            .filter_map(OnceLock::into_inner)
            .collect();
        obs.record_batch(finished.iter_mut().filter_map(|r| r.event.take()).collect());
        obs.record_batch(worker_events);
        if let Some(e) = worker_error {
            return Err(e);
        }
        if finished.len() != n {
            return Err(EngineError::Internal("reducer left no result"));
        }
        let mut outs = Vec::with_capacity(n);
        let mut loads = Vec::with_capacity(n);
        let mut counters = Counters::new();
        for r in finished {
            outs.push((r.key, r.out));
            loads.push(r.load);
            counters.merge(&r.counters);
        }
        Ok((outs, loads, counters, spill_read_nanos))
    }
}

/// Shuffle-volume counters accumulated by [`merge_sorted_runs`] — one touch
/// per pair, in the merge itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShuffleStats {
    /// Intermediate pairs merged (the paper's communication cost).
    pub pairs: u64,
    /// Approximate bytes moved mapper → reducer (value bytes + 8-byte key).
    pub bytes: u64,
}

/// The k-way merge core shared by the in-memory and budgeted shuffle
/// paths: invokes `each` for every `(key, value)` pair in merged order
/// (keys ascend; ties between runs break on run index) while accumulating
/// the shuffle-volume counters. An `Err` from `each` aborts the merge.
fn merge_runs_each<M: Record, E>(
    runs: Vec<SortedRun<M>>,
    mut each: impl FnMut(ReducerId, M) -> Result<(), E>,
) -> Result<ShuffleStats, E> {
    let mut iters: Vec<std::vec::IntoIter<(ReducerId, M)>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<(ReducerId, M)>> = iters.iter_mut().map(Iterator::next).collect();
    let mut heap: BinaryHeap<Reverse<(ReducerId, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(run, head)| head.as_ref().map(|(k, _)| Reverse((*k, run))))
        .collect();

    let mut stats = ShuffleStats::default();
    while let Some(Reverse((key, run))) = heap.pop() {
        // A heap entry is pushed only when `heads[run]` was just refilled,
        // so a missing head is unreachable; skip defensively over panicking
        // in the shuffle hot path.
        #[expect(
            clippy::indexing_slicing,
            reason = "run < runs.len(): heap entries carry valid run ids"
        )]
        let Some((_, value)) = heads[run].take() else {
            debug_assert!(false, "heap entry without a head");
            continue;
        };
        stats.pairs += 1;
        stats.bytes += value.approx_bytes() + 8;
        each(key, value)?;
        #[expect(clippy::indexing_slicing, reason = "same valid run id as above")]
        {
            heads[run] = iters[run].next();
        }
        #[expect(clippy::indexing_slicing, reason = "same valid run id as above")]
        if let Some((k, _)) = &heads[run] {
            heap.push(Reverse((*k, run)));
        }
    }
    Ok(stats)
}

/// K-way merges per-worker key-sorted runs into reducer buckets.
///
/// Ties between runs holding the same key break on the run index, so the
/// merged stream is exactly a *stable* sort of the concatenated runs: keys
/// ascend, and values within a key keep mapper-emission order. The full
/// pair vector is never materialized or globally sorted.
pub fn merge_sorted_runs<M: Record>(
    runs: Vec<SortedRun<M>>,
) -> (Vec<(ReducerId, Vec<M>)>, ShuffleStats) {
    let mut buckets: Vec<(ReducerId, Vec<M>)> = Vec::new();
    let result: Result<ShuffleStats, std::convert::Infallible> =
        merge_runs_each(runs, |key, value| {
            match buckets.last_mut() {
                Some((last, vals)) if *last == key => vals.push(value),
                _ => buckets.push((key, vec![value])),
            }
            Ok(())
        });
    let stats = match result {
        Ok(stats) => stats,
        Err(never) => match never {},
    };
    (buckets, stats)
}

/// The budgeted merge's result: per-reducer bucket sources (in-memory or
/// spilled) plus the shuffle volume stats.
type BudgetedShuffle<M> = (Vec<(ReducerId, BucketSource<M>)>, ShuffleStats);

/// The budgeted shuffle: the same merge as [`merge_sorted_runs`], but a
/// bucket buffers at most `store.budget()` approx-bytes before the buffered
/// prefix is flushed to the spill store as a run. A bucket that never
/// overflows comes out as [`BucketSource::InMemory`] — byte-for-byte the
/// fast path — while an overflowing bucket becomes
/// [`BucketSource::Spilled`] over its runs (plus the in-memory tail, also
/// flushed). The merged stream is thread-count-independent, so the flush
/// points — and therefore the whole spill layout — depend only on the
/// budget.
fn merge_sorted_runs_budgeted<M: Record>(
    runs: Vec<SortedRun<M>>,
    store: &mut SpillStore<'_>,
) -> Result<BudgetedShuffle<M>, DfsError> {
    struct OpenBucket<M> {
        key: ReducerId,
        vals: Vec<M>,
        buf_bytes: u64,
        runs: Vec<SpillRun>,
        total: usize,
    }

    fn close<M: Record>(
        store: &mut SpillStore<'_>,
        open: OpenBucket<M>,
    ) -> Result<(ReducerId, BucketSource<M>), DfsError> {
        if open.runs.is_empty() {
            return Ok((open.key, BucketSource::InMemory(open.vals)));
        }
        let mut runs = open.runs;
        if !open.vals.is_empty() {
            runs.push(store.spill_run(open.key, open.vals)?);
        }
        store.note_bucket();
        Ok((
            open.key,
            BucketSource::Spilled(store.bucket(runs, open.total)),
        ))
    }

    let budget = store.budget();
    let mut buckets: Vec<(ReducerId, BucketSource<M>)> = Vec::new();
    let mut cur: Option<OpenBucket<M>> = None;
    let stats = merge_runs_each(runs, |key, value| -> Result<(), DfsError> {
        if cur.as_ref().map(|o| o.key) != Some(key) {
            if let Some(done) = cur.take() {
                buckets.push(close(store, done)?);
            }
            cur = Some(OpenBucket {
                key,
                vals: Vec::new(),
                buf_bytes: 0,
                runs: Vec::new(),
                total: 0,
            });
        }
        let Some(open) = cur.as_mut() else {
            debug_assert!(false, "open bucket was just ensured");
            return Ok(());
        };
        open.buf_bytes += value.approx_bytes();
        open.total += 1;
        open.vals.push(value);
        if open.buf_bytes > budget {
            let run = store.spill_run(open.key, std::mem::take(&mut open.vals))?;
            open.runs.push(run);
            open.buf_bytes = 0;
        }
        Ok(())
    })?;
    if let Some(done) = cur.take() {
        buckets.push(close(store, done)?);
    }
    Ok((buckets, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ValueStream;
    use crate::VirtualClock;

    fn engine() -> Engine {
        Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn groups_all_values_for_a_key() {
        let out = engine()
            .run_job(
                "group",
                &[1u64, 2, 3, 4, 5, 6, 7, 8],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 2, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        assert_eq!(out.outputs, vec![(0, 20), (1, 16)]);
        assert_eq!(out.metrics.distinct_reducers, 2);
        assert_eq!(out.metrics.map_input_records, 8);
    }

    #[test]
    fn value_order_is_emission_order() {
        // All values to one key: reducer must see input order even though
        // the map phase ran on 3 threads.
        let input: Vec<u64> = (0..1000).collect();
        let out = engine()
            .run_job(
                "order",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    out.extend(vs);
                },
            )
            .unwrap();
        assert_eq!(out.outputs, input);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let input: Vec<u64> = (0..500).map(|i| i * 7 % 101).collect();
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
                cost: CostModel::default(),
                ..ClusterConfig::default()
            })
            .run_job(
                "det",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.emit(n % 7, n);
                    if n % 3 == 0 {
                        e.emit(n % 5, n * 2);
                    }
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    for v in vs.by_ref() {
                        out.push((ctx.key, v));
                    }
                },
            )
            .unwrap()
            .outputs
        };
        let base = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), base, "threads = {t}");
        }
    }

    #[test]
    fn empty_input_produces_empty_job() {
        let out = engine()
            .run_job(
                "empty",
                &Vec::<u64>::new(),
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.metrics.intermediate_pairs, 0);
        assert_eq!(out.metrics.distinct_reducers, 0);
    }

    #[test]
    fn metrics_count_pairs_and_outputs() {
        let out = engine()
            .run_job(
                "metrics",
                &[10u64, 20, 30],
                |&n: &u64, e: &mut Emitter<u64>| {
                    // Each record to 2 reducers: 6 pairs.
                    e.emit(0, n);
                    e.emit(1, n);
                },
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    out.push(vs.len() as u64);
                },
            )
            .unwrap();
        assert_eq!(out.metrics.intermediate_pairs, 6);
        assert_eq!(out.metrics.output_records, 2);
        assert_eq!(out.metrics.shuffle_bytes, 6 * 16);
        assert_eq!(out.metrics.map_input_bytes, 3 * 8);
        assert_eq!(out.metrics.output_bytes, 2 * 8);
        assert!(out.metrics.simulated > 0.0);
    }

    #[test]
    fn phase_walls_are_recorded_and_bounded_by_total() {
        let input: Vec<u64> = (0..2000).collect();
        let out = engine()
            .run_job(
                "phases",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 16, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let m = &out.metrics;
        let phases = m.map_wall + m.shuffle_wall + m.reduce_wall;
        assert!(phases <= m.wall, "phases {phases:?} > wall {:?}", m.wall);
        // The phases cover the whole data plane; only metric assembly is
        // outside them, so they cannot all be zero for a 2000-record job.
        assert!(m.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn reducer_work_units_recorded() {
        let out = engine()
            .run_job(
                "work",
                &[1u64, 2, 3],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.add_work(100);
                    out.extend(vs);
                },
            )
            .unwrap();
        assert_eq!(out.metrics.total_work(), 100);
    }

    #[test]
    fn fault_injection_retries_deterministically() {
        let input: Vec<u64> = (0..100).collect();
        let clean = engine()
            .run_job(
                "faulty",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let faulty = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
        .with_faults(FaultPlan::new().fail("faulty", 2, 2))
        .run_job(
            "faulty",
            &input,
            |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                out.push((ctx.key, vs.sum()));
            },
        )
        .unwrap();
        assert_eq!(
            faulty.outputs, clean.outputs,
            "retry must not change output"
        );
        assert_eq!(faulty.metrics.retries(), 2);
        let load2 = faulty
            .metrics
            .reducer_loads
            .iter()
            .find(|l| l.key == 2)
            .unwrap();
        assert_eq!(load2.attempts, 3);
    }

    #[test]
    fn fault_exceeding_attempts_fails_job() {
        let result = Engine::new(ClusterConfig::with_slots(2))
            .with_faults(FaultPlan::new().fail("j", 0, 10).with_max_attempts(3))
            .run_job(
                "j",
                &[1u64],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            );
        match result {
            Err(EngineError::MaxAttemptsExceeded {
                job,
                reducer,
                attempts,
            }) => {
                assert_eq!(job, "j");
                assert_eq!(reducer, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected MaxAttemptsExceeded, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "mapper exploded on 7")]
    fn map_panic_payload_is_reraised() {
        let _ = engine()
            .run_job(
                "boom",
                &(0..32u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| {
                    assert!(n != 7, "mapper exploded on {n}");
                    e.emit(0, n);
                },
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "reducer exploded on key 3")]
    fn reduce_panic_payload_is_reraised() {
        let _ = engine()
            .run_job(
                "boom",
                &(0..32u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    assert!(ctx.key != 3, "reducer exploded on key {}", ctx.key);
                    out.extend(vs);
                },
            )
            .unwrap();
    }

    #[test]
    fn merge_orders_keys_and_preserves_value_order() {
        // Two runs as two map workers would produce them (each key-sorted).
        let (buckets, stats) = merge_sorted_runs(vec![
            vec![(1u64, 'b'), (5, 'a'), (5, 'c')],
            vec![(1, 'd'), (3, 'e')],
        ]);
        assert_eq!(
            buckets,
            vec![(1, vec!['b', 'd']), (3, vec!['e']), (5, vec!['a', 'c'])]
        );
        assert_eq!(stats.pairs, 5);
        assert_eq!(stats.bytes, 5 * (4 + 8)); // char is 4 bytes + 8-byte key
    }

    #[test]
    fn merge_breaks_key_ties_by_run_index() {
        // Every run holds key 0; values must come out in run order.
        let (buckets, _) = merge_sorted_runs(vec![
            vec![(0u64, 1u64), (0, 2)],
            vec![(0, 3)],
            vec![(0, 4), (0, 5)],
        ]);
        assert_eq!(buckets, vec![(0, vec![1, 2, 3, 4, 5])]);
    }

    #[test]
    fn merge_handles_empty_runs() {
        let (buckets, stats) = merge_sorted_runs(vec![Vec::new(), vec![(2u64, 9u64)], Vec::new()]);
        assert_eq!(buckets, vec![(2, vec![9])]);
        assert_eq!(stats.pairs, 1);
        let (empty, stats) = merge_sorted_runs(Vec::<SortedRun<u64>>::new());
        assert!(empty.is_empty());
        assert_eq!(stats, ShuffleStats::default());
    }

    #[test]
    fn counters_merge_from_map_and_reduce() {
        let out = engine()
            .run_job(
                "counted",
                &(0..100u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc(names::PROGRESS_MAP_RECORDS, 1);
                    if n % 2 == 0 {
                        e.inc(names::JOIN_CANDIDATES, 1);
                    }
                    e.emit(n % 4, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    ctx.inc(names::REDUCE_BUCKET_PAIRS, vs.len() as u64);
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let c = &out.metrics.counters;
        assert_eq!(c.get(names::PROGRESS_MAP_RECORDS), 100);
        assert_eq!(c.get(names::JOIN_CANDIDATES), 50);
        assert_eq!(c.get(names::REDUCE_BUCKET_PAIRS), 100);
        assert_eq!(c.get(names::SCHED_GRANTS), 0);
    }

    #[test]
    fn counters_deterministic_across_thread_counts() {
        let input: Vec<u64> = (0..333).collect();
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
                cost: CostModel::default(),
                ..ClusterConfig::default()
            })
            .run_job(
                "cdet",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc(names::JOIN_CANDIDATES, 1 + (n % 3));
                    e.emit(n % 7, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                    out.push(vs.len() as u64);
                },
            )
            .unwrap()
            .metrics
            .counters
            .clone()
        };
        let base = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), base, "threads = {t}");
        }
    }

    #[test]
    fn tracer_records_job_phase_task_and_reduce_spans() {
        let tracer = Arc::new(Tracer::new());
        let eng = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
        .with_tracer(tracer.clone());
        let _ = eng
            .run_job(
                "traced",
                &(0..64u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    ctx.add_work(vs.len() as u64);
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let events = tracer.snapshot();
        let names_of = |kind: SpanKind| -> Vec<String> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.name.clone())
                .collect()
        };
        assert_eq!(names_of(SpanKind::Job), vec!["traced"]);
        assert_eq!(names_of(SpanKind::Phase), vec!["map", "shuffle", "reduce"]);
        // 3 worker threads → 3 map chunks; plus up to 3 reduce-worker stints.
        let tasks = names_of(SpanKind::Task);
        assert_eq!(tasks.iter().filter(|n| *n == "map-task").count(), 3);
        assert!(tasks.iter().filter(|n| *n == "reduce-worker").count() >= 1);
        // One reduce span per bucket, in key order.
        let reduce_keys: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Reduce)
            .map(|e| {
                e.args
                    .iter()
                    .find(|(k, _)| *k == "key")
                    .expect("reduce span has key arg")
                    .1
            })
            .collect();
        assert_eq!(reduce_keys, vec![0, 1, 2, 3]);
        let reduce0 = events.iter().find(|e| e.kind == SpanKind::Reduce).unwrap();
        assert!(reduce0.args.contains(&("pairs", 16)));
        assert!(reduce0.args.contains(&("work", 16)));
        assert!(reduce0.args.contains(&("out", 1)));
        // The export shapes hold on a real trace.
        let json = tracer.chrome_trace();
        assert!(json.contains("\"cat\":\"job\""), "{json}");
        assert!(json.contains("\"cat\":\"phase\""), "{json}");
        assert!(json.contains("\"cat\":\"task\""), "{json}");
    }

    #[test]
    fn no_tracer_records_nothing() {
        let eng = engine();
        assert!(eng.tracer().is_none());
        let out = eng
            .run_job(
                "untraced",
                &[1u64, 2, 3],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
        assert_eq!(out.outputs, vec![1, 2, 3]);
        assert!(out.metrics.counters.is_empty());
    }

    /// Clone-counting value for asserting the zero-clone reduce contract.
    #[derive(Debug, PartialEq)]
    struct Tracked(u64);

    static TRACKED_CLONES: AtomicUsize = AtomicUsize::new(0);

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            TRACKED_CLONES.fetch_add(1, Ordering::SeqCst);
            Tracked(self.0)
        }
    }

    impl Record for Tracked {}

    #[test]
    fn reduce_clones_only_under_fault_plan() {
        // Single test covers both paths so the shared counter sees no
        // interference from parallel test threads (no other test uses
        // `Tracked`).
        let input: Vec<u64> = (0..64).collect();
        let mapper = |&n: &u64, e: &mut Emitter<Tracked>| e.emit(n % 4, Tracked(n));
        let reducer =
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<Tracked>, out: &mut Vec<(u64, u64)>| {
                out.push((ctx.key, vs.map(|t| t.0).sum()));
            };

        let before = TRACKED_CLONES.load(Ordering::SeqCst);
        let clean = engine()
            .run_job("noclone", &input, mapper, reducer)
            .unwrap();
        let clean_clones = TRACKED_CLONES.load(Ordering::SeqCst) - before;
        assert_eq!(clean_clones, 0, "fault-free path must not clone buckets");

        let before = TRACKED_CLONES.load(Ordering::SeqCst);
        let faulty = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
        .with_faults(FaultPlan::new().fail("noclone", 1, 1))
        .run_job("noclone", &input, mapper, reducer)
        .unwrap();
        let fault_clones = TRACKED_CLONES.load(Ordering::SeqCst) - before;
        // One clone per successful attempt: 4 buckets, each reduced once
        // (failed attempts bail before reading values): 64 values across 4
        // buckets of 16.
        assert_eq!(fault_clones, 64, "fault path clones each bucket once");
        assert_eq!(faulty.outputs, clean.outputs);
    }

    fn budgeted_engine(budget: Option<u64>, threads: usize) -> Engine {
        Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: threads,
            reduce_memory_budget: budget,
            ..ClusterConfig::default()
        })
    }

    /// A job whose 3 buckets hold ~133 u64 values (~1 KiB) each.
    fn spill_job(eng: &Engine) -> JobOutput<(u64, u64)> {
        let input: Vec<u64> = (0..400).collect();
        eng.run_job(
            "spilly",
            &input,
            |&n: &u64, e: &mut Emitter<u64>| {
                e.inc(names::PROGRESS_MAP_RECORDS, 1);
                e.emit(n % 3, n);
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                out.push((ctx.key, vs.sum()));
            },
        )
        .unwrap()
    }

    #[test]
    fn tiny_budget_spills_and_matches_unlimited() {
        let base = spill_job(&budgeted_engine(None, 3));
        assert_eq!(base.metrics.counters.get(names::SPILL_BUCKETS), 0);
        assert_eq!(base.metrics.spill_wall, Duration::ZERO);
        for budget in [64, 1024] {
            for threads in [1, 2, 8] {
                let out = spill_job(&budgeted_engine(Some(budget), threads));
                assert_eq!(
                    out.outputs, base.outputs,
                    "budget {budget} threads {threads}"
                );
                assert_eq!(out.metrics.reducer_loads, base.metrics.reducer_loads);
                // Every non-spill counter must match the unlimited run.
                for (k, v) in out.metrics.counters.iter() {
                    if !k.is_execution_shape() {
                        assert_eq!(v, base.metrics.counters.get(k), "counter {k}");
                    }
                }
                let spilled = out.metrics.counters.get(names::SPILL_BUCKETS);
                assert_eq!(spilled, 3, "all three ~1KiB buckets overflow {budget}");
                assert!(out.metrics.counters.get(names::SPILL_RUNS) >= spilled);
                assert!(out.metrics.counters.get(names::SPILL_BYTES) > 0);
            }
        }
    }

    #[test]
    fn spill_layout_is_thread_count_independent() {
        let base = spill_job(&budgeted_engine(Some(128), 1));
        for threads in [2, 8] {
            let out = spill_job(&budgeted_engine(Some(128), threads));
            // Including the spill.* counters: flush points are cut from the
            // merged stream, which never depends on worker_threads.
            assert_eq!(out.metrics.counters, base.metrics.counters);
            assert_eq!(out.outputs, base.outputs);
        }
    }

    #[test]
    fn generous_budget_stays_in_memory() {
        let out = spill_job(&budgeted_engine(Some(1 << 20), 3));
        assert_eq!(out.metrics.counters.get(names::SPILL_BUCKETS), 0);
        assert_eq!(out.metrics.counters.get(names::SPILL_RUNS), 0);
        assert_eq!(out.metrics.spill_wall, Duration::ZERO);
    }

    #[test]
    fn spilled_values_keep_emission_order() {
        // All values to one key, budget far below the bucket size: the
        // reducer must still see exact input order through the spill runs.
        let input: Vec<u64> = (0..3000).collect();
        let out = budgeted_engine(Some(256), 3)
            .run_job(
                "spill-order",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    out.extend(vs);
                },
            )
            .unwrap();
        assert_eq!(out.outputs, input);
        assert_eq!(out.metrics.counters.get(names::SPILL_BUCKETS), 1);
        assert!(out.metrics.counters.get(names::SPILL_RUNS) > 1);
    }

    #[test]
    fn spilled_bucket_fault_retry_rereads_runs() {
        let input: Vec<u64> = (0..600).collect();
        let run = |eng: Engine| {
            eng.run_job(
                "spill-faulty",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap()
        };
        let clean = run(budgeted_engine(Some(128), 3));
        let faulty = run(
            budgeted_engine(Some(128), 3).with_faults(FaultPlan::new().fail("spill-faulty", 2, 2)),
        );
        assert_eq!(faulty.outputs, clean.outputs);
        assert_eq!(faulty.metrics.retries(), 2);
    }

    #[test]
    fn spill_spans_reach_the_tracer() {
        let tracer = Arc::new(Tracer::new());
        let eng = budgeted_engine(Some(64), 2).with_tracer(tracer.clone());
        let _ = spill_job(&eng);
        let spills: Vec<_> = tracer
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == SpanKind::Spill)
            .collect();
        assert!(!spills.is_empty(), "budgeted run must record spill spans");
        assert!(spills.iter().all(|e| e.name == "spill-run"));
        assert!(tracer.chrome_trace().contains("\"cat\":\"spill\""));

        // A reduce span carries the spilled flag.
        let reduce = tracer
            .snapshot()
            .into_iter()
            .find(|e| e.kind == SpanKind::Reduce)
            .unwrap();
        assert!(reduce.args.contains(&("spilled", 1)));
    }

    /// The duration of the one span of `kind` named `name`.
    fn span_dur_us(events: &[TraceEvent], kind: SpanKind, name: &str) -> u64 {
        let mut matching = events.iter().filter(|e| e.kind == kind && e.name == name);
        let ev = matching.next().expect("span recorded");
        assert!(matching.next().is_none(), "one {name} span per job");
        ev.dur_us
    }

    #[test]
    fn walls_and_spans_share_one_clock() {
        // A traced run: each phase wall is the phase span's duration, up
        // to the span's truncation to whole microseconds.
        let tracer = Arc::new(Tracer::new());
        let out = spill_job(&budgeted_engine(Some(64), 2).with_tracer(tracer.clone()));
        let m = &out.metrics;
        let events = tracer.snapshot();
        for (wall, kind, name) in [
            (m.wall, SpanKind::Job, "spilly"),
            (m.map_wall, SpanKind::Phase, spans::MAP),
            (m.shuffle_wall, SpanKind::Phase, spans::SHUFFLE),
            (m.reduce_wall, SpanKind::Phase, spans::REDUCE),
        ] {
            let dur_ns = span_dur_us(&events, kind, name) as i128 * 1000;
            let gap = (wall.as_nanos() as i128 - dur_ns).abs();
            assert!(gap < 1000, "{name}: wall {wall:?} vs span {dur_ns} ns");
        }

        // A virtual clock that never advances: every wall and every span
        // reads zero, because nothing else in the engine reads time.
        let frozen = Arc::new(Tracer::with_clock(Arc::new(VirtualClock::new())));
        let out = spill_job(&budgeted_engine(Some(64), 2).with_tracer(frozen.clone()));
        let m = &out.metrics;
        assert!(m.counters.get(names::SPILL_RUNS) > 0, "the job spilled");
        for w in [
            m.wall,
            m.map_wall,
            m.shuffle_wall,
            m.reduce_wall,
            m.spill_wall,
        ] {
            assert_eq!(w, Duration::ZERO);
        }
        let events = frozen.snapshot();
        assert!(events.iter().any(|e| e.kind == SpanKind::Spill));
        assert!(events.iter().all(|e| e.start_us == 0 && e.dur_us == 0));
    }

    #[test]
    fn budgeted_merge_splits_buckets_at_flush_points() {
        // One key, 8-byte values, budget 32: a run flushes after every 5th
        // value (40 > 32), so 12 values make 2 full runs + a 2-value tail.
        let run: SortedRun<u64> = (0..12u64).map(|v| (0, v)).collect();
        let mut store = SpillStore::new(32, Arc::new(MonotonicClock::new()), None);
        let (buckets, stats) = merge_sorted_runs_budgeted(vec![run], &mut store).unwrap();
        assert_eq!(stats.pairs, 12);
        assert_eq!(buckets.len(), 1);
        let (key, source) = &buckets[0];
        assert_eq!(*key, 0);
        assert!(source.is_spilled());
        assert_eq!(source.len(), 12);
        let (spill_stats, _) = store.finish();
        assert_eq!(spill_stats.buckets, 1);
        assert_eq!(spill_stats.runs, 3);
        assert_eq!(spill_stats.bytes, 12 * 8);
    }
}
