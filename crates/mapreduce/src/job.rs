//! Mapper and reducer abstractions.
//!
//! A mapper turns one input record into intermediate `(ReducerId, value)`
//! pairs via an [`Emitter`]; the engine routes all pairs with the same key to
//! the same reducer invocation. Reducers receive their key, the values in
//! deterministic (mapper-emission) order, and a [`ReduceCtx`] through which
//! they report *work units* — the quantity the simulated cost model charges
//! for reducer compute (e.g. candidate pairs examined by a join).

use crate::dfs::DfsError;
use crate::metrics::Counters;
use crate::record::Record;
use crate::spill::{RunCursor, SpilledBucket};
use crate::telemetry::{HeartbeatHook, Telemetry};
use std::sync::Arc;

/// Identifies a logical reducer. Join algorithms encode either a 1-D
/// partition index or the coordinates of a cell in an m-dimensional reducer
/// matrix into this id (see `ij-core`'s `CellSpace`).
pub type ReducerId = u64;

/// One map worker's output, stably sorted by reducer key: the in-process
/// analogue of a Hadoop map task's sorted spill file. Runs from different
/// workers are combined by [`crate::engine::merge_sorted_runs`].
pub type SortedRun<M> = Vec<(ReducerId, M)>;

/// The map-side context: collects the intermediate pairs a mapper emits
/// and carries the worker's user-defined [`Counters`].
///
/// One `Emitter` lives per map worker (not per record), so counters
/// incremented here accumulate across the worker's whole chunk and are
/// merged across workers by the engine — the map half of Hadoop's
/// user-counter facility. [`MapCtx`] is an alias making the context role
/// explicit at algorithm call sites.
#[derive(Debug)]
pub struct Emitter<M> {
    pub(crate) pairs: Vec<(ReducerId, M)>,
    pub(crate) counters: Counters,
}

/// The map-side context handed to [`Mapper`]s — an alias for [`Emitter`]
/// (the emitter *is* the per-worker map context; see its docs).
pub type MapCtx<M> = Emitter<M>;

impl<M> Emitter<M> {
    pub(crate) fn new() -> Self {
        Emitter {
            pairs: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Emits one intermediate pair `(key, value)` — i.e. communicates
    /// `value` to reducer `key`.
    #[inline]
    pub fn emit(&mut self, key: ReducerId, value: M) {
        self.pairs.push((key, value));
    }

    /// Emits the same value to every key in `keys`, cloning as needed.
    pub fn emit_to_all(&mut self, keys: impl IntoIterator<Item = ReducerId>, value: &M)
    where
        M: Clone,
    {
        for k in keys {
            self.pairs.push((k, value.clone()));
        }
    }

    /// Number of pairs emitted so far by this worker.
    pub fn emitted(&self) -> usize {
        self.pairs.len()
    }

    /// Adds `delta` to the user counter `name` (Hadoop-style; merged
    /// across workers into [`crate::JobMetrics::counters`]).
    #[inline]
    pub fn inc(&mut self, name: &str, delta: u64) {
        self.counters.inc(name, delta);
    }

    /// The counters this worker accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Finishes the worker's map output as a key-sorted run (Hadoop's
    /// map-side sort before the spill). The sort is stable, so values for
    /// one key stay in emission order — the engine's determinism contract.
    pub fn into_sorted_run(self) -> SortedRun<M> {
        self.finish().0
    }

    /// Finishes the worker: the key-sorted run (see [`Emitter::into_sorted_run`])
    /// plus the worker's accumulated counters.
    pub(crate) fn finish(self) -> (SortedRun<M>, Counters) {
        let mut pairs = self.pairs;
        pairs.sort_by_key(|(k, _)| *k);
        (pairs, self.counters)
    }
}

/// Map side of a job: one input record in, intermediate pairs out.
///
/// Implemented for any `Fn(&I, &mut Emitter<M>) + Sync`, so jobs are usually
/// written as closures.
pub trait Mapper<I, M>: Sync {
    /// Processes one input record.
    fn map(&self, record: &I, out: &mut Emitter<M>);
}

impl<I, M, F> Mapper<I, M> for F
where
    F: Fn(&I, &mut Emitter<M>) + Sync,
{
    #[inline]
    fn map(&self, record: &I, out: &mut Emitter<M>) {
        self(record, out)
    }
}

/// Per-invocation context handed to a reducer.
#[derive(Debug)]
pub struct ReduceCtx {
    /// The key this invocation owns.
    pub key: ReducerId,
    pub(crate) work: u64,
    pub(crate) counters: Counters,
}

impl ReduceCtx {
    /// A fresh context for the reducer owning `key` — what the engine
    /// hands every invocation, and what tests and the oracle construct
    /// directly.
    pub fn new(key: ReducerId) -> Self {
        ReduceCtx {
            key,
            work: 0,
            counters: Counters::new(),
        }
    }

    /// Reports `units` of compute done by this reducer (candidate pairs
    /// examined, comparisons, …). Feeds the simulated cost model; a reducer
    /// that never calls this is charged only for the pairs it received.
    #[inline]
    pub fn add_work(&mut self, units: u64) {
        self.work += units;
    }

    /// Work units reported so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Adds `delta` to the user counter `name` (Hadoop-style; merged
    /// across reducers into [`crate::JobMetrics::counters`]).
    #[inline]
    pub fn inc(&mut self, name: &str, delta: u64) {
        self.counters.inc(name, delta);
    }

    /// The counters this invocation accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

/// Where a reduce bucket's values physically live: resident in memory (the
/// fast path — zero behavior change from the pre-streaming engine) or
/// spilled to DFS runs when the bucket overflowed
/// [`crate::ClusterConfig::reduce_memory_budget`]. Either way,
/// [`BucketSource::into_stream`] yields the values in the engine's
/// deterministic bucket order.
#[derive(Debug)]
pub enum BucketSource<M> {
    /// The bucket fit its budget and stayed resident.
    InMemory(Vec<M>),
    /// The bucket overflowed and lives as DFS runs (see [`crate::spill`]).
    Spilled(SpilledBucket<M>),
}

impl<M: Clone> Clone for BucketSource<M> {
    fn clone(&self) -> Self {
        match self {
            BucketSource::InMemory(v) => BucketSource::InMemory(v.clone()),
            BucketSource::Spilled(b) => BucketSource::Spilled(b.clone()),
        }
    }
}

impl<M: Record> BucketSource<M> {
    /// Number of values in the bucket.
    pub fn len(&self) -> usize {
        match self {
            BucketSource::InMemory(v) => v.len(),
            BucketSource::Spilled(b) => b.len(),
        }
    }

    /// Whether the bucket holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bucket was spilled to DFS.
    pub fn is_spilled(&self) -> bool {
        matches!(self, BucketSource::Spilled(_))
    }

    /// The pull-based value stream a reducer consumes.
    pub fn into_stream(self) -> ValueStream<M> {
        match self {
            BucketSource::InMemory(v) => ValueStream::from_vec(v),
            BucketSource::Spilled(b) => {
                let total = b.len();
                ValueStream {
                    remaining: total,
                    inner: StreamInner::Spilled(b.cursor()),
                    hb: None,
                }
            }
        }
    }
}

#[derive(Debug)]
enum StreamInner<M> {
    Mem(std::vec::IntoIter<M>),
    Spilled(RunCursor<M>),
}

/// The pull-based view of one reduce bucket's values, in deterministic
/// (mapper-emission) order — what [`Reducer::reduce`] consumes instead of
/// a resident `&mut Vec<M>`.
///
/// It is an [`Iterator`] (and [`ExactSizeIterator`]), so reducer bodies
/// use `values.by_ref()` where they previously drained a vector, or any
/// adapter (`sum`, `map`, `collect`, …) directly. For spilled buckets each
/// `next` may fetch a chunk from the DFS; a read failure ends the stream
/// early and is latched in [`ValueStream::io_error`], which the engine
/// checks after the reducer returns (surfaced as
/// [`crate::EngineError::Spill`]).
#[derive(Debug)]
pub struct ValueStream<M> {
    inner: StreamInner<M>,
    remaining: usize,
    hb: Option<HeartbeatHook>,
}

impl<M: Record> ValueStream<M> {
    /// A stream over an in-memory value vector (what tests and standalone
    /// reducer invocations construct directly).
    pub fn from_vec(values: Vec<M>) -> Self {
        ValueStream {
            remaining: values.len(),
            inner: StreamInner::Mem(values.into_iter()),
            hb: None,
        }
    }

    /// Attaches reduce-side heartbeat bookkeeping: every `every`-th pull
    /// emits a telemetry heartbeat for reducer `id`, and the exact pull
    /// count is flushed into the progress gauges when the stream drops.
    pub(crate) fn enable_heartbeats(
        &mut self,
        telemetry: Arc<Telemetry>,
        job: Arc<str>,
        id: ReducerId,
        every: u64,
    ) {
        self.hb = Some(HeartbeatHook::new(telemetry, job, id, every));
    }

    /// Values not yet pulled.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Whether the stream reads back spilled DFS runs.
    pub fn is_spilled(&self) -> bool {
        matches!(self.inner, StreamInner::Spilled(_))
    }

    /// Drains the rest of the stream into a vector (the materializing
    /// escape hatch for reducers that genuinely need random access).
    pub fn take_vec(&mut self) -> Vec<M> {
        self.by_ref().collect()
    }

    /// The latched DFS read error, if streaming a spilled bucket failed.
    pub fn io_error(&self) -> Option<&DfsError> {
        match &self.inner {
            StreamInner::Mem(_) => None,
            StreamInner::Spilled(c) => c.error(),
        }
    }

    /// Cumulative wall time this stream spent reading spilled runs.
    pub(crate) fn io_nanos(&self) -> u64 {
        match &self.inner {
            StreamInner::Mem(_) => 0,
            StreamInner::Spilled(c) => c.io_nanos(),
        }
    }
}

impl<M: Record> Iterator for ValueStream<M> {
    type Item = M;

    fn next(&mut self) -> Option<M> {
        let v = match &mut self.inner {
            StreamInner::Mem(it) => it.next(),
            StreamInner::Spilled(c) => c.next_value(),
        };
        match &v {
            // An early end (spilled-read error) zeroes the count so
            // `len`/`size_hint` stay consistent with what `next` returns.
            None => self.remaining = 0,
            Some(_) => {
                self.remaining -= 1;
                if let Some(hb) = &mut self.hb {
                    hb.tick();
                }
            }
        }
        v
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<M: Record> ExactSizeIterator for ValueStream<M> {}

impl<M> Drop for ValueStream<M> {
    fn drop(&mut self) {
        // Flush the sub-quantum pull remainder so progress.reduce_values
        // lands on the exact pull count even for partially consumed
        // streams.
        if let Some(hb) = &mut self.hb {
            hb.flush();
        }
    }
}

/// Reduce side of a job: all values routed to one key in, output records out.
///
/// Implemented for any `Fn(&mut ReduceCtx, &mut ValueStream<M>, &mut Vec<O>) + Sync`.
/// Values arrive as a pull-based [`ValueStream`] in deterministic
/// (mapper-emission) order; small buckets stream straight out of memory,
/// budget-overflow buckets stream back from DFS spill runs — the reducer
/// body is identical either way.
pub trait Reducer<M, O>: Sync {
    /// Processes the group for `ctx.key`.
    fn reduce(&self, ctx: &mut ReduceCtx, values: &mut ValueStream<M>, out: &mut Vec<O>);
}

impl<M, O, F> Reducer<M, O> for F
where
    F: Fn(&mut ReduceCtx, &mut ValueStream<M>, &mut Vec<O>) + Sync,
{
    #[inline]
    fn reduce(&self, ctx: &mut ReduceCtx, values: &mut ValueStream<M>, out: &mut Vec<O>) {
        self(ctx, values, out)
    }
}

/// An identity mapper routing every record to key 0 — occasionally useful in
/// tests and for single-reducer aggregations.
pub fn route_all_to_one<I: Record>(record: &I, out: &mut Emitter<I>) {
    out.emit(0, record.clone());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_pairs() {
        let mut e: Emitter<u32> = Emitter::new();
        e.emit(3, 10);
        e.emit(3, 11);
        e.emit(7, 12);
        assert_eq!(e.emitted(), 3);
        assert_eq!(e.pairs, vec![(3, 10), (3, 11), (7, 12)]);
    }

    #[test]
    fn emit_to_all_clones() {
        let mut e: Emitter<String> = Emitter::new();
        e.emit_to_all(0..3, &"x".to_string());
        assert_eq!(e.emitted(), 3);
        assert!(e.pairs.iter().all(|(_, v)| v == "x"));
    }

    #[test]
    fn into_sorted_run_is_stable() {
        let mut e: Emitter<char> = Emitter::new();
        e.emit(5, 'a');
        e.emit(1, 'b');
        e.emit(5, 'c');
        e.emit(1, 'd');
        assert_eq!(
            e.into_sorted_run(),
            vec![(1, 'b'), (1, 'd'), (5, 'a'), (5, 'c')]
        );
    }

    #[test]
    fn reduce_ctx_accumulates_work() {
        let mut ctx = ReduceCtx::new(5);
        ctx.add_work(10);
        ctx.add_work(7);
        assert_eq!(ctx.work(), 17);
        assert_eq!(ctx.key, 5);
    }

    #[test]
    fn contexts_accumulate_counters() {
        let mut e: Emitter<u32> = Emitter::new();
        e.inc("replicas", 3);
        e.inc("replicas", 2);
        e.inc("crossing", 1);
        assert_eq!(e.counters().get("replicas"), 5);
        let (_, counters) = e.finish();
        assert_eq!(counters.get("crossing"), 1);

        let mut ctx = ReduceCtx::new(0);
        ctx.inc("candidates", 10);
        ctx.inc("emitted", 4);
        assert_eq!(ctx.counters().get("candidates"), 10);
        assert_eq!(ctx.counters().get("emitted"), 4);
    }

    #[test]
    fn closures_implement_traits() {
        fn assert_mapper<M: Mapper<u32, u32>>(_m: &M) {}
        fn assert_reducer<R: Reducer<u32, u32>>(_r: &R) {}
        let m = |r: &u32, out: &mut Emitter<u32>| out.emit(0, *r);
        let r =
            |_ctx: &mut ReduceCtx, vs: &mut ValueStream<u32>, out: &mut Vec<u32>| out.extend(vs);
        assert_mapper(&m);
        assert_reducer(&r);
    }

    #[test]
    fn value_stream_over_vec_preserves_order_and_len() {
        let mut s = ValueStream::from_vec(vec![3u64, 1, 4, 1, 5]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_spilled());
        assert_eq!(s.next(), Some(3));
        assert_eq!(s.len(), 4);
        assert_eq!(s.by_ref().collect::<Vec<_>>(), vec![1, 4, 1, 5]);
        assert!(s.is_empty());
        assert!(s.io_error().is_none());
        assert_eq!(s.io_nanos(), 0);
    }

    #[test]
    fn value_stream_take_vec_drains_remainder() {
        let mut s = ValueStream::from_vec(vec![1u64, 2, 3]);
        assert_eq!(s.next(), Some(1));
        assert_eq!(s.take_vec(), vec![2, 3]);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn bucket_source_reports_shape() {
        let b = BucketSource::InMemory(vec![1u64, 2]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_spilled());
        assert!(!b.is_empty());
        let mut s = b.into_stream();
        assert_eq!(s.by_ref().collect::<Vec<_>>(), vec![1, 2]);
    }
}
