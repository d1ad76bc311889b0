//! A deterministic, in-process MapReduce engine.
//!
//! This crate is the substrate the paper's join algorithms run on. The paper
//! evaluated on Hadoop 0.20.2 over a 16-core cluster; the algorithms,
//! however, are defined purely in terms of the MapReduce *contract*:
//!
//! 1. map functions turn each input record into intermediate
//!    `(reducer-id, value)` pairs;
//! 2. the framework routes all pairs with the same key to the same reducer;
//! 3. reducers process their group and emit output records;
//! 4. multi-cycle algorithms chain jobs through a distributed file system.
//!
//! The engine implements that contract faithfully on an in-process thread
//! pool and — crucially for reproducing the paper's evaluation — records the
//! quantities the paper's analysis is about:
//!
//! * the number of intermediate key-value pairs (communication volume),
//! * per-reducer load (the load-balancing story of Sections 6–7),
//! * a simulated cluster elapsed time in which reducers are packed onto a
//!   fixed number of *slots* (16 in the paper), so a straggler reducer
//!   dominates a cycle exactly as it would on the real cluster.
//!
//! Execution is deterministic: shuffle groups are keyed and value order is
//! the mappers' emission order, independent of thread count. The shuffle is
//! *partitioned* like Hadoop's: each map worker finishes its output as a
//! key-sorted run, and [`merge_sorted_runs`] k-way merges the runs into
//! reducer buckets — no code path sorts the full intermediate-pair vector.
//! Reducers take ownership of their bucket (cloned per attempt only when a
//! [`FaultPlan`] is attached), and each phase's wall time and byte volume is
//! reported separately in [`JobMetrics`].
//!
//! Reducers consume their bucket as a pull-based [`ValueStream`]. With
//! [`ClusterConfig::reduce_memory_budget`] set, a bucket whose values
//! exceed the budget is spilled to an engine-internal [`Dfs`] as sorted
//! runs and streamed back on demand (see [`spill`]) — the reducer body is
//! identical, and outputs stay byte-identical, either way.
//!
//! ```
//! use ij_mapreduce::{Engine, ClusterConfig, Emitter, ReduceCtx, ValueStream};
//!
//! let engine = Engine::new(ClusterConfig::default());
//! // Word-count style: route each number to key (n % 3) and sum per key.
//! let out = engine.run_job(
//!     "sum-mod-3",
//!     &[1u64, 2, 3, 4, 5, 6],
//!     |&n: &u64, out: &mut Emitter<u64>| out.emit(n % 3, n),
//!     |ctx: &mut ReduceCtx, values: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
//!         out.push((ctx.key, values.sum()));
//!     },
//! ).unwrap();
//! assert_eq!(out.outputs, vec![(0, 9), (1, 5), (2, 7)]);
//! assert_eq!(out.metrics.intermediate_pairs, 6);
//! ```

// No panic in the engine (DESIGN.md §11): every failure a job can meet
// surfaces as a typed `EngineError`. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod chain;
pub mod cost;
pub mod dfs;
pub mod engine;
pub mod error;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod record;
pub mod spill;
pub mod telemetry;
pub mod trace;

pub use chain::JobChain;
pub use cost::{CostModel, PhaseCost};
pub use dfs::{Dfs, DfsError, DfsStats};
pub use engine::{merge_sorted_runs, ClusterConfig, Engine, JobOutput, ShuffleStats};
pub use error::EngineError;
pub use fault::FaultPlan;
pub use job::{
    BucketSource, Emitter, MapCtx, Mapper, ReduceCtx, Reducer, ReducerId, SortedRun, ValueStream,
};
pub use metrics::{is_execution_shape, Counters, JobMetrics, ReducerLoad, SkewReport};
pub use record::Record;
pub use spill::{SpillStats, SpilledBucket};
pub use telemetry::{
    Clock, FlightRecorder, Histogram, HistogramRegistry, MonotonicClock, Straggler, Telemetry,
    TelemetryConfig, TelemetryEvent, TelemetrySnapshot, VirtualClock,
};
pub use trace::{SpanKind, TraceEvent, Tracer};
