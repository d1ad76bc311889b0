//! Metrics folded from the trace: the engine's clock, fixed-bound
//! histograms and the Prometheus text exposition.
//!
//! Nothing here is fed while a job runs. The engine stamps one event
//! stream (see [`crate::trace`]) from one [`Clock`], and
//! [`TelemetrySnapshot::from_events`] folds a [`crate::Tracer::snapshot`]
//! into series and histograms after the fact.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic output.** The data-plane projection of a
//!    [`TelemetrySnapshot`] (every name whose
//!    [`crate::metrics::names::Name::is_execution_shape`] flag is unset) must be byte-identical across `worker_threads` and memory
//!    budgets, exactly like engine outputs and data-plane
//!    [`crate::Counters`]. Histograms use fixed log2 bucket bounds, so
//!    the fold's result does not depend on the order events arrived in.
//! 2. **No ambient wall clock.** Every timestamp flows through the
//!    injectable [`Clock`]; only [`MonotonicClock::new`] reads
//!    `Instant::now`, so the workspace's `clippy::disallowed_methods` ban
//!    needs one exemption in this crate instead of one per call site.

pub mod clock;
pub mod hist;
pub mod snapshot;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HIST_BUCKETS};
pub use snapshot::TelemetrySnapshot;
