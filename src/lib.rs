//! Facade crate: re-exports the whole interval-joins-on-MapReduce stack —
//! a Rust reproduction of *Processing Interval Joins On Map-Reduce*
//! (Chawda et al., EDBT 2014).
//!
//! This is the crate downstream users depend on; the workspace's examples
//! and cross-crate integration tests are built against it.
//!
//! * [`interval`] — interval model, Allen's algebra, partitioning, ops.
//! * [`mapreduce`] — the deterministic MapReduce engine.
//! * [`query`] — join query model, components, less-than-order.
//! * [`join`] — the join algorithms (RCCIS, All-Matrix, …).
//! * [`datagen`] — synthetic and packet-train workload generators.
//!
//! # Example
//!
//! ```
//! use interval_joins_mr::prelude::*;
//!
//! // The paper's Q0-style colocation query, in its own notation.
//! let query = parse_query("R1 overlaps R2 and R2 contains R3")?;
//!
//! let iv = |s, e| Interval::new(s, e).unwrap();
//! let input = JoinInput::bind_owned(
//!     &query,
//!     vec![
//!         Relation::from_intervals("R1", vec![iv(0, 40), iv(70, 90)]),
//!         Relation::from_intervals("R2", vec![iv(15, 60), iv(75, 95)]),
//!         Relation::from_intervals("R3", vec![iv(20, 50), iv(80, 85)]),
//!     ],
//! )?;
//!
//! // A simulated 16-slot cluster, like the paper's; the planner picks
//! // RCCIS (Section 6.1) for this query class.
//! let engine = Engine::new(ClusterConfig::with_slots(16));
//! let algorithm = interval_joins_mr::join::plan(&query, Default::default());
//! assert_eq!(algorithm.name(), "RCCIS");
//!
//! let out = algorithm.run(&query, &input, &engine)?;
//! assert_eq!(out.count, 2);
//! assert_eq!(out.chain.num_cycles(), 2); // RCCIS = marking + join
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Invariants the compiler checks
//!
//! Metric names and the kernels' single-attribute precondition are types
//! (DESIGN.md §15). Counters take a registered
//! [`mapreduce::metrics::names::Name`], and a kernel takes a
//! [`join::SingleAttr`] proof:
//!
//! ```
//! use interval_joins_mr::join::{executor::Candidates, kernel, SingleAttr};
//! use interval_joins_mr::mapreduce::{metrics::names, Counters};
//! use interval_joins_mr::prelude::*;
//!
//! let mut counters = Counters::new();
//! counters.inc(names::SPILL_RUNS, 1);
//! assert_eq!(counters.get(names::REDUCE_SERVICE_US), 0);
//!
//! let query = parse_query("R1 overlaps R2")?;
//! let mut cands = Candidates::new(2);
//! cands.finish();
//! let proof = SingleAttr::new(&query).expect("one attribute per relation");
//! let mut n = 0;
//! kernel::execute(proof, &cands, &kernel::Owner::all(), kernel::Sink::Count(&mut n));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A name the registry does not declare is a type error:
//!
//! ```compile_fail,E0308
//! use interval_joins_mr::mapreduce::Counters;
//! let mut counters = Counters::new();
//! counters.inc("spill.rogue", 1);
//! ```
//!
//! So is a literal that spells a registered name instead of naming its
//! constant:
//!
//! ```compile_fail,E0308
//! use interval_joins_mr::mapreduce::Counters;
//! let counters = Counters::new();
//! counters.get("reduce.service_us");
//! ```
//!
//! A `Name` cannot be built outside the registry module:
//!
//! ```compile_fail,E0624
//! use interval_joins_mr::mapreduce::metrics::names::Name;
//! let rogue = Name::data_plane("spill.rogue");
//! ```
//!
//! And a kernel cannot be handed a query whose single-attribute class was
//! never checked:
//!
//! ```compile_fail,E0308
//! use interval_joins_mr::join::{executor::Candidates, kernel};
//! use interval_joins_mr::prelude::*;
//! let query = parse_query("R1 overlaps R2").unwrap();
//! let mut cands = Candidates::new(2);
//! cands.finish();
//! let mut n = 0;
//! kernel::execute(&query, &cands, &kernel::Owner::all(), kernel::Sink::Count(&mut n));
//! ```

pub use ij_core as join;
pub use ij_datagen as datagen;
pub use ij_interval as interval;
pub use ij_mapreduce as mapreduce;
pub use ij_query as query;

pub mod prelude {
    //! One-stop imports for typical use.
    pub use ij_core::{Algorithm, JoinInput, JoinOutput, OutputMode, OutputTuple};
    pub use ij_interval::{AllenPredicate, Interval, Partitioning, RelId, Relation};
    pub use ij_mapreduce::{ClusterConfig, Engine};
    pub use ij_query::{parse_query, JoinQuery};
}
