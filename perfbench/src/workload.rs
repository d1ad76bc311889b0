//! The benchmark's workloads, their set-up through the public entry points
//! users take, and output verification against a reference computed by a
//! different algorithm family.

use ij_core::algorithm::AlgoError;
use ij_core::all_replicate::AllReplicate;
use ij_core::estimate::auto_tune;
use ij_core::hybrid::fcts::Fcts;
use ij_core::{plan, Algorithm, JoinInput, JoinOutput, OutputMode, OutputTuple, PlanConfig};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::Relation;
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::{parse_query, JoinQuery};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Reduce slots handed to `auto_tune`, the paper's 16 reduce processes.
const SLOTS: usize = 16;

/// One benchmark workload.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The query, in the paper's notation.
    pub query: &'static str,
    /// Count or materialize.
    pub mode: OutputMode,
    /// The engine's `reduce_memory_budget`; everything else stays default.
    pub budget: Option<u64>,
    /// One generator config per relation, from the seed.
    relations: fn(u64) -> Vec<SynthConfig>,
    /// The reference algorithm, from another family than the planner's.
    reference: fn(&PlanConfig) -> Box<dyn Algorithm>,
}

/// Relation `r`'s generator seed under the benchmark seed `seed`.
fn rel_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(r)
}

fn uniform(n: usize, t_max: i64, i_max: i64, seed: u64) -> SynthConfig {
    SynthConfig {
        n,
        t_max,
        i_max,
        ..SynthConfig::table1(n, seed)
    }
}

fn all_replicate(cfg: &PlanConfig) -> Box<dyn Algorithm> {
    Box::new(AllReplicate {
        partitions: 4,
        mode: cfg.mode,
    })
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "q1-uniform",
        query: "R1 overlaps R2 and R2 overlaps R3",
        mode: OutputMode::Count,
        budget: None,
        relations: |seed| {
            (0..3)
                .map(|r| SynthConfig::table1(50_000, rel_seed(seed, r)))
                .collect()
        },
        reference: all_replicate,
    },
    Workload {
        name: "q1-sparse-spill",
        query: "R1 overlaps R2 and R2 overlaps R3",
        mode: OutputMode::Materialize,
        budget: Some(64 << 10),
        relations: |seed| {
            (0..3)
                .map(|r| uniform(500_000, 20_000_000, 100, rel_seed(seed, r)))
                .collect()
        },
        reference: all_replicate,
    },
    Workload {
        name: "q4-hybrid-skew",
        query: "R1 before R2 and R1 overlaps R3",
        mode: OutputMode::Count,
        budget: None,
        relations: |seed| {
            let r1 = SynthConfig {
                ds: Distribution::Zipf { theta: 2.0 },
                ..uniform(50_000, 200_000, 400, rel_seed(seed, 0))
            };
            let small = |r| uniform(1_000, 200_000, 400, rel_seed(seed, r));
            vec![r1, small(1), small(2)]
        },
        reference: |cfg| {
            Box::new(Fcts {
                partitions: cfg.partitions,
                per_dim: cfg.per_dim,
                mode: cfg.mode,
            })
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the set-up stages produce: the parsed query, the planner's
/// choice and the bound input.
pub struct Setup {
    pub query: JoinQuery,
    pub plan: PlanConfig,
    pub algorithm: Box<dyn Algorithm>,
    pub input: JoinInput,
}

impl Workload {
    /// Stage 1: generates the relations (`SynthConfig::generate`).
    pub fn generate(&self, seed: u64) -> Vec<Relation> {
        (self.relations)(seed)
            .iter()
            .enumerate()
            .map(|(r, cfg)| cfg.generate(format!("R{}", r + 1)))
            .collect()
    }

    /// Stage 2: parses the query and lets the planner pick the algorithm
    /// (`parse_query` → `auto_tune` → `plan`).
    pub fn parse_plan(&self) -> (JoinQuery, PlanConfig, Box<dyn Algorithm>) {
        let query = parse_query(self.query).expect("workload queries parse");
        let plan_cfg = PlanConfig {
            mode: self.mode,
            ..auto_tune(&query, SLOTS)
        };
        let algorithm = plan(&query, plan_cfg);
        (query, plan_cfg, algorithm)
    }

    /// Stage 3: binds the relations to the query (`JoinInput::bind_owned`).
    pub fn bind(query: &JoinQuery, relations: Vec<Relation>) -> JoinInput {
        JoinInput::bind_owned(query, relations).expect("one relation per query relation")
    }

    /// The engine the workload runs on: every default, except the
    /// workload's memory budget.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            reduce_memory_budget: self.budget,
            ..ClusterConfig::default()
        }
    }

    /// Computes the expected output with the reference algorithm on an
    /// unbudgeted default engine.
    pub fn reference(&self, setup: &Setup) -> Result<Expected, AlgoError> {
        let algorithm = (self.reference)(&setup.plan);
        let engine = Engine::new(ClusterConfig::default());
        let out = algorithm.run(&setup.query, &setup.input, &engine)?;
        Ok(Expected::of(&out))
    }
}

/// The reference result an output must equal: the count in Count mode,
/// the sorted tuple list in Materialize mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Count(u64),
    Tuples(Vec<OutputTuple>),
}

impl Expected {
    pub fn of(out: &JoinOutput) -> Expected {
        match out.mode {
            OutputMode::Count => Expected::Count(out.count),
            OutputMode::Materialize => Expected::Tuples(out.sorted_tuples()),
        }
    }
}

/// A compact identity of one output (count plus a hash of the sorted
/// tuples), kept to check that every iteration equals the first without
/// holding the first's tuples on the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    count: u64,
    hash: u64,
}

/// Checks one output against the reference; returns its fingerprint.
fn check(out: &JoinOutput, expected: &Expected) -> Result<Fingerprint, String> {
    let mut hasher = DefaultHasher::new();
    match expected {
        Expected::Count(n) if out.mode == OutputMode::Count => {
            if out.count != *n {
                return Err(format!("count {} != reference {n}", out.count));
            }
        }
        Expected::Tuples(want) if out.mode == OutputMode::Materialize => {
            let got = out.sorted_tuples();
            if got != *want || out.count != want.len() as u64 {
                return Err(format!(
                    "{} tuples (count {}) differ from the reference's {}",
                    got.len(),
                    out.count,
                    want.len()
                ));
            }
            got.hash(&mut hasher);
        }
        _ => {
            return Err(format!(
                "output mode {:?} differs from the reference's",
                out.mode
            ))
        }
    }
    Ok(Fingerprint {
        count: out.count,
        hash: hasher.finish(),
    })
}

/// Attempted and failed query iterations. A failure is an `Err` from the
/// run, an output that differs from the reference, or one that differs
/// from the first iteration's.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first: Option<Fingerprint>,
}

impl Tally {
    /// Records one iteration's result; returns the failure, if any.
    pub fn record(
        &mut self,
        result: &Result<JoinOutput, AlgoError>,
        expected: &Expected,
    ) -> Option<String> {
        self.attempted += 1;
        let verdict = match result {
            Err(e) => Err(format!("run failed: {e}")),
            Ok(out) => check(out, expected).and_then(|fp| match self.first {
                Some(first) if first != fp => {
                    Err("output differs from the first iteration's".into())
                }
                _ => {
                    self.first = Some(fp);
                    Ok(())
                }
            }),
        };
        verdict.err().inspect(|_| self.failed += 1)
    }

    /// The share of attempted iterations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::Interval;

    /// A small Q1 input with a known, non-empty result.
    fn tiny() -> Setup {
        let w = find("q1-sparse-spill").unwrap();
        let (query, plan, algorithm) = w.parse_plan();
        let rels = (0..3u64)
            .map(|r| {
                Relation::from_intervals(
                    format!("R{r}"),
                    (0..40).map(|i| {
                        let s = (i * 37 + r as i64 * 11) % 300;
                        Interval::new(s, s + 30).unwrap()
                    }),
                )
            })
            .collect();
        let input = Workload::bind(&query, rels);
        Setup {
            query,
            plan,
            algorithm,
            input,
        }
    }

    fn run(setup: &Setup) -> Result<JoinOutput, AlgoError> {
        let engine = Engine::new(find("q1-sparse-spill").unwrap().cluster());
        setup.algorithm.run(&setup.query, &setup.input, &engine)
    }

    #[test]
    fn reference_agrees_with_the_planned_algorithm() {
        let setup = tiny();
        let expected = find("q1-sparse-spill").unwrap().reference(&setup).unwrap();
        let mut tally = Tally::default();
        for _ in 0..2 {
            assert_eq!(tally.record(&run(&setup), &expected), None);
        }
        assert_eq!((tally.attempted, tally.failed), (2, 0));
    }

    #[test]
    fn a_corrupted_reference_counts_as_a_failure() {
        let w = find("q1-sparse-spill").unwrap();
        let setup = tiny();
        let expected = w.reference(&setup).unwrap();
        let Expected::Tuples(mut tuples) = expected.clone() else {
            panic!("materialize mode gives tuples");
        };
        assert!(tuples.len() > 1, "the tiny input must join");
        tuples.pop();
        let mut tally = Tally::default();
        assert!(tally
            .record(&run(&setup), &Expected::Tuples(tuples))
            .is_some());
        // The run goes on: a later good iteration still passes.
        assert_eq!(tally.record(&run(&setup), &expected), None);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);
    }

    #[test]
    fn an_error_counts_as_a_failure() {
        let mut tally = Tally::default();
        let err = Err(AlgoError::BadConfig("injected".into()));
        assert!(tally.record(&err, &Expected::Count(0)).is_some());
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for w in WORKLOADS {
            let sizes = |seed| {
                (w.relations)(seed)
                    .iter()
                    .map(|c| (c.n, c.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sizes(7), sizes(7), "{}", w.name);
            assert_ne!(sizes(7), sizes(8), "{}", w.name);
        }
    }
}
