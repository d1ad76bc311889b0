//! Count mode against Materialize mode, algorithm by algorithm.
//!
//! Counting takes the kernels' count leaf (no binding is built), while
//! materializing enumerates every binding. Both must agree on the result
//! size and on the work the reducers report: `join.candidates` (the
//! candidates in the scanned windows), `join.emitted` and the simulated
//! cluster time. The cost model here charges nothing per output record,
//! since a counting reducer writes one record where a materializing one
//! writes a record per tuple; what is left is pairs and work units.

use ij_core::algorithm::Algorithm;
use ij_core::all_matrix::AllMatrix;
use ij_core::all_replicate::AllReplicate;
use ij_core::hybrid::{AllSeqMatrix, Pasm};
use ij_core::one_bucket::OneBucketTheta;
use ij_core::oracle::oracle_join;
use ij_core::rccis::Rccis;
use ij_core::two_way::TwoWayJoin;
use ij_core::{JoinInput, JoinOutput, OutputMode};
use ij_interval::AllenPredicate::{self, *};
use ij_interval::{Interval, Relation};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, CostModel, Engine};
use ij_query::{Condition, JoinQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rel(rng: &mut StdRng, n: usize) -> Relation {
    Relation::from_intervals(
        "R",
        (0..n).map(|_| {
            let s = rng.gen_range(0..600);
            Interval::new(s, s + rng.gen_range(0..=60)).unwrap()
        }),
    )
}

fn engine() -> Engine {
    Engine::new(ClusterConfig {
        cost: CostModel {
            output_cost: 0.0,
            ..CostModel::default()
        },
        ..ClusterConfig::with_slots(4)
    })
}

/// One algorithm in a given mode.
type Build = fn(OutputMode) -> Box<dyn Algorithm>;

/// Every algorithm that joins through `kernel::reduce_into`, with a query
/// of a class it supports.
fn cases() -> Vec<(&'static str, Build, JoinQuery)> {
    let chain = |p: &[AllenPredicate]| JoinQuery::chain(p).unwrap();
    let hybrid = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    vec![
        (
            "RCCIS",
            |mode| {
                Box::new(Rccis {
                    mode,
                    ..Rccis::new(5)
                })
            },
            chain(&[Overlaps, Contains]),
        ),
        (
            "All-Replicate",
            |mode| {
                Box::new(AllReplicate {
                    partitions: 4,
                    mode,
                })
            },
            chain(&[Overlaps, Overlaps]),
        ),
        (
            "All-Seq-Matrix",
            |mode| Box::new(AllSeqMatrix { per_dim: 4, mode }),
            hybrid.clone(),
        ),
        ("PASM", |mode| Box::new(Pasm { per_dim: 4, mode }), hybrid),
        (
            "All-Matrix",
            |mode| {
                Box::new(AllMatrix {
                    mode,
                    ..AllMatrix::new(3)
                })
            },
            chain(&[Before, Before]),
        ),
        (
            "Two-Way",
            |mode| {
                Box::new(TwoWayJoin {
                    mode,
                    ..TwoWayJoin::new(4)
                })
            },
            chain(&[Overlaps]),
        ),
        (
            "One-Bucket",
            |mode| {
                Box::new(OneBucketTheta {
                    mode,
                    ..OneBucketTheta::new(2, 3)
                })
            },
            chain(&[Before]),
        ),
    ]
}

fn run(build: Build, mode: OutputMode, q: &JoinQuery, input: &JoinInput) -> JoinOutput {
    build(mode)
        .run(q, input, &engine())
        .expect("algorithm runs")
}

#[test]
fn count_mode_agrees_with_materialize_mode() {
    for (name, build, q) in cases() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rels = (0..q.num_relations())
                .map(|_| random_rel(&mut rng, 60))
                .collect();
            let input = JoinInput::bind_owned(&q, rels).unwrap();
            let counted = run(build, OutputMode::Count, &q, &input);
            let listed = run(build, OutputMode::Materialize, &q, &input);
            assert_eq!(listed.sorted_tuples(), oracle_join(&q, &input), "{name}");
            assert_eq!(
                counted.count,
                listed.tuples.len() as u64,
                "{name} seed {seed}"
            );
            for counter in [names::JOIN_CANDIDATES, names::JOIN_EMITTED] {
                assert_eq!(
                    counted.chain.counter(counter),
                    listed.chain.counter(counter),
                    "{name} seed {seed}: {counter}"
                );
            }
            assert_eq!(
                counted.chain.total_simulated(),
                listed.chain.total_simulated(),
                "{name} seed {seed}: simulated time"
            );
        }
    }
}

#[test]
fn every_algorithm_records_its_join_counters() {
    for (name, build, q) in cases() {
        let mut rng = StdRng::seed_from_u64(9);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, 60))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        for mode in [OutputMode::Count, OutputMode::Materialize] {
            let out = run(build, mode, &q, &input);
            let candidates = out.chain.counter(names::JOIN_CANDIDATES);
            let emitted = out.chain.counter(names::JOIN_EMITTED);
            assert!(emitted > 0, "{name} {mode:?}: no join.emitted");
            assert!(
                candidates >= emitted,
                "{name} {mode:?}: {candidates} < {emitted}"
            );
            assert_eq!(emitted, out.count, "{name} {mode:?}");
        }
    }
}
