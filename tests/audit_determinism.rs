//! Whole-suite determinism audit: every algorithm family, threads 1/2/8,
//! budgets unlimited and pinned low.
//!
//! `tests/determinism.rs` checks two families end to end. This test
//! closes the gap: it runs *all twelve* audited family/query cases on a
//! seeded workload under `worker_threads` 1, 2 and 8, serializes each
//! run's output tuples, chain `total_counters` and the data-plane fold of
//! its trace **through the Dfs** (the store the algorithms chain cycles
//! through), and byte-diffs the snapshots across thread counts. Every
//! family is re-run with `reduce_memory_budget` pinned to
//! [`SPILL_BUDGET`], so the spill-to-Dfs reduce path is byte-diffed
//! against the in-memory baseline too. A skew leg repeats the thread ×
//! budget matrix on a workload whose intervals crowd one hot region, so
//! one reducer bucket dominates the reduce phase.
//!
//! The workload comes from a tiny LCG rather than an RNG crate, so the
//! data the audit covers is pinned by this file alone.

use ij_core::all_matrix::AllMatrix;
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::gen_matrix::GenMatrix;
use ij_core::hybrid::{AllSeqMatrix, Fcts, Fstc, Pasm};
use ij_core::one_bucket::OneBucketTheta;
use ij_core::rccis::Rccis;
use ij_core::two_way::TwoWayJoin;
use ij_core::{Algorithm, JoinInput};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_interval::{Interval, Relation};
use ij_mapreduce::metrics::names::{self, Name};
use ij_mapreduce::{
    ClusterConfig, CostModel, Dfs, Engine, TelemetrySnapshot, Tracer, VirtualClock,
};
use ij_query::JoinQuery;
use std::sync::Arc;

/// Thread counts every algorithm family is audited under.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The pinned low reduce-memory budget (approx bytes per bucket) every
/// family is re-audited under. Small enough that interval-record buckets
/// at the audit scales spill to the Dfs, so the audit byte-diffs the
/// *spilled* reduce path against the in-memory baseline.
const SPILL_BUDGET: u64 = 256;

/// The audit verdict for one algorithm family.
#[derive(Debug)]
struct AuditCase {
    /// Algorithm name.
    algorithm: &'static str,
    /// Output tuple count of the baseline run (the workload must actually
    /// exercise the join).
    output_count: u64,
    /// Which unlimited-budget thread counts diverged from the baseline.
    diverged: Vec<usize>,
    /// Which thread counts diverged under the pinned [`SPILL_BUDGET`].
    budget_diverged: Vec<usize>,
    /// Buckets spilled under the pinned budget (single-thread run): how
    /// hard the budgeted re-audit actually exercised the spill path.
    spilled_buckets: u64,
}

/// The skew leg: a deliberately skewed bucket mix run under every
/// thread count × budget, byte-diffed against the single-thread
/// unbudgeted baseline.
#[derive(Debug)]
struct SkewAudit {
    /// The combinations that diverged, as `threads[+budget]`.
    diverged: Vec<String>,
    /// Output tuple count of the baseline run.
    output_count: u64,
}

/// The full audit result.
#[derive(Debug)]
struct AuditReport {
    /// One entry per algorithm family.
    cases: Vec<AuditCase>,
    /// The skewed-mix leg.
    skew: SkewAudit,
}

/// A splitmix-style LCG: deterministic, dependency-free workload seeds.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Builds a seeded workload of `n` intervals per relation over a dense
/// time domain (plenty of overlap, so every algorithm family produces
/// output).
fn workload(q: &JoinQuery, seed: u64, n: usize) -> JoinInput {
    let mut rng = Lcg(seed);
    let rels: Vec<Relation> = (0..q.num_relations())
        .map(|r| {
            Relation::from_intervals(
                format!("R{r}"),
                (0..n).map(|_| {
                    let s = (rng.next() % 400) as i64;
                    let len = (rng.next() % 50) as i64;
                    Interval::new(s, s + len).expect("len >= 0")
                }),
            )
        })
        .collect();
    JoinInput::bind_owned(q, rels).expect("relation count matches query")
}

/// A deliberately skewed workload for the skew leg: 7/8 of the intervals
/// crowd a hot region at the start of the time domain, so one reducer
/// bucket dominates the reduce phase.
fn skewed_workload(q: &JoinQuery, seed: u64, n: usize) -> JoinInput {
    let mut rng = Lcg(seed);
    let rels: Vec<Relation> = (0..q.num_relations())
        .map(|r| {
            Relation::from_intervals(
                format!("R{r}"),
                (0..n).map(|_| {
                    let hot = !rng.next().is_multiple_of(8);
                    let span = if hot { 40 } else { 400 };
                    let s = (rng.next() % span) as i64;
                    let len = (rng.next() % 50) as i64;
                    Interval::new(s, s + len).expect("len >= 0")
                }),
            )
        })
        .collect();
    JoinInput::bind_owned(q, rels).expect("relation count matches query")
}

fn engine_with_threads(threads: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        reduce_memory_budget: budget,
        cost: CostModel::default(),
    })
}

/// A satisfiable colocation *clique* — every pair directly conditioned,
/// so reducers route to the event-list sweep (the `[Overlaps, Overlaps]`
/// chain does not qualify and stays on the dual-window sweep; both
/// colocation kernel paths are audited). Shared by the suite and the
/// skew leg.
fn clique_query() -> JoinQuery {
    JoinQuery::new(
        3,
        vec![
            ij_query::Condition::whole(0, Overlaps, 1),
            ij_query::Condition::whole(1, Contains, 2),
            ij_query::Condition::whole(0, Overlaps, 2),
        ],
    )
    .expect("colocation clique")
}

/// The audited suite: every algorithm family with a query class it
/// supports (colocation for RCCIS/All-Rep, hybrid for the cascade and
/// matrix family, sequence for All-Matrix, two-way for 1-Bucket).
fn suite() -> Vec<(Box<dyn Algorithm>, JoinQuery)> {
    let colo = JoinQuery::chain(&[Overlaps, Overlaps]).expect("colocation chain");
    let hybrid = JoinQuery::chain(&[Overlaps, Before]).expect("hybrid chain");
    let seq = JoinQuery::chain(&[Before, Before]).expect("sequence chain");
    let pair = JoinQuery::chain(&[Overlaps]).expect("two-way chain");
    let clique = clique_query();
    vec![
        (Box::new(Rccis::new(6)) as Box<dyn Algorithm>, colo.clone()),
        (Box::new(AllReplicate::new(4)), colo.clone()),
        (Box::new(AllReplicate::new(4)), clique),
        (Box::new(TwoWayCascade::new(4)), hybrid.clone()),
        (Box::new(AllMatrix::new(3)), seq.clone()),
        (Box::new(AllSeqMatrix::new(3)), hybrid.clone()),
        (Box::new(Pasm::new(3)), hybrid.clone()),
        (Box::new(GenMatrix::new(3)), hybrid.clone()),
        (Box::new(Fcts::new(4, 3)), hybrid.clone()),
        (Box::new(Fstc::new(4, 3)), hybrid),
        (Box::new(OneBucketTheta::new(4, 4)), pair.clone()),
        (Box::new(TwoWayJoin::new(4)), pair),
    ]
}

/// One run's observations: the byte snapshot that joins the determinism
/// diff, plus the spill counter the audit asserts on separately.
struct Snapshot {
    /// Output tuples, data-plane counters and data-plane telemetry,
    /// written through and read back from a fresh [`Dfs`].
    bytes: Vec<u8>,
    /// Output tuple count.
    count: u64,
    /// The run's `spill.buckets` total.
    spilled_buckets: u64,
}

/// Runs one thread/budget combination and captures a [`Snapshot`].
fn snapshot(
    algo: &dyn Algorithm,
    q: &JoinQuery,
    input: &JoinInput,
    threads: usize,
    budget: Option<u64>,
) -> Snapshot {
    // A virtual clock keeps every span timestamp at zero. The data-plane
    // fold of the trace joins the byte-diff below, so gauge or histogram
    // drift across thread counts or budgets fails the audit exactly like
    // output drift.
    let tracer = Arc::new(Tracer::with_clock(Arc::new(VirtualClock::new())));
    let engine = engine_with_threads(threads, budget).with_tracer(Arc::clone(&tracer));
    let out = algo
        .run(q, input, &engine)
        .unwrap_or_else(|e| panic!("{} failed under {threads} threads: {e}", algo.name()));
    let mut lines = Vec::with_capacity(out.tuples.len() + 8);
    lines.push(format!("algorithm={}", algo.name()));
    lines.push(format!("count={}", out.count));
    for t in &out.tuples {
        lines.push(format!("{t:?}"));
    }
    let counters = out.chain.total_counters();
    for (k, v) in counters.iter() {
        // Execution-shape counters (`kernel.active_peak`, `spill.*`)
        // describe how the run was physically carried out — they may be
        // budget-dependent, so like the wall-time metrics they are
        // excluded from the byte-diff. Every data-plane counter
        // (emission, candidate, replica and kernel-routing counts) stays.
        if k.is_execution_shape() {
            continue;
        }
        lines.push(format!("counter {k}={v}"));
    }
    let folded = TelemetrySnapshot::from_events(&tracer.snapshot());
    for line in folded.data_plane().to_prometheus().lines() {
        lines.push(format!("telemetry {line}"));
    }
    let dfs = Dfs::new();
    let path = format!("audit/{}", algo.name());
    dfs.write(&path, lines).expect("fresh dfs path");
    let stored = dfs.read::<String>(&path).expect("just written");
    Snapshot {
        bytes: stored.join("\n").into_bytes(),
        count: out.count,
        spilled_buckets: counters.get(names::SPILL_BUCKETS),
    }
}

/// Runs the audit at `scale` intervals per relation.
///
/// Each family is audited twice per thread count: with an unlimited
/// reduce-memory budget (the in-memory merge path) and with the pinned
/// [`SPILL_BUDGET`] (the spill-to-Dfs path). Every run must byte-match
/// the single-thread unlimited baseline. The skewed-mix leg (see
/// [`SkewAudit`]) then repeats the same matrix on a hot-region workload.
fn run_audit(scale: usize) -> AuditReport {
    let mut cases = Vec::new();
    for (algo, q) in suite() {
        let input = workload(&q, 0x5eed + q.num_relations() as u64, scale);
        let base = snapshot(algo.as_ref(), &q, &input, THREAD_COUNTS[0], None);
        let mut diverged = Vec::new();
        for &t in &THREAD_COUNTS[1..] {
            if snapshot(algo.as_ref(), &q, &input, t, None).bytes != base.bytes {
                diverged.push(t);
            }
        }
        let mut budget_diverged = Vec::new();
        let mut spilled_buckets = 0;
        for (i, &t) in THREAD_COUNTS.iter().enumerate() {
            let s = snapshot(algo.as_ref(), &q, &input, t, Some(SPILL_BUDGET));
            if i == 0 {
                spilled_buckets = s.spilled_buckets;
            }
            if s.bytes != base.bytes {
                budget_diverged.push(t);
            }
        }
        cases.push(AuditCase {
            algorithm: algo.name(),
            output_count: base.count,
            diverged,
            budget_diverged,
            spilled_buckets,
        });
    }
    AuditReport {
        cases,
        skew: run_skew_audit(scale),
    }
}

/// The skew leg: All-Replicate on the colocation clique over the
/// hot-region [`skewed_workload`], run under [`THREAD_COUNTS`] ×
/// {unbudgeted, [`SPILL_BUDGET`]} and byte-diffed against the
/// single-thread unbudgeted baseline.
fn run_skew_audit(scale: usize) -> SkewAudit {
    let q = clique_query();
    let algo = AllReplicate::new(4);
    let input = skewed_workload(&q, 0x5ca1ed, scale);
    let base = snapshot(&algo, &q, &input, THREAD_COUNTS[0], None);
    let mut diverged = Vec::new();
    for &t in &THREAD_COUNTS {
        for budget in [None, Some(SPILL_BUDGET)] {
            if snapshot(&algo, &q, &input, t, budget).bytes != base.bytes {
                diverged.push(match budget {
                    None => format!("{t}"),
                    Some(b) => format!("{t}+{b}B"),
                });
            }
        }
    }
    SkewAudit {
        diverged,
        output_count: base.count,
    }
}

#[test]
fn all_algorithm_families_are_byte_identical_across_thread_counts() {
    for scale in [40, 60, 80] {
        let report = run_audit(scale);
        assert_eq!(
            report.cases.len(),
            12,
            "expected every algorithm family to be audited"
        );
        for case in &report.cases {
            assert!(
                case.diverged.is_empty() && case.budget_diverged.is_empty(),
                "scale {scale}: {} diverged from the single-thread baseline at threads {:?} \
                 (budget {SPILL_BUDGET}B at {:?}) (of {THREAD_COUNTS:?})",
                case.algorithm,
                case.diverged,
                case.budget_diverged
            );
            // The workload must actually exercise the join — a zero-output
            // run would pass the diff vacuously.
            assert!(
                case.output_count > 0,
                "scale {scale}: {} produced no output tuples",
                case.algorithm
            );
        }
        // The pinned budget must actually drive at least one family through
        // the spill path, or the budgeted re-audit is vacuous.
        assert!(
            report.cases.iter().any(|c| c.spilled_buckets > 0),
            "scale {scale}: no family spilled under the pinned {SPILL_BUDGET}B budget:\n{:#?}",
            report.cases
        );
        // The skew leg: byte-identical across threads × budgets on the
        // hot-region mix, and the mix must actually join.
        assert!(
            report.skew.diverged.is_empty(),
            "scale {scale}: skewed mix diverged at {:?}",
            report.skew.diverged
        );
        assert!(
            report.skew.output_count > 0,
            "scale {scale}: skew leg produced no output"
        );
    }
}

#[test]
fn lcg_is_deterministic() {
    let draw = || {
        let mut r = Lcg(7);
        (0..5).map(|_| r.next()).collect::<Vec<u64>>()
    };
    assert_eq!(draw(), draw());
}

#[test]
fn audit_snapshots_embed_data_plane_telemetry() {
    let (algo, q) = suite().remove(0);
    let input = workload(&q, 0x5eed + q.num_relations() as u64, 40);
    let s = snapshot(algo.as_ref(), &q, &input, 1, None);
    let text = String::from_utf8(s.bytes).expect("utf8");
    assert!(
        text.contains("telemetry # TYPE ij_progress_jobs_started gauge"),
        "telemetry lines missing from audit snapshot"
    );
    assert!(text.contains("telemetry # TYPE ij_reduce_bucket_pairs histogram"));
    let reducers_done = text
        .lines()
        .find_map(|l| l.strip_prefix("telemetry ij_progress_reducers_done "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("reducers-done series present");
    assert!(reducers_done > 0, "no reduce span was folded:\n{text}");
    // Execution-shape names must NOT be in the byte-diffed bytes.
    assert!(!text.contains("ij_reduce_service_us"));
    assert!(!text.contains("ij_map_task_records"));
    assert!(!text.contains("ij_spill_run_bytes"));
}

#[test]
fn clique_family_routes_to_event_sweep() {
    // The third suite entry is the colocation clique; its reducers must
    // dispatch to the event-list sweep, and the routing counter — a
    // data-plane counter — must land in the byte-diffed snapshot.
    let (algo, q) = suite().remove(2);
    assert_eq!(q.conditions().len(), 3, "clique has all three pairs");
    let input = workload(&q, 0x5eed + q.num_relations() as u64, 40);
    let s = snapshot(algo.as_ref(), &q, &input, 1, None);
    let text = String::from_utf8(s.bytes).expect("utf8");
    let buckets = text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("counter {}=", names::KERNEL_EVENT_SWEEP_BUCKETS)))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("event sweep routing counter present in snapshot");
    assert!(buckets > 0, "clique reducers never took the event sweep");
}

#[test]
fn execution_shape_classifiers_are_registry_backed() {
    // One per-entry flag serves counters, series and histograms: exactly
    // these registered names are execution-shape, and the naming
    // conventions (`spill.*` for spill layout, `*_us` for wall time)
    // agree with the flag.
    let shape: Vec<Name> = names::ALL
        .iter()
        .copied()
        .filter(|n| n.is_execution_shape())
        .collect();
    assert_eq!(
        shape,
        [
            names::KERNEL_ACTIVE_PEAK,
            names::SPILL_BUCKETS,
            names::SPILL_RUNS,
            names::SPILL_BYTES,
            names::MAP_TASK_RECORDS,
            names::REDUCE_SERVICE_US,
            names::SPILL_RUN_BYTES,
            names::PROGRESS_MAP_TASKS,
        ]
    );
    for name in names::ALL {
        let s = name.as_str();
        if s.starts_with("spill.") || s.ends_with("_us") {
            assert!(name.is_execution_shape(), "{name}");
        }
    }
    // A counter family, a series and a histogram, all through the one flag.
    assert!(names::SPILL_RUNS.is_execution_shape());
    assert!(names::PROGRESS_MAP_TASKS.is_execution_shape());
    assert!(names::REDUCE_SERVICE_US.is_execution_shape());
    assert!(!names::REDUCE_BUCKET_PAIRS.is_execution_shape());
}
