//! The dynamic determinism auditor (`repolint audit`).
//!
//! The static rules exist to protect one property: a job chain's output
//! is byte-identical for every worker-thread count. This module checks
//! the property directly — it runs the full algorithm suite (RCCIS,
//! cascade, 1-Bucket, All-Replicate and the matrix family) on a seeded
//! workload under `worker_threads` 1, 2 and 8, serializes each run's
//! output **through the Dfs** (the same store the algorithms chain
//! cycles through), and byte-diffs the Dfs contents across thread
//! counts. User counters from the whole chain are serialized into the
//! same snapshot, so counter drift fails the audit too. Every family is
//! additionally re-run with the reduce-memory budget pinned to
//! [`SPILL_BUDGET`], so the spilled reduce path is byte-diffed against
//! the in-memory baseline under every thread count as well. A skew leg
//! repeats the thread × budget matrix on a workload whose intervals
//! crowd one hot region, so one reducer bucket dominates the reduce
//! phase.
//!
//! The workload comes from a tiny in-module LCG rather than an RNG
//! crate: the auditor itself must be deterministic (the workspace's
//! `disallowed_methods` ban on entropy applies to this crate as well).

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
use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    is_execution_shape, ClusterConfig, CostModel, Dfs, Engine, Telemetry, TelemetryConfig,
    VirtualClock,
};
use ij_query::JoinQuery;
use std::sync::Arc;

/// Thread counts every algorithm family is audited under.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The pinned low reduce-memory budget (approx bytes per bucket) every
/// family is re-audited under. Small enough that interval-record buckets
/// at the default audit scale spill to the Dfs, so the audit byte-diffs
/// the *spilled* reduce path against the in-memory baseline.
pub const SPILL_BUDGET: u64 = 256;

/// The audit verdict for one algorithm family.
#[derive(Debug)]
pub struct AuditCase {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Whether all thread counts produced byte-identical snapshots.
    pub identical: bool,
    /// Output tuple count of the baseline run (sanity: the workload must
    /// actually exercise the join).
    pub output_count: u64,
    /// Which unlimited-budget thread counts diverged from the baseline.
    pub diverged: Vec<usize>,
    /// Which thread counts diverged under the pinned [`SPILL_BUDGET`].
    pub budget_diverged: Vec<usize>,
    /// Buckets spilled under the pinned budget (single-thread run) — how
    /// hard the budgeted re-audit actually exercised the spill path.
    pub spilled_buckets: u64,
}

/// The skew leg: a deliberately skewed bucket mix run under every
/// thread count × budget, byte-diffed against the single-thread
/// unbudgeted baseline.
#[derive(Debug, Default)]
pub struct SkewAudit {
    /// Whether every thread/budget combination was byte-identical.
    pub identical: bool,
    /// The combinations that diverged, as `threads[+budget]`.
    pub diverged: Vec<String>,
    /// Output tuple count of the baseline run.
    pub output_count: u64,
}

/// The full audit result.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// One entry per algorithm family.
    pub cases: Vec<AuditCase>,
    /// The skewed-mix leg.
    pub skew: Option<SkewAudit>,
}

impl AuditReport {
    /// Whether every family, and the skew leg, was byte-identical across
    /// all thread counts and budgets.
    pub fn deterministic(&self) -> bool {
        !self.cases.is_empty()
            && self.cases.iter().all(|c| c.identical)
            && self.skew.as_ref().is_some_and(|s| s.identical)
    }

    /// Human-readable summary, one line per family.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cases {
            let verdict = if c.identical {
                format!("byte-identical ({} spilled buckets)", c.spilled_buckets)
            } else if c.budget_diverged.is_empty() {
                format!("DIVERGED at threads {:?}", c.diverged)
            } else {
                format!(
                    "DIVERGED at threads {:?}, budget {SPILL_BUDGET}B at {:?}",
                    c.diverged, c.budget_diverged
                )
            };
            out.push_str(&format!(
                "{:16} threads {:?}: {} ({} output tuples)\n",
                c.algorithm, THREAD_COUNTS, verdict, c.output_count,
            ));
        }
        if let Some(s) = &self.skew {
            let verdict = if s.identical {
                "byte-identical".to_string()
            } else {
                format!("DIVERGED at {:?}", s.diverged)
            };
            out.push_str(&format!(
                "skew leg (hot-region mix) threads {THREAD_COUNTS:?}: {verdict} ({} output tuples)\n",
                s.output_count,
            ));
        }
        out.push_str(if self.deterministic() {
            "audit: PASS — all families byte-identical across thread counts and budgets\n"
        } else {
            "audit: FAIL — nondeterministic output detected\n"
        });
        out
    }
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
) -> Result<Snapshot, String> {
    // A virtual clock keeps telemetry timestamps at zero, and a small
    // heartbeat quantum makes reduce-side heartbeats actually fire at
    // audit scale — the data-plane telemetry snapshot joins the byte-diff
    // below, so heartbeat/gauge/histogram drift across thread counts or
    // budgets fails the audit exactly like output drift.
    let telemetry = Arc::new(Telemetry::with_clock(
        TelemetryConfig {
            heartbeat_every: 8,
            ..TelemetryConfig::default()
        },
        Arc::new(VirtualClock::new()),
    ));
    let engine = engine_with_threads(threads, budget).with_telemetry(Arc::clone(&telemetry));
    let out = algo
        .run(q, input, &engine)
        .map_err(|e| format!("{} failed under {threads} threads: {e}", algo.name()))?;
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
        if is_execution_shape(k) {
            continue;
        }
        lines.push(format!("counter {k}={v}"));
    }
    let tel_snapshot = telemetry.snapshot();
    for line in tel_snapshot.data_plane().to_prometheus().lines() {
        lines.push(format!("telemetry {line}"));
    }
    let dfs = Dfs::new();
    let path = format!("audit/{}", algo.name());
    dfs.write(&path, lines)
        .map_err(|e| format!("dfs write failed: {e}"))?;
    let stored = dfs
        .read::<String>(&path)
        .map_err(|e| format!("dfs read failed: {e}"))?;
    Ok(Snapshot {
        bytes: stored.join("\n").into_bytes(),
        count: out.count,
        spilled_buckets: counters.get(names::SPILL_BUCKETS),
    })
}

/// Runs the audit. `scale` is the per-relation interval count (the CLI
/// default is 120 — small enough to finish in seconds, dense enough to
/// produce thousands of candidate pairs per reducer).
///
/// Each family is audited twice per thread count: with an unlimited
/// reduce-memory budget (the in-memory merge path) and with the pinned
/// [`SPILL_BUDGET`] (the spill-to-Dfs path). Every run must byte-match
/// the single-thread unlimited baseline. The skewed-mix leg (see
/// [`SkewAudit`]) then repeats the same matrix on a hot-region workload.
pub fn run_audit(scale: usize) -> Result<AuditReport, String> {
    let mut report = AuditReport::default();
    for (algo, q) in suite() {
        let input = workload(&q, 0x5eed + q.num_relations() as u64, scale);
        let base = snapshot(algo.as_ref(), &q, &input, THREAD_COUNTS[0], None)?;
        let mut diverged = Vec::new();
        for &t in &THREAD_COUNTS[1..] {
            let s = snapshot(algo.as_ref(), &q, &input, t, None)?;
            if s.bytes != base.bytes {
                diverged.push(t);
            }
        }
        let mut budget_diverged = Vec::new();
        let mut spilled_buckets = 0;
        for (i, &t) in THREAD_COUNTS.iter().enumerate() {
            let s = snapshot(algo.as_ref(), &q, &input, t, Some(SPILL_BUDGET))?;
            if i == 0 {
                spilled_buckets = s.spilled_buckets;
            }
            if s.bytes != base.bytes {
                budget_diverged.push(t);
            }
        }
        report.cases.push(AuditCase {
            algorithm: algo.name(),
            identical: diverged.is_empty() && budget_diverged.is_empty(),
            output_count: base.count,
            diverged,
            budget_diverged,
            spilled_buckets,
        });
    }
    report.skew = Some(run_skew_audit(scale)?);
    Ok(report)
}

/// The skew leg: All-Replicate on the colocation clique over the
/// hot-region [`skewed_workload`], run under [`THREAD_COUNTS`] ×
/// {unbudgeted, [`SPILL_BUDGET`]} and byte-diffed against the
/// single-thread unbudgeted baseline.
fn run_skew_audit(scale: usize) -> Result<SkewAudit, String> {
    let q = clique_query();
    let algo = AllReplicate::new(4);
    let input = skewed_workload(&q, 0x5ca1ed, scale);
    let base = snapshot(&algo, &q, &input, THREAD_COUNTS[0], None)?;
    let mut diverged = Vec::new();
    for &t in &THREAD_COUNTS {
        for budget in [None, Some(SPILL_BUDGET)] {
            let s = snapshot(&algo, &q, &input, t, budget)?;
            if s.bytes != base.bytes {
                diverged.push(match budget {
                    None => format!("{t}"),
                    Some(b) => format!("{t}+{b}B"),
                });
            }
        }
    }
    Ok(SkewAudit {
        identical: diverged.is_empty(),
        diverged,
        output_count: base.count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = Lcg(7);
            (0..5).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Lcg(7);
            (0..5).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn audit_snapshots_embed_data_plane_telemetry() {
        let (algo, q) = suite().remove(0);
        let input = workload(&q, 0x5eed + q.num_relations() as u64, 40);
        let s = snapshot(algo.as_ref(), &q, &input, 1, None).expect("snapshot");
        let text = String::from_utf8(s.bytes).expect("utf8");
        assert!(
            text.contains("telemetry # TYPE ij_progress_jobs_started gauge"),
            "telemetry lines missing from audit snapshot"
        );
        assert!(text.contains("telemetry # TYPE ij_reduce_bucket_pairs histogram"));
        let heartbeats = text
            .lines()
            .find_map(|l| l.strip_prefix("telemetry ij_telemetry_heartbeats_reduce "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("reduce heartbeat series present");
        assert!(
            heartbeats > 0,
            "heartbeat quantum of 8 never fired:\n{text}"
        );
        // Execution-shape telemetry must NOT be in the byte-diffed bytes.
        assert!(!text.contains("ij_telemetry_stragglers"));
        assert!(!text.contains("ij_reduce_service_ns"));
        assert!(!text.contains("ij_spill_run_bytes"));
    }

    #[test]
    fn clique_family_routes_to_event_sweep() {
        // The third suite entry is the colocation clique; its reducers
        // must dispatch to the event-list sweep, and the routing counter —
        // a data-plane counter — must land in the byte-diffed snapshot.
        let (algo, q) = suite().remove(2);
        assert_eq!(q.conditions().len(), 3, "clique has all three pairs");
        let input = workload(&q, 0x5eed + q.num_relations() as u64, 40);
        let s = snapshot(algo.as_ref(), &q, &input, 1, None).expect("snapshot");
        let text = String::from_utf8(s.bytes).expect("utf8");
        let buckets = text
            .lines()
            .find_map(|l| {
                l.strip_prefix(&format!("counter {}=", names::KERNEL_EVENT_SWEEP_BUCKETS))
            })
            .and_then(|v| v.parse::<u64>().ok())
            .expect("event sweep routing counter present in snapshot");
        assert!(buckets > 0, "clique reducers never took the event sweep");
    }

    #[test]
    fn small_audit_passes_and_produces_output() {
        let report = run_audit(40).expect("audit runs");
        assert!(report.deterministic(), "{}", report.render());
        assert_eq!(report.cases.len(), 12);
        for c in &report.cases {
            assert!(
                c.output_count > 0,
                "{} produced no output — workload too sparse",
                c.algorithm
            );
        }
        assert!(
            report.cases.iter().any(|c| c.spilled_buckets > 0),
            "pinned budget of {SPILL_BUDGET}B spilled nothing — budget too generous\n{}",
            report.render()
        );
    }

    #[test]
    fn skew_leg_is_identical_and_produces_output() {
        let skew = run_skew_audit(40).expect("skew leg runs");
        assert!(skew.identical, "skewed mix diverged at {:?}", skew.diverged);
        assert!(skew.output_count > 0, "skewed mix produced no output");
    }
}
