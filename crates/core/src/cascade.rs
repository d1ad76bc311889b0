//! The 2-way Cascade baseline (Section 6) and the shared stage machinery
//! reused by FSTC (Section 8).
//!
//! A multi-way query runs as a series of 2-way MR joins: each stage joins
//! the accumulated composite result with one more base relation. Colocation
//! stages route with the predicate's split/project pair; sequence stages
//! use a 2-D All-Matrix (as the paper does in the Figure 5 experiments:
//! "both 2-way joins in 2-way Cd … are executed using 2D versions of
//! All-Matrix"). Every stage re-reads and re-shuffles the intermediate
//! result, which is exactly the cost the paper's single-pass algorithms
//! avoid.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::input::JoinInput;
use crate::kernel::{range_pair, RangePair};
use crate::output::{JoinOutput, OutputMode};
use crate::records::{CompRec, OutRec};
use ij_interval::{bounds_contain, ops, Interval, MapOp, Partitioning, RelId, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Emitter, Engine, JobChain, Record, ReduceCtx, ValueStream};
use ij_query::{Condition, JoinQuery};

/// A record of a cascade stage job: either an accumulated composite or a
/// base tuple of the stage's new relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CascRec {
    /// Composite carrying the already-joined relations.
    Comp(CompRec),
    /// A tuple of the relation this stage introduces.
    Base { tid: TupleId, iv: Interval },
}

impl Record for CascRec {
    fn approx_bytes(&self) -> u64 {
        match self {
            CascRec::Comp(c) => c.approx_bytes() + 1,
            CascRec::Base { .. } => 21,
        }
    }
}

/// One cascade stage: join the current composites with `new_rel` on
/// `primary`, additionally checking `extras` (conditions whose endpoints
/// are all available by this stage).
#[derive(Debug, Clone)]
pub struct Stage {
    /// The base relation this stage introduces.
    pub new_rel: RelId,
    /// The condition used for routing.
    pub primary: Condition,
    /// Conditions checked in the reducer on top of `primary`.
    pub extras: Vec<Condition>,
}

/// Plans the cascade: processes conditions in declaration order, each stage
/// introducing the condition's one missing relation. Conditions between two
/// already-present relations attach to the following stage (or the last).
///
/// `present` starts with the seed relations (for the plain cascade: the
/// first condition's two endpoints).
pub fn plan_stages(
    _q: &JoinQuery,
    mut present: Vec<RelId>,
    conditions: &[Condition],
) -> Result<Vec<Stage>, AlgoError> {
    let mut stages: Vec<Stage> = Vec::new();
    let mut pending_filters: Vec<Condition> = Vec::new();
    let mut remaining: Vec<Condition> = conditions.to_vec();
    while !remaining.is_empty() {
        // Earliest remaining condition touching the joined set; declaration
        // order is kept where possible, but a later condition may bridge to
        // an earlier one (e.g. FSTC seeds from the sequence relations).
        let pos = remaining
            .iter()
            .position(|c| present.contains(&c.left.rel) || present.contains(&c.right.rel));
        let Some(pos) = pos else {
            return Err(AlgoError::Unsupported {
                algorithm: "cascade",
                reason: format!(
                    "condition {} is disconnected from the relations joined so far",
                    remaining[0]
                ),
            });
        };
        let c = remaining.remove(pos);
        let l_in = present.contains(&c.left.rel);
        let r_in = present.contains(&c.right.rel);
        if l_in && r_in {
            pending_filters.push(c);
        } else {
            let new_rel = if l_in { c.right.rel } else { c.left.rel };
            present.push(new_rel);
            let extras = std::mem::take(&mut pending_filters);
            stages.push(Stage {
                new_rel,
                primary: c,
                extras,
            });
        }
    }
    if !pending_filters.is_empty() {
        match stages.last_mut() {
            Some(s) => s.extras.extend(pending_filters),
            None => {
                return Err(AlgoError::Unsupported {
                    algorithm: "cascade",
                    reason: "all conditions are between seed relations; nothing to cascade".into(),
                })
            }
        }
    }
    Ok(stages)
}

/// State threaded through the cascade: which relations the composites hold
/// (in slot order) and the composites themselves.
pub struct CascadeState {
    /// Relations present, in composite slot order.
    pub present: Vec<RelId>,
    /// Current intermediate result.
    pub composites: Vec<CompRec>,
}

impl CascadeState {
    /// Seeds the cascade from a base relation.
    pub fn from_relation(input: &JoinInput, rel: RelId) -> Self {
        let composites = input
            .relation(rel)
            .tuples()
            .iter()
            .map(|t| CompRec {
                tids: vec![t.id],
                ivs: vec![t.interval()],
            })
            .collect();
        CascadeState {
            present: vec![rel],
            composites,
        }
    }

    fn slot_of(&self, rel: RelId) -> usize {
        self.present
            .iter()
            .position(|&r| r == rel)
            .expect("relation present in composite")
    }
}

/// Executes one cascade stage as one MR cycle, growing the composites.
/// Returns the stage's join result as `OutRec`s when `finalize` is set
/// (the last stage), else updates `state`.
#[allow(
    clippy::too_many_arguments,
    reason = "one stage needs the query, input, engine, state, plan, partitioning, output mode and chain"
)]
pub fn run_stage(
    q: &JoinQuery,
    input: &JoinInput,
    engine: &Engine,
    state: &mut CascadeState,
    stage: &Stage,
    partitions: usize,
    per_dim_2d: usize,
    finalize: Option<OutputMode>,
    chain: &mut JobChain,
) -> Result<Vec<OutRec>, AlgoError> {
    let span = input.span();
    let new_rel = stage.new_rel;
    let comp_is_left = stage.primary.left.rel != new_rel;
    let comp_rel = if comp_is_left {
        stage.primary.left.rel
    } else {
        stage.primary.right.rel
    };
    let comp_slot = state.slot_of(comp_rel);

    // Conditions the reducer checks: primary + extras; orient each as
    // (composite slot, pred, is_composite_left).
    let mut checks: Vec<(usize, ij_interval::AllenPredicate, bool)> = Vec::new();
    for &c in std::iter::once(&stage.primary).chain(&stage.extras) {
        if c.left.rel == new_rel {
            checks.push((state.slot_of(c.right.rel), c.pred, false));
        } else {
            checks.push((state.slot_of(c.left.rel), c.pred, true));
        }
    }

    // Build the stage input: composites + the new relation's tuples.
    let mut records: Vec<CascRec> = state
        .composites
        .iter()
        .cloned()
        .map(CascRec::Comp)
        .collect();
    records.extend(
        input
            .relation(new_rel)
            .tuples()
            .iter()
            .map(|t| CascRec::Base {
                tid: t.id,
                iv: t.interval(),
            }),
    );

    // Routing.
    enum Routing {
        OneD {
            part: Partitioning,
            comp_op: MapOp,
            base_op: MapOp,
        },
        Matrix {
            part: Partitioning,
            space: CellSpace,
        },
    }
    let routing = if stage.primary.pred.is_colocation() {
        let (op_l, op_r) = stage.primary.pred.map_ops();
        let (comp_op, base_op) = if comp_is_left {
            (op_l, op_r)
        } else {
            (op_r, op_l)
        };
        Routing::OneD {
            part: RunArtifacts::partition_span(span, partitions)?,
            comp_op,
            base_op,
        }
    } else {
        // 2-D All-Matrix: dim 0 = composite (via the primary's member
        // interval), dim 1 = the new relation.
        let lesser_is_comp = stage.primary.lesser().rel == comp_rel;
        let constraints = if lesser_is_comp {
            vec![(0, 1)]
        } else {
            vec![(1, 0)]
        };
        Routing::Matrix {
            part: RunArtifacts::partition_span(span, per_dim_2d)?,
            space: CellSpace::new(2, per_dim_2d, constraints)?,
        }
    };

    let stage_name = format!("cascade-{}", state.present.len());
    let out = engine.run_job(
        &stage_name,
        &records,
        |rec: &CascRec, em: &mut Emitter<CascRec>| match &routing {
            Routing::OneD {
                part,
                comp_op,
                base_op,
            } => {
                let (op, iv) = match rec {
                    CascRec::Comp(c) => (*comp_op, c.ivs[comp_slot]),
                    CascRec::Base { iv, .. } => (*base_op, *iv),
                };
                let before = em.emitted();
                for p in ops::apply(op, iv, part) {
                    em.emit(p as u64, rec.clone());
                }
                let copies = (em.emitted() - before) as u64;
                match rec {
                    CascRec::Comp(_) => em.inc(names::CASCADE_COMP_PAIRS, copies),
                    CascRec::Base { .. } => em.inc(names::CASCADE_BASE_PAIRS, copies),
                }
            }
            Routing::Matrix { part, space } => {
                let (dim, iv) = match rec {
                    CascRec::Comp(c) => (0, c.ivs[comp_slot]),
                    CascRec::Base { iv, .. } => (1, *iv),
                };
                let qidx = part.index_of(iv.start());
                let cells = space.cells_eq(dim, qidx);
                em.emit_to_all(cells.iter().copied(), rec);
                match rec {
                    CascRec::Comp(_) => em.inc(names::CASCADE_COMP_PAIRS, cells.len() as u64),
                    CascRec::Base { .. } => em.inc(names::CASCADE_BASE_PAIRS, cells.len() as u64),
                }
            }
        },
        |ctx: &mut ReduceCtx, values: &mut ValueStream<CascRec>, out: &mut Vec<OutRec>| {
            let mut comps: Vec<CompRec> = Vec::new();
            let mut bases: Vec<(Interval, TupleId)> = Vec::new();
            for v in values.by_ref() {
                match v {
                    CascRec::Comp(c) => comps.push(c),
                    CascRec::Base { tid, iv } => bases.push((iv, tid)),
                }
            }
            bases.sort_unstable_by_key(|(iv, tid)| (iv.start(), *tid));
            let mut work = 0u64;
            let mut count = 0u64;
            for comp in &comps {
                // Exact endpoint ranges for the new tuple from all checks
                // (kernel::ranges): orient each predicate so the new tuple
                // is the right operand, window on the start range, and
                // filter by the end range — no per-candidate `holds`.
                let mut rp = RangePair::full();
                for &(slot, pred, comp_left) in &checks {
                    let p = if comp_left { pred } else { pred.inverse() };
                    rp.intersect(&range_pair(p, comp.ivs[slot]));
                }
                let (from, to) = crate::executor::window(&bases, rp.start.0, rp.start.1);
                work += (to - from) as u64;
                for &(iv, tid) in &bases[from..to] {
                    if !bounds_contain(rp.end, iv.end()) {
                        continue;
                    }
                    count += 1;
                    if finalize != Some(OutputMode::Count) {
                        let mut c = comp.clone();
                        c.tids.push(tid);
                        c.ivs.push(iv);
                        // Composites ride out of the job flat-encoded in the
                        // shared OutRec::Tuple payload; decoded below.
                        out.push(OutRec::Tuple(encode_comp(&c)));
                    }
                }
            }
            ctx.add_work(work);
            ctx.inc(names::JOIN_CANDIDATES, work);
            ctx.inc(names::JOIN_EMITTED, count);
            if finalize == Some(OutputMode::Count) && count > 0 {
                out.push(OutRec::Count(count));
            }
        },
    )?;
    chain.push(out.metrics);

    // Decode stage output.
    let mut new_composites = Vec::new();
    let mut finals = Vec::new();
    for rec in out.outputs {
        match rec {
            OutRec::Tuple(enc) => {
                let comp = decode_comp(&enc);
                if finalize.is_some() {
                    finals.push(OutRec::Tuple(comp.tids.clone()));
                } else {
                    new_composites.push(comp);
                }
            }
            OutRec::Count(n) => finals.push(OutRec::Count(n)),
        }
    }
    state.present.push(new_rel);
    state.composites = new_composites;

    // Re-order final tuples' ids into global relation order.
    if finalize == Some(OutputMode::Materialize) {
        let present = state.present.clone();
        finals = finals
            .into_iter()
            .map(|r| match r {
                OutRec::Tuple(tids) => {
                    let mut by_rel = vec![0 as TupleId; q.num_relations() as usize];
                    for (slot, &rel) in present.iter().enumerate() {
                        by_rel[rel.idx()] = tids[slot];
                    }
                    OutRec::Tuple(by_rel)
                }
                c => c,
            })
            .collect();
    }
    Ok(finals)
}

/// Flat encoding of a composite into a `Vec<u32>` (tids then interval
/// halves), letting stages reuse the `OutRec` job output type.
fn encode_comp(c: &CompRec) -> Vec<u32> {
    let mut v = Vec::with_capacity(1 + c.tids.len() * 5);
    v.push(c.tids.len() as u32);
    v.extend(&c.tids);
    for iv in &c.ivs {
        let s = iv.start() as u64;
        let e = iv.end() as u64;
        v.push((s >> 32) as u32);
        v.push(s as u32);
        v.push((e >> 32) as u32);
        v.push(e as u32);
    }
    v
}

fn decode_comp(v: &[u32]) -> CompRec {
    let n = v[0] as usize;
    let tids = v[1..1 + n].to_vec();
    let mut ivs = Vec::with_capacity(n);
    let mut at = 1 + n;
    for _ in 0..n {
        let s = ((v[at] as u64) << 32 | v[at + 1] as u64) as i64;
        let e = ((v[at + 2] as u64) << 32 | v[at + 3] as u64) as i64;
        ivs.push(Interval::new_unchecked(s, e));
        at += 4;
    }
    CompRec { tids, ivs }
}

/// The 2-way Cascade algorithm.
#[derive(Debug, Clone)]
pub struct TwoWayCascade {
    /// Partitions for colocation stages.
    pub partitions: usize,
    /// Per-dimension partitions for sequence stages' 2-D matrices (the
    /// paper uses 11 for Figure 5's cascades).
    pub per_dim_2d: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl TwoWayCascade {
    /// A cascade with the same reducer budget for both stage kinds.
    pub fn new(partitions: usize) -> Self {
        TwoWayCascade {
            partitions,
            per_dim_2d: (partitions as f64).sqrt().ceil() as usize + 1,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for TwoWayCascade {
    fn name(&self) -> &'static str {
        "2-way Cd"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        if query.start_order().contradictory() {
            return Ok(empty_output(self.mode));
        }
        if query.num_relations() < 2 {
            return Err(AlgoError::BadConfig("need at least 2 relations".into()));
        }
        let first = query.conditions()[0];
        let mut state = CascadeState::from_relation(input, first.left.rel);
        let stages = plan_stages(query, vec![first.left.rel], query.conditions())?;
        let mut chain = JobChain::new();
        let mut finals = Vec::new();
        let last = stages.len() - 1;
        for (i, stage) in stages.iter().enumerate() {
            let finalize = (i == last).then_some(self.mode);
            finals = run_stage(
                query,
                input,
                engine,
                &mut state,
                stage,
                self.partitions,
                self.per_dim_2d,
                finalize,
                &mut chain,
            )?;
        }
        Ok(JoinOutput::from_records(self.mode, finals, chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::{self, *};
    use ij_interval::Relation;
    use ij_mapreduce::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rel(rng: &mut StdRng, n: usize, span: i64, max_len: i64) -> Relation {
        Relation::from_intervals(
            "R",
            (0..n).map(|_| {
                let s = rng.gen_range(0..span);
                let e = s + rng.gen_range(0..=max_len);
                Interval::new(s, e).unwrap()
            }),
        )
    }

    fn engine() -> Engine {
        Engine::new(ClusterConfig::with_slots(4))
    }

    fn check(preds: &[AllenPredicate], seed: u64, n: usize) {
        let q = JoinQuery::chain(preds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 40))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = TwoWayCascade::new(8)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input), "preds {preds:?}");
    }

    #[test]
    fn colocation_chain_matches_oracle() {
        check(&[Overlaps, Overlaps], 1, 60);
        check(&[Overlaps, Contains, Overlaps], 2, 35);
    }

    #[test]
    fn sequence_chain_matches_oracle() {
        check(&[Before, Before], 3, 40);
    }

    #[test]
    fn hybrid_chain_matches_oracle() {
        check(&[Overlaps, Before], 4, 45);
        check(&[Before, Overlaps], 5, 45);
    }

    #[test]
    fn one_cycle_per_stage() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let rels = (0..4).map(|_| random_rel(&mut rng, 20, 200, 30)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = TwoWayCascade::new(4).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.chain.num_cycles(), 3);
    }

    #[test]
    fn counters_attribute_pairs_per_stage() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let rels = (0..3).map(|_| random_rel(&mut rng, 40, 300, 40)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = TwoWayCascade::new(6).run(&q, &input, &engine()).unwrap();
        // Every stage shuffles both composites and base tuples, and the two
        // counter classes account for its whole communication volume.
        for cycle in &out.chain.cycles {
            let comp = cycle.counters.get("cascade.comp_pairs");
            let base = cycle.counters.get("cascade.base_pairs");
            assert!(base > 0, "stage {} shuffled no base tuples", cycle.name);
            assert_eq!(comp + base, cycle.intermediate_pairs, "{}", cycle.name);
        }
        let c = out.chain.total_counters();
        assert!(c.get("join.candidates") >= c.get("join.emitted"));
    }

    #[test]
    fn triangle_query_extra_condition_checked() {
        // R1 ov R2, R2 ov R3, R1 contains R3: the third condition is between
        // two relations already present and must be applied as a filter.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Overlaps, 2),
                ij_query::Condition::whole(0, Contains, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let rels = (0..3).map(|_| random_rel(&mut rng, 50, 200, 60)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = TwoWayCascade::new(6)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn plan_rejects_disconnected_condition_order() {
        let q = JoinQuery::new(
            4,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(2, Overlaps, 3),
            ],
        )
        .unwrap();
        let err = plan_stages(&q, vec![RelId(0)], q.conditions()).unwrap_err();
        assert!(matches!(err, AlgoError::Unsupported { .. }));
    }

    #[test]
    fn comp_encoding_round_trips() {
        let c = CompRec {
            tids: vec![3, 99],
            ivs: vec![
                Interval::new(-5, 1_000_000_000_000).unwrap(),
                Interval::new(0, 0).unwrap(),
            ],
        };
        assert_eq!(decode_comp(&encode_comp(&c)), c);
    }
}
