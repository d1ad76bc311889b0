//! Hybrid join queries (paper Section 8): single interval attribute, both
//! colocation and sequence predicates.
//!
//! The query is viewed through its colocation connected components
//! (`ij_query::Components`): the components become the dimensions of a
//! reducer matrix (as in All-Matrix) while each component's internal
//! colocation query is solved with RCCIS's replication marking.
//!
//! * [`fcts`] / [`fstc`] — the two staged baselines (First Colocation Then
//!   Sequence / First Sequence Then Colocation), which both materialize
//!   large intermediate results;
//! * [`all_seq_matrix`] — the paper's single-pass All-Seq-Matrix (2 MR
//!   cycles);
//! * [`pasm`] — Pruned-All-Seq-Matrix (3 MR cycles), which additionally
//!   drops intervals that cannot appear in any component's output.
//!
//! Shared here: the per-component marking cycle, which hands every input
//! record back once, flagged, rebuilt from the component's relation map
//! (no lookup per record); and the matrix joins' owner — one
//! [`Owner`] group per component, whose greatest start must fall in the
//! cell's coordinate for it.

pub mod all_seq_matrix;
pub mod fcts;
pub mod fstc;
pub mod pasm;

pub use all_seq_matrix::AllSeqMatrix;
pub use fcts::Fcts;
pub use fstc::Fstc;
pub use pasm::Pasm;

use crate::algorithm::AlgoError;
use crate::kernel::Owner;
use crate::records::{FlagRec, IvRec};
use ij_interval::{ops, Interval, Partitioning, RelId, TupleId};
use ij_mapreduce::{Emitter, Engine, JobChain, ReduceCtx, ReducerId, ValueStream};
use ij_query::{AttrRef, Components, JoinQuery};

/// A component's sub-query, its global → local relation map and its
/// local → global one.
type SubQuery = (JoinQuery, Vec<u16>, Vec<RelId>);

/// The first MR cycle shared by All-Seq-Matrix and PASM: runs the RCCIS
/// replication marking *per colocation component*, all components in one
/// job. Reducer keys encode `(component, partition)`; singleton components
/// pass through with `replicate = false`. Returns every interval exactly
/// once, flagged.
pub(crate) fn run_component_marking(
    query: &JoinQuery,
    comps: &Components,
    part: &Partitioning,
    records: &[IvRec],
    engine: &Engine,
    chain: &mut JobChain,
) -> Result<Vec<FlagRec>, AlgoError> {
    let p_count = part.len() as u64;
    // Per-relation component id (single-attribute: vertex = ⟨rel, 0⟩).
    let comp_of: Vec<usize> = (0..query.num_relations())
        .map(|r| {
            comps
                .component_of(AttrRef::whole(r))
                .expect("every relation has a component")
        })
        .collect();
    let multi: Vec<bool> = comps
        .components
        .iter()
        .map(|c| c.vertices.len() >= 2)
        .collect();
    // Pre-extract per-component sub-queries, local relation maps and, per
    // local slot, the global relation.
    let sub_queries: Vec<Option<SubQuery>> = comps
        .components
        .iter()
        .map(|c| {
            c.as_query(query).map(|sq| {
                // global rel -> local index (dense map sized by relations).
                let mut map = vec![u16::MAX; query.num_relations() as usize];
                for (i, v) in c.vertices.iter().enumerate() {
                    map[v.rel.idx()] = i as u16;
                }
                (sq, map, c.vertices.iter().map(|v| v.rel).collect())
            })
        })
        .collect();

    let partc = part.clone();
    let out = engine.run_job(
        "component-mark",
        records,
        {
            let partc = partc.clone();
            let comp_of = comp_of.clone();
            let multi = multi.clone();
            move |rec: &IvRec, em: &mut Emitter<IvRec>| {
                let k = comp_of[rec.rel.idx()] as u64;
                if multi[comp_of[rec.rel.idx()]] {
                    for p in ops::split(rec.iv, &partc) {
                        em.emit(k * p_count + p as u64, *rec);
                    }
                } else {
                    // Singletons only pass through to pick up their flag.
                    em.emit(k * p_count + ops::project(rec.iv, &partc) as u64, *rec);
                }
            }
        },
        move |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<FlagRec>| {
            let key: ReducerId = ctx.key;
            let k = (key / p_count) as usize;
            let p = (key % p_count) as usize;
            match &sub_queries[k] {
                None => {
                    // Singleton component: never replicated.
                    for v in values.by_ref() {
                        out.push(FlagRec {
                            rec: v,
                            replicate: false,
                        });
                    }
                }
                Some((sq, local_of, global_of)) => {
                    let mut per_rel: Vec<Vec<(Interval, TupleId)>> =
                        vec![Vec::new(); sq.num_relations() as usize];
                    for v in values.by_ref() {
                        per_rel[local_of[v.rel.idx()] as usize].push((v.iv, v.tid));
                    }
                    let marking = crate::rccis::marking::mark(sq, &partc, p, per_rel);
                    ctx.add_work(marking.work);
                    for ((&rel, list), flags) in
                        global_of.iter().zip(&marking.sorted).zip(&marking.flags)
                    {
                        for (&(iv, tid), &replicate) in list.iter().zip(flags) {
                            if partc.index_of(iv.start()) == p {
                                out.push(FlagRec {
                                    rec: IvRec { rel, tid, iv },
                                    replicate,
                                });
                            }
                        }
                    }
                }
            }
        },
    )?;
    chain.push(out.metrics);
    Ok(out.outputs)
}

/// The owner of matrix cell `coords` (All-Seq-Matrix and PASM): one
/// group per colocation component, owned where the component's greatest
/// start point falls in the cell's coordinate for that component.
pub(crate) fn matrix_owner(comps: &Components, part: &Partitioning, coords: &[usize]) -> Owner {
    comps.components.iter().fold(Owner::all(), |owner, comp| {
        owner.with_group(
            comp.vertices.iter().map(|v| v.rel.idx()),
            part,
            coords[comp.id],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::iv_records;
    use crate::JoinInput;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Relation;
    use ij_mapreduce::ClusterConfig;
    use ij_query::Condition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_rel(rng: &mut StdRng, n: usize) -> Relation {
        Relation::from_intervals(
            "R",
            (0..n).map(|_| {
                let s = rng.gen_range(0..500);
                Interval::new(s, s + rng.gen_range(0..=120)).unwrap()
            }),
        )
    }

    /// Component marking hands every input record back exactly once, with
    /// its relation, tuple id and interval intact — also when two logical
    /// relations share tuple ids (a self-join).
    #[test]
    fn component_marking_returns_every_record_once() {
        // Components {R1} (singleton) and {R2, R3, R4} (colocation), whose
        // local relation indices differ from the global ones.
        let q = JoinQuery::new(
            4,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(1, Overlaps, 2),
                Condition::whole(2, Contains, 3),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let owned = JoinInput::bind_owned(&q, (0..4).map(|_| random_rel(&mut rng, 80)).collect());
        let shared = JoinInput::bind_self_join(&q, Arc::new(random_rel(&mut rng, 80)));
        for input in [owned.unwrap(), shared.unwrap()] {
            let part = Partitioning::from_boundaries(vec![0, 90, 200, 320, 450, 700]).unwrap();
            let records = iv_records(&input);
            let engine = Engine::new(ClusterConfig::with_slots(3));
            let flags = run_component_marking(
                &q,
                &q.components(),
                &part,
                &records,
                &engine,
                &mut JobChain::new(),
            )
            .unwrap();
            assert!(flags.iter().any(|f| f.replicate), "nothing crosses");
            let key = |r: &IvRec| (r.rel, r.tid, r.iv.start(), r.iv.end());
            let mut got: Vec<_> = flags.iter().map(|f| key(&f.rec)).collect();
            let mut want: Vec<_> = records.iter().map(key).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
