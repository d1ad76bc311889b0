//! Binding relations (data) to a query's logical relations.

use ij_interval::{RelId, Relation};
use ij_query::JoinQuery;
use std::fmt;
use std::sync::Arc;

/// Error binding data to a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// Number of relations does not match the query's.
    WrongRelationCount {
        /// Relations the query names.
        expected: u16,
        /// Relations bound.
        got: usize,
    },
    /// A relation's arity is smaller than an attribute the query references.
    MissingAttr {
        /// The relation that is too narrow.
        rel: RelId,
        /// The attribute index the query references.
        needed: u16,
        /// The relation's arity.
        arity: u16,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::WrongRelationCount { expected, got } => {
                write!(f, "query has {expected} relations but {got} were bound")
            }
            InputError::MissingAttr { rel, needed, arity } => write!(
                f,
                "query references attribute {needed} of {rel}, which has arity {arity}"
            ),
        }
    }
}

impl std::error::Error for InputError {}

/// The data for a join: one [`Relation`] per logical relation of the query.
///
/// Relations are shared via [`Arc`], so a self-join binds the same physical
/// relation to several logical slots without copying (Table 2's star
/// self-join binds one train relation three times).
#[derive(Debug, Clone)]
pub struct JoinInput {
    relations: Vec<Arc<Relation>>,
}

impl JoinInput {
    /// Binds `relations[i]` to logical relation `RelId(i)` and validates
    /// arity against the query.
    pub fn bind(q: &JoinQuery, relations: Vec<Arc<Relation>>) -> Result<Self, InputError> {
        if relations.len() != q.num_relations() as usize {
            return Err(InputError::WrongRelationCount {
                expected: q.num_relations(),
                got: relations.len(),
            });
        }
        for (i, r) in relations.iter().enumerate() {
            let rel = RelId(i as u16);
            for attr in q.join_attrs_of(rel) {
                if attr >= r.n_attrs {
                    return Err(InputError::MissingAttr {
                        rel,
                        needed: attr,
                        arity: r.n_attrs,
                    });
                }
            }
        }
        Ok(JoinInput { relations })
    }

    /// Binds owned relations (wraps each in an [`Arc`]).
    pub fn bind_owned(q: &JoinQuery, relations: Vec<Relation>) -> Result<Self, InputError> {
        JoinInput::bind(q, relations.into_iter().map(Arc::new).collect())
    }

    /// Binds the same relation to every logical slot — a star self-join.
    pub fn bind_self_join(q: &JoinQuery, relation: Arc<Relation>) -> Result<Self, InputError> {
        let n = q.num_relations() as usize;
        JoinInput::bind(q, vec![relation; n])
    }

    /// The relation bound to `r`.
    pub fn relation(&self, r: RelId) -> &Relation {
        &self.relations[r.idx()]
    }

    /// All bound relations, by logical id.
    pub fn relations(&self) -> &[Arc<Relation>] {
        &self.relations
    }

    /// Number of logical relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether no relations are bound (never true for validated inputs).
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total tuples across logical relations (self-joined data counted once
    /// per logical slot, matching what the MR jobs read).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// The tight time span of attribute-0 data across all relations, or a
    /// default unit span if everything is empty.
    pub fn span(&self) -> ij_interval::Interval {
        ij_interval::relation::joint_span(self.relations.iter().map(Arc::as_ref), 0)
            .unwrap_or_else(|| ij_interval::Interval::new_unchecked(0, 1))
    }

    /// The tight time span across *all* join attributes referenced by `q` —
    /// the range Gen-Matrix partitions (all dimensions span "identical
    /// temporal range", Section 7.1).
    pub fn span_all_attrs(&self, q: &JoinQuery) -> ij_interval::Interval {
        let mut acc: Option<ij_interval::Interval> = None;
        for (i, r) in self.relations.iter().enumerate() {
            for attr in q.join_attrs_of(RelId(i as u16)) {
                if let Some(s) = r.attr_span(attr) {
                    acc = Some(match acc {
                        Some(a) => a.hull(s),
                        None => s,
                    });
                }
            }
        }
        acc.unwrap_or_else(|| ij_interval::Interval::new_unchecked(0, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::{AllenPredicate::*, Interval};
    use ij_query::JoinQuery;

    fn rel(name: &str, ivs: &[(i64, i64)]) -> Relation {
        Relation::from_intervals(name, ivs.iter().map(|&(s, e)| Interval::new(s, e).unwrap()))
    }

    #[test]
    fn bind_validates_count() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let r = rel("R", &[(0, 5)]);
        let err = JoinInput::bind_owned(&q, vec![r]).unwrap_err();
        assert_eq!(
            err,
            InputError::WrongRelationCount {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn bind_validates_arity() {
        use ij_query::{AttrRef, Condition};
        let q = JoinQuery::with_relations(
            vec![
                ij_query::query::RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                ij_query::query::RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["I".into()],
                },
            ],
            vec![Condition::new(
                AttrRef::new(0, 1),
                Equals,
                AttrRef::new(1, 0),
            )],
        )
        .unwrap();
        // R1's physical data has only 1 attribute but the query uses attr 1.
        let err = JoinInput::bind_owned(&q, vec![rel("R1", &[(0, 1)]), rel("R2", &[(0, 1)])])
            .unwrap_err();
        assert!(matches!(err, InputError::MissingAttr { needed: 1, .. }));
    }

    #[test]
    fn self_join_shares_data() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let r = Arc::new(rel("R", &[(0, 5), (3, 9)]));
        let input = JoinInput::bind_self_join(&q, r.clone()).unwrap();
        assert_eq!(input.len(), 3);
        assert_eq!(input.total_tuples(), 6);
        assert!(Arc::ptr_eq(&input.relations()[0], &input.relations()[2]));
    }

    #[test]
    fn span_covers_data() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input =
            JoinInput::bind_owned(&q, vec![rel("A", &[(5, 9)]), rel("B", &[(0, 2)])]).unwrap();
        assert_eq!(input.span(), Interval::new(0, 9).unwrap());
    }
}
