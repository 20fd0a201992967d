//! The SPARQL logical algebra.
//!
//! [`translate`] lowers a parsed [`SelectQuery`] into an [`Algebra`] tree.
//! The local evaluator ([`crate::eval`]) interprets the tree against a
//! triple store; the federated engine (`fedlake-core`) decomposes and
//! re-plans it across sources.

use crate::ast::{GroupGraphPattern, OrderKey, PatternElement, SelectQuery, TriplePattern};
use crate::binding::Var;
use crate::expr::Expr;

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Algebra {
    /// A basic graph pattern: the conjunction of triple patterns.
    Bgp(Vec<TriplePattern>),
    /// Natural join.
    Join(Box<Algebra>, Box<Algebra>),
    /// Left outer join (from `OPTIONAL`), with an optional join condition.
    LeftJoin(Box<Algebra>, Box<Algebra>, Option<Expr>),
    /// Selection.
    Filter(Expr, Box<Algebra>),
    /// N-ary union.
    Union(Vec<Algebra>),
    /// Projection.
    Project(Vec<Var>, Box<Algebra>),
    /// Duplicate elimination.
    Distinct(Box<Algebra>),
    /// Sorting.
    OrderBy(Vec<OrderKey>, Box<Algebra>),
    /// `LIMIT`/`OFFSET`.
    Slice {
        /// Input plan.
        input: Box<Algebra>,
        /// Maximum rows to emit.
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
}

/// Lowers a group graph pattern to algebra (without solution modifiers).
pub(crate) fn translate_pattern(group: &GroupGraphPattern) -> Algebra {
    let mut current: Option<Algebra> = None;
    let mut bgp: Vec<TriplePattern> = Vec::new();
    let mut filters: Vec<Expr> = Vec::new();

    fn flush(current: Option<Algebra>, bgp: &mut Vec<TriplePattern>) -> Option<Algebra> {
        if bgp.is_empty() {
            return current;
        }
        let block = Algebra::Bgp(std::mem::take(bgp));
        Some(match current {
            None => block,
            Some(c) => Algebra::Join(Box::new(c), Box::new(block)),
        })
    }

    for el in &group.elements {
        match el {
            PatternElement::Triple(t) => bgp.push(t.clone()),
            PatternElement::Filter(e) => filters.push(e.clone()),
            PatternElement::Optional(g) => {
                current = flush(current, &mut bgp);
                let right = translate_pattern(g);
                let left = current.unwrap_or(Algebra::Bgp(Vec::new()));
                current = Some(Algebra::LeftJoin(Box::new(left), Box::new(right), None));
            }
            PatternElement::Union(branches) => {
                current = flush(current, &mut bgp);
                let u = Algebra::Union(branches.iter().map(translate_pattern).collect());
                current = Some(match current.take() {
                    None => u,
                    Some(c) => Algebra::Join(Box::new(c), Box::new(u)),
                });
            }
            PatternElement::Group(g) => {
                current = flush(current, &mut bgp);
                let inner = translate_pattern(g);
                current = Some(match current.take() {
                    None => inner,
                    Some(c) => Algebra::Join(Box::new(c), Box::new(inner)),
                });
            }
        }
    }
    let mut plan = flush(current, &mut bgp).unwrap_or(Algebra::Bgp(Vec::new()));
    for f in filters {
        plan = Algebra::Filter(f, Box::new(plan));
    }
    plan
}

/// Lowers a full `SELECT` query to algebra, applying solution modifiers in
/// the standard order: pattern → order → projection → distinct → slice.
pub fn translate(query: &SelectQuery) -> Algebra {
    let mut plan = translate_pattern(&query.pattern);
    if !query.order_by.is_empty() {
        plan = Algebra::OrderBy(query.order_by.clone(), Box::new(plan));
    }
    let projection = query.effective_projection();
    plan = Algebra::Project(projection, Box::new(plan));
    if query.distinct {
        plan = Algebra::Distinct(Box::new(plan));
    }
    if query.limit.is_some() || query.offset.is_some() {
        plan = Algebra::Slice {
            input: Box::new(plan),
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
        };
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn translate_simple_bgp() {
        let q = parse_query("SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap();
        let a = translate(&q);
        match a {
            Algebra::Project(vars, inner) => {
                assert_eq!(vars.len(), 1);
                assert!(matches!(*inner, Algebra::Bgp(ref ts) if ts.len() == 2));
            }
            other => panic!("unexpected algebra: {other:?}"),
        }
    }

    #[test]
    fn filter_wraps_group() {
        let q =
            parse_query("SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y > 1) }").unwrap();
        let a = translate(&q);
        match a {
            Algebra::Project(_, inner) => assert!(matches!(*inner, Algebra::Filter(_, _))),
            other => panic!("unexpected algebra: {other:?}"),
        }
    }

    #[test]
    fn optional_becomes_left_join() {
        let q = parse_query(
            "SELECT * WHERE { ?x a <http://C> . OPTIONAL { ?x <http://n> ?n } }",
        )
        .unwrap();
        let a = translate_pattern(&q.pattern);
        assert!(matches!(a, Algebra::LeftJoin(_, _, _)));
    }

    #[test]
    fn union_translates_branches() {
        let q = parse_query(
            "SELECT ?x WHERE { { ?x a <http://C> } UNION { ?x a <http://D> } }",
        )
        .unwrap();
        let a = translate_pattern(&q.pattern);
        assert!(matches!(a, Algebra::Union(ref b) if b.len() == 2));
    }

    #[test]
    fn modifiers_nest_in_order() {
        let q = parse_query(
            "SELECT DISTINCT ?x WHERE { ?x <http://p> ?y } ORDER BY ?y LIMIT 5",
        )
        .unwrap();
        let a = translate(&q);
        // Slice(Distinct(Project(OrderBy(...))))
        match a {
            Algebra::Slice { input, limit, offset } => {
                assert_eq!(limit, Some(5));
                assert_eq!(offset, 0);
                match *input {
                    Algebra::Distinct(p) => match *p {
                        Algebra::Project(_, o) => {
                            assert!(matches!(*o, Algebra::OrderBy(_, _)))
                        }
                        other => panic!("expected Project, got {other:?}"),
                    },
                    other => panic!("expected Distinct, got {other:?}"),
                }
            }
            other => panic!("expected Slice, got {other:?}"),
        }
    }
}
