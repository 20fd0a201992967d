//! Local SPARQL evaluation against a [`fedlake_rdf::Graph`].
//!
//! This evaluator is complete for the supported subset and serves two
//! roles: it is the execution engine behind SPARQL-endpoint sources in the
//! data lake, and the ground-truth oracle against which the federated
//! engine's answers are checked in tests.

use crate::algebra::{translate, Algebra};
use crate::ast::{Order, OrderKey, SelectQuery, TriplePattern, VarOrTerm};
use crate::binding::{Row, Rows, Var};
use crate::error::SparqlError;
use fedlake_rdf::{Graph, Literal, Term};
use std::cmp::Ordering;
use std::sync::Arc;

/// Evaluates a parsed query against a graph.
pub fn evaluate(query: &SelectQuery, graph: &Graph) -> Result<Rows, SparqlError> {
    let plan = translate(query);
    evaluate_algebra(&plan, graph)
}

/// Evaluates an algebra tree against a graph.
pub fn evaluate_algebra(plan: &Algebra, graph: &Graph) -> Result<Rows, SparqlError> {
    match plan {
        Algebra::Bgp(patterns) => Ok(eval_bgp(patterns, graph, vec![Row::new()])),
        Algebra::Join(l, r) => {
            // When the right side is a BGP, evaluate it bound by the left
            // rows (index nested loop); otherwise hash-join on shared vars.
            let left = evaluate_algebra(l, graph)?;
            if let Algebra::Bgp(patterns) = r.as_ref() {
                Ok(eval_bgp(patterns, graph, left))
            } else {
                let right = evaluate_algebra(r, graph)?;
                Ok(nested_join(&left, &right))
            }
        }
        Algebra::LeftJoin(l, r, cond) => {
            let left = evaluate_algebra(l, graph)?;
            let cond = cond.as_ref().map(|c| c.bind(None));
            let mut out = Vec::new();
            for lrow in &left {
                let matches: Rows = if let Algebra::Bgp(patterns) = r.as_ref() {
                    eval_bgp(patterns, graph, vec![lrow.clone()])
                } else {
                    evaluate_algebra(r, graph)?
                        .iter()
                        .filter_map(|rrow| lrow.merge(rrow))
                        .collect()
                };
                let kept: Rows = matches
                    .into_iter()
                    .filter(|m| cond.as_ref().is_none_or(|c| c.test(m)))
                    .collect();
                if kept.is_empty() {
                    out.push(lrow.clone());
                } else {
                    out.extend(kept);
                }
            }
            Ok(out)
        }
        Algebra::Filter(expr, inner) => {
            let expr = expr.bind(None);
            Ok(evaluate_algebra(inner, graph)?
                .into_iter()
                .filter(|row| expr.test(row))
                .collect())
        }
        Algebra::Union(branches) => {
            let mut out = Vec::new();
            for b in branches {
                out.extend(evaluate_algebra(b, graph)?);
            }
            Ok(out)
        }
        Algebra::Project(vars, inner) => Ok(evaluate_algebra(inner, graph)?
            .into_iter()
            .map(|row| row.project(vars))
            .collect()),
        Algebra::Distinct(inner) => {
            let mut seen = std::collections::BTreeSet::new();
            Ok(evaluate_algebra(inner, graph)?
                .into_iter()
                .filter(|row| seen.insert(row.clone()))
                .collect())
        }
        Algebra::OrderBy(keys, inner) => {
            let mut rows = evaluate_algebra(inner, graph)?;
            sort_rows(&mut rows, keys);
            Ok(rows)
        }
        Algebra::Slice { input, limit, offset } => {
            let rows = evaluate_algebra(input, graph)?;
            Ok(rows
                .into_iter()
                .skip(*offset)
                .take(limit.unwrap_or(usize::MAX))
                .collect())
        }
    }
}

/// Evaluates a BGP seeded with `rows`, via greedy bound-first pattern
/// ordering and index nested-loop extension.
pub fn eval_bgp(patterns: &[TriplePattern], graph: &Graph, rows: Rows) -> Rows {
    if patterns.is_empty() {
        return rows;
    }
    let mut remaining: Vec<&TriplePattern> = patterns.iter().collect();
    let mut bound: Vec<Var> = Vec::new();
    if let Some(first) = rows.first() {
        bound.extend(first.vars().cloned());
    }
    let mut current = rows;
    // Pick the most selective next pattern: maximize bound positions.
    while let Some((idx, _)) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| pattern_boundness(t, &bound))
    {
        let pattern = remaining.remove(idx);
        let mut next = Vec::new();
        for row in &current {
            extend_row(pattern, graph, row, &mut next);
        }
        for v in pattern.vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        current = next;
        if current.is_empty() {
            return current;
        }
    }
    current
}

fn pattern_boundness(t: &TriplePattern, bound: &[Var]) -> usize {
    let score = |x: &VarOrTerm| match x {
        VarOrTerm::Term(_) => 2,
        VarOrTerm::Var(v) if bound.contains(v) => 2,
        VarOrTerm::Var(_) => 0,
    };
    score(&t.s) * 4 + score(&t.p) + score(&t.o) * 2
}

/// Extends one row with every match of `pattern` under its bindings.
fn extend_row(pattern: &TriplePattern, graph: &Graph, row: &Row, out: &mut Rows) {
    // Resolve each position to a concrete id (if bound/ground) or None.
    let resolve = |x: &VarOrTerm| -> Resolution {
        match x {
            VarOrTerm::Term(t) => match graph.id(t) {
                Some(id) => Resolution::Bound(id),
                None => Resolution::NoMatch,
            },
            VarOrTerm::Var(v) => match row.get(v) {
                Some(t) => match graph.id(t) {
                    Some(id) => Resolution::Bound(id),
                    None => Resolution::NoMatch,
                },
                None => Resolution::Free(v.clone()),
            },
        }
    };
    let (rs, rp, ro) = (resolve(&pattern.s), resolve(&pattern.p), resolve(&pattern.o));
    if matches!(rs, Resolution::NoMatch)
        || matches!(rp, Resolution::NoMatch)
        || matches!(ro, Resolution::NoMatch)
    {
        return;
    }
    let mut gp = fedlake_rdf::TriplePattern::any();
    if let Resolution::Bound(id) = rs {
        gp = gp.with_s(id);
    }
    if let Resolution::Bound(id) = rp {
        gp = gp.with_p(id);
    }
    if let Resolution::Bound(id) = ro {
        gp = gp.with_o(id);
    }
    for [s, p, o] in graph.match_terms(&gp) {
        let mut extended = row.clone();
        let mut ok = true;
        let bind = |r: &Resolution, term: &Arc<Term>, ext: &mut Row| {
            if let Resolution::Free(v) = r {
                match ext.get(v) {
                    // Repeated free variable within the pattern, e.g.
                    // `?x <p> ?x` — both occurrences must agree.
                    Some(existing) => {
                        if *existing != **term {
                            return false;
                        }
                    }
                    // The graph's own handle: nothing is copied.
                    None => ext.bind_shared(v.clone(), Arc::clone(term)),
                }
            }
            true
        };
        ok &= bind(&rs, s, &mut extended);
        ok &= ok && bind(&rp, p, &mut extended);
        ok &= ok && bind(&ro, o, &mut extended);
        if ok {
            out.push(extended);
        }
    }
}

enum Resolution {
    Bound(fedlake_rdf::TermId),
    Free(Var),
    NoMatch,
}

/// Joins two row sets on their shared variables (nested-loop; inputs are
/// small intermediate results at this level).
fn nested_join(left: &Rows, right: &Rows) -> Rows {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if let Some(m) = l.merge(r) {
                out.push(m);
            }
        }
    }
    out
}

/// Total order on terms for `ORDER BY`: unbound < blanks < IRIs < literals;
/// among literals the numeric ones come first, by value (`f64::total_cmp`,
/// so NaN has a place), the rest by lexical form; datatype and language
/// break the remaining ties, so only a term compares equal to itself and
/// a sort does not depend on the order its input arrived in.
pub fn cmp_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => cmp_bound(x, y),
    }
}

fn rank(t: &Term) -> u8 {
    match t {
        Term::Blank(_) => 0,
        Term::Iri(_) => 1,
        Term::Literal(_) => 2,
    }
}

fn cmp_bound(x: &Term, y: &Term) -> Ordering {
    if rank(x) != rank(y) {
        return rank(x).cmp(&rank(y));
    }
    match (x, y) {
        (Term::Literal(a), Term::Literal(b)) => {
            let num = |l: &Literal| l.is_numeric().then(|| l.as_double()).flatten();
            let by_value = match (num(a), num(b)) {
                (Some(na), Some(nb)) => na.total_cmp(&nb),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            };
            // `Literal`'s derived order is lexical form, language, datatype.
            by_value.then_with(|| a.cmp(b))
        }
        (Term::Iri(a), Term::Iri(b)) => a.cmp(b),
        (Term::Blank(a), Term::Blank(b)) => a.cmp(b),
        _ => Ordering::Equal,
    }
}

/// Sorts rows by the given keys.
pub fn sort_rows(rows: &mut Rows, keys: &[OrderKey]) {
    rows.sort_by(|a, b| {
        for key in keys {
            let ord = cmp_terms(a.get(&key.var), b.get(&key.var));
            let ord = match key.order {
                Order::Asc => ord,
                Order::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let name = Term::iri("http://ex/name");
        let age = Term::iri("http://ex/age");
        let knows = Term::iri("http://ex/knows");
        let class = Term::iri("http://ex/Person");
        let typ = Term::iri(fedlake_rdf::vocab::rdf::TYPE);
        for (who, n, a) in [("alice", "Alice", 30), ("bob", "Bob", 25), ("carol", "Carol", 35)] {
            let s = Term::iri(format!("http://ex/{who}"));
            g.insert_terms(s.clone(), typ.clone(), class.clone());
            g.insert_terms(s.clone(), name.clone(), Term::literal(n));
            g.insert_terms(s, age.clone(), Term::integer(a));
        }
        g.insert_terms(
            Term::iri("http://ex/alice"),
            knows.clone(),
            Term::iri("http://ex/bob"),
        );
        g.insert_terms(
            Term::iri("http://ex/bob"),
            knows,
            Term::iri("http://ex/carol"),
        );
        g
    }

    fn run(q: &str) -> Rows {
        evaluate(&parse_query(q).unwrap(), &sample()).unwrap()
    }

    #[test]
    fn single_pattern() {
        let rows = run("SELECT ?n WHERE { ?s <http://ex/name> ?n }");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn bgp_join() {
        let rows = run(
            "SELECT ?n ?m WHERE { ?a <http://ex/knows> ?b . ?a <http://ex/name> ?n . ?b <http://ex/name> ?m }",
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn ground_subject() {
        let rows = run("SELECT ?n WHERE { <http://ex/alice> <http://ex/name> ?n }");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(&Var::new("n")),
            Some(&Term::literal("Alice"))
        );
    }

    #[test]
    fn absent_ground_term_yields_empty() {
        let rows = run("SELECT ?n WHERE { <http://ex/nobody> <http://ex/name> ?n }");
        assert!(rows.is_empty());
    }

    #[test]
    fn filter_numeric() {
        let rows = run("SELECT ?s WHERE { ?s <http://ex/age> ?a . FILTER(?a > 26) }");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn filter_string() {
        let rows =
            run(r#"SELECT ?s WHERE { ?s <http://ex/name> ?n . FILTER(CONTAINS(?n, "o")) }"#);
        // Bob and Carol contain 'o'.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let rows = run(
            "SELECT ?s ?b WHERE { ?s a <http://ex/Person> . OPTIONAL { ?s <http://ex/knows> ?b } }",
        );
        // alice→bob, bob→carol, carol (no match, kept unbound).
        assert_eq!(rows.len(), 3);
        let unbound = rows
            .iter()
            .filter(|r| !r.is_bound(&Var::new("b")))
            .count();
        assert_eq!(unbound, 1);
    }

    #[test]
    fn union_concatenates() {
        let rows = run(
            r#"SELECT ?n WHERE { { <http://ex/alice> <http://ex/name> ?n } UNION { <http://ex/bob> <http://ex/name> ?n } }"#,
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let rows = run("SELECT DISTINCT ?p WHERE { ?s ?p ?o . }");
        // type, name, age, knows.
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn order_by_numeric() {
        let rows = run(
            "SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY DESC(?a)",
        );
        let ages: Vec<i64> = rows
            .iter()
            .map(|r| {
                r.get(&Var::new("a"))
                    .unwrap()
                    .as_literal()
                    .unwrap()
                    .as_integer()
                    .unwrap()
            })
            .collect();
        assert_eq!(ages, vec![35, 30, 25]);
    }

    #[test]
    fn limit_offset() {
        let rows = run(
            "SELECT ?s WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 1 OFFSET 1",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(&Var::new("s")),
            Some(&Term::iri("http://ex/alice"))
        );
    }

    #[test]
    fn variable_predicate() {
        let rows = run("SELECT ?p WHERE { <http://ex/alice> ?p ?o }");
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let mut g = sample();
        g.insert_terms(
            Term::iri("http://ex/self"),
            Term::iri("http://ex/knows"),
            Term::iri("http://ex/self"),
        );
        let q = parse_query("SELECT ?x WHERE { ?x <http://ex/knows> ?x }").unwrap();
        let rows = evaluate(&q, &g).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(&Var::new("x")),
            Some(&Term::iri("http://ex/self"))
        );
    }

    #[test]
    fn projection_drops_other_vars() {
        let rows = run("SELECT ?n WHERE { ?s <http://ex/name> ?n }");
        assert!(rows.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn empty_bgp_yields_unit() {
        let q = parse_query("SELECT * WHERE { }").unwrap();
        let rows = evaluate(&q, &sample()).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].is_empty());
    }
}
