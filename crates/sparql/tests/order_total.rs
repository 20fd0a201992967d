//! `ORDER BY` must be a total order: the engine and the oracle sort the
//! same answers from different input orders, so a comparator that cycles
//! (numeric vs. lexical literals) or calls NaN equal to everything makes
//! `ORDER BY … LIMIT` depend on arrival order — and `slice::sort_by` is
//! allowed to panic on it.

use fedlake_prng::Prng;
use fedlake_rdf::vocab::xsd;
use fedlake_rdf::{Literal, Term};
use fedlake_sparql::ast::{Order, OrderKey};
use fedlake_sparql::binding::{Row, Var};
use fedlake_sparql::eval::{cmp_terms, sort_rows};
use std::cmp::Ordering;

/// Mixed literals whose pairwise comparisons cycle under a comparator
/// that falls back to lexical order whenever one side is not numeric:
/// `"10"^^integer < "1x" < "2"^^integer < "10"^^integer`.
fn pool() -> Vec<Option<Term>> {
    let mut pool: Vec<Option<Term>> = vec![None];
    for i in [10, 2, 9, 100, -3, 5] {
        pool.push(Some(Term::integer(i)));
    }
    for s in ["1x", "10", "2", "abc", "", "5"] {
        pool.push(Some(Term::literal(s)));
    }
    for d in ["NaN", "5.0", "1e2", "-inf"] {
        pool.push(Some(Term::Literal(Literal::typed(d, xsd::DOUBLE))));
    }
    pool.push(Some(Term::Literal(Literal::typed("not a number", xsd::INTEGER))));
    pool.push(Some(Term::Literal(Literal::lang_tagged("abc", "en"))));
    pool.push(Some(Term::iri("http://x/a")));
    pool.push(Some(Term::blank("b0")));
    pool
}

fn shuffled(pool: &[Option<Term>], rng: &mut Prng) -> Vec<Row> {
    let mut items: Vec<&Option<Term>> = pool.iter().chain(pool.iter()).collect();
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
    items
        .into_iter()
        .map(|t| match t {
            Some(t) => Row::new().with("k", t.clone()),
            None => Row::new(),
        })
        .collect()
}

#[test]
fn order_by_is_independent_of_input_order() {
    let k = Var::new("k");
    let pool = pool();
    for order in [Order::Asc, Order::Desc] {
        let keys = [OrderKey { var: k.clone(), order }];
        for seed in 0..64u64 {
            let mut a = shuffled(&pool, &mut Prng::seed_from_u64(seed));
            let mut b = shuffled(&pool, &mut Prng::seed_from_u64(seed ^ 0xdead_beef));
            sort_rows(&mut a, &keys);
            sort_rows(&mut b, &keys);
            assert_eq!(a, b, "seed {seed}: sorted output depends on input order");
            // Sorted under the comparator itself: no later row may order
            // strictly before an earlier one (a cycle breaks this even
            // when adjacent pairs look fine).
            for i in 0..a.len() {
                for j in i + 1..a.len() {
                    let ord = cmp_terms(a[i].get(&k), a[j].get(&k));
                    let ord = if order == Order::Desc { ord.reverse() } else { ord };
                    assert_ne!(
                        ord,
                        Ordering::Greater,
                        "seed {seed}: {} sorts before {}",
                        a[i],
                        a[j]
                    );
                }
            }
        }
    }
}

#[test]
fn comparator_is_antisymmetric_and_transitive() {
    let pool = pool();
    for a in &pool {
        for b in &pool {
            let ab = cmp_terms(a.as_ref(), b.as_ref());
            assert_eq!(ab, cmp_terms(b.as_ref(), a.as_ref()).reverse(), "{a:?} vs {b:?}");
            assert_eq!(ab == Ordering::Equal, a == b, "{a:?} vs {b:?}: only a term equals itself");
            for c in &pool {
                if ab == Ordering::Less && cmp_terms(b.as_ref(), c.as_ref()) == Ordering::Less {
                    assert_eq!(
                        cmp_terms(a.as_ref(), c.as_ref()),
                        Ordering::Less,
                        "{a:?} < {b:?} < {c:?} must be transitive"
                    );
                }
            }
        }
    }
}
