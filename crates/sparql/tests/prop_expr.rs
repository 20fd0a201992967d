//! Seeded generative equivalence for FILTER evaluation: over random
//! expression trees and random rows, the borrowing evaluator must agree —
//! on the `Row` path and on the slot-bound path over `encode_row(row)` —
//! with a frozen copy of the cloning interpreter it replaced, kept below as
//! the reference. Unbound variables, type errors, division by zero, NaN,
//! language-tagged, typed and malformed literals are all in the pools.

use fedlake_prng::Prng;
use fedlake_rdf::vocab::xsd;
use fedlake_rdf::{Dictionary, Literal, Term, TermId};
use fedlake_sparql::binding::{encode_row, Row, RowSchema, Var};
use fedlake_sparql::expr::{ArithOp, CmpOp, Expr, Value};

/// The interpreter as it stood before the borrowing evaluator: owned
/// values, every variable and constant cloned, every numeric re-parsed.
/// Frozen — do not "fix" it; it is the semantics being preserved.
///
/// Three differences are on purpose:
/// - `compare` below reads every number through `f64`, the evaluator
///   compares two `xsd:integer`-family literals as integers once either is
///   at or past 2^53 (`expr.rs::compare`; regression
///   `integers_beyond_2_pow_53_compare_exactly`). The pool's integers are
///   small, so the two agree on everything generated here.
/// - `ebv` below follows SPARQL 1.1 §17.2.2 where the interpreter did not:
///   NaN is false, and so is a numeric-typed literal with an invalid
///   lexical form (regression `ebv_of_nan_and_malformed_numerics_is_false`).
///   The pool holds both, so this rule is taken here rather than left out.
/// - `compare` below follows SPARQL 1.1 §17.3 where the interpreter did
///   not: two numbers one of which is NaN are unordered, not an error, so
///   `=` and the orderings are false and `!=` is true (regression
///   `comparisons_with_nan_are_false_except_not_equal`). The pool holds NaN,
///   so this rule is taken here too.
mod frozen {
    use super::*;
    use std::cmp::Ordering;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Term(Term),
        Bool(bool),
        Num(f64),
        Str(String),
    }

    impl Value {
        pub fn ebv(&self) -> Result<bool, ()> {
            match self {
                Value::Bool(b) => Ok(*b),
                Value::Num(n) => Ok(*n != 0.0 && !n.is_nan()),
                Value::Str(s) => Ok(!s.is_empty()),
                Value::Term(Term::Literal(l)) => {
                    if let Some(n) = numeric_value(l) {
                        Ok(n != 0.0 && !n.is_nan())
                    } else if l.is_numeric() {
                        Ok(false)
                    } else if l.datatype.as_deref() == Some(xsd::BOOLEAN) {
                        Ok(l.lexical == "true" || l.lexical == "1")
                    } else {
                        Ok(!l.lexical.is_empty())
                    }
                }
                Value::Term(_) => Err(()),
            }
        }
    }

    fn numeric_value(l: &Literal) -> Option<f64> {
        if l.is_numeric() {
            l.as_double()
        } else {
            None
        }
    }

    fn as_num(v: &Value) -> Option<f64> {
        match v {
            Value::Num(n) => Some(*n),
            Value::Term(Term::Literal(l)) => numeric_value(l),
            _ => None,
        }
    }

    fn as_str(v: &Value) -> Option<String> {
        match v {
            Value::Str(s) => Some(s.clone()),
            Value::Term(Term::Literal(l)) => Some(l.lexical.clone()),
            Value::Term(Term::Iri(i)) => Some(i.clone()),
            _ => None,
        }
    }

    fn compare(a: &Value, b: &Value) -> Result<Option<Ordering>, ()> {
        if let (Some(x), Some(y)) = (as_num(a), as_num(b)) {
            return Ok(x.partial_cmp(&y));
        }
        match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => Ok(Some(x.cmp(y))),
            (Value::Term(Term::Iri(x)), Value::Term(Term::Iri(y))) => Ok(Some(x.cmp(y))),
            (Value::Term(Term::Blank(x)), Value::Term(Term::Blank(y))) => Ok(Some(x.cmp(y))),
            _ => {
                let x = as_str(a).ok_or(())?;
                let y = as_str(b).ok_or(())?;
                Ok(Some(x.cmp(&y)))
            }
        }
    }

    fn cmp_test(op: CmpOp, ord: Option<Ordering>) -> bool {
        let Some(ord) = ord else { return op == CmpOp::Ne };
        match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    fn regex(s: &str, pattern: &str) -> bool {
        let starts = pattern.starts_with('^');
        let ends = pattern.ends_with('$') && pattern.len() > 1;
        let body = &pattern[usize::from(starts)..pattern.len() - usize::from(ends)];
        match (starts, ends) {
            (true, true) => s == body,
            (true, false) => s.starts_with(body),
            (false, true) => s.ends_with(body),
            (false, false) => s.contains(body),
        }
    }

    pub fn eval(e: &Expr, row: &Row) -> Result<Value, ()> {
        match e {
            Expr::Var(v) => row.get(v).cloned().map(Value::Term).ok_or(()),
            Expr::Const(t) => Ok(Value::Term(t.clone())),
            Expr::Cmp(a, op, b) => {
                let va = eval(a, row)?;
                let vb = eval(b, row)?;
                if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    if let (Value::Term(x), Value::Term(y)) = (&va, &vb) {
                        if as_num(&va).is_none() || as_num(&vb).is_none() {
                            let eq = x == y;
                            return Ok(Value::Bool(if *op == CmpOp::Eq { eq } else { !eq }));
                        }
                    }
                }
                Ok(Value::Bool(cmp_test(*op, compare(&va, &vb)?)))
            }
            Expr::Arith(a, op, b) => {
                let x = as_num(&eval(a, row)?).ok_or(())?;
                let y = as_num(&eval(b, row)?).ok_or(())?;
                let r = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Err(());
                        }
                        x / y
                    }
                };
                Ok(Value::Num(r))
            }
            Expr::And(a, b) => {
                let va = eval(a, row).and_then(|v| v.ebv());
                let vb = eval(b, row).and_then(|v| v.ebv());
                match (va, vb) {
                    (Ok(false), _) | (_, Ok(false)) => Ok(Value::Bool(false)),
                    (Ok(true), Ok(true)) => Ok(Value::Bool(true)),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            Expr::Or(a, b) => {
                let va = eval(a, row).and_then(|v| v.ebv());
                let vb = eval(b, row).and_then(|v| v.ebv());
                match (va, vb) {
                    (Ok(true), _) | (_, Ok(true)) => Ok(Value::Bool(true)),
                    (Ok(false), Ok(false)) => Ok(Value::Bool(false)),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            Expr::Not(e) => Ok(Value::Bool(!eval(e, row)?.ebv()?)),
            Expr::Bound(v) => Ok(Value::Bool(row.is_bound(v))),
            Expr::Regex(e, pattern) => {
                let s = as_str(&eval(e, row)?).ok_or(())?;
                Ok(Value::Bool(regex(&s, pattern)))
            }
            Expr::Contains(a, b) => {
                let s = as_str(&eval(a, row)?).ok_or(())?;
                let n = as_str(&eval(b, row)?).ok_or(())?;
                Ok(Value::Bool(s.contains(&n)))
            }
            Expr::StrStarts(a, b) => {
                let s = as_str(&eval(a, row)?).ok_or(())?;
                let n = as_str(&eval(b, row)?).ok_or(())?;
                Ok(Value::Bool(s.starts_with(&n)))
            }
            Expr::StrEnds(a, b) => {
                let s = as_str(&eval(a, row)?).ok_or(())?;
                let n = as_str(&eval(b, row)?).ok_or(())?;
                Ok(Value::Bool(s.ends_with(&n)))
            }
            Expr::Str(e) => Ok(Value::Str(as_str(&eval(e, row)?).ok_or(())?)),
            Expr::Lang(e) => match eval(e, row)? {
                Value::Term(Term::Literal(l)) => Ok(Value::Str(l.lang.unwrap_or_default())),
                _ => Err(()),
            },
        }
    }

    pub fn test(e: &Expr, row: &Row) -> bool {
        eval(e, row).and_then(|v| v.ebv()).unwrap_or(false)
    }
}

fn term_pool() -> Vec<Term> {
    let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, dt));
    vec![
        Term::integer(0),
        Term::integer(5),
        Term::integer(-3),
        Term::double(5.0),
        Term::double(2.5),
        Term::double(0.0),
        typed("NaN", xsd::DOUBLE),
        typed("inf", xsd::DOUBLE),
        typed("abc", xsd::INTEGER),
        typed("7", xsd::DECIMAL),
        Term::literal(""),
        Term::literal("abc"),
        Term::literal("5"),
        Term::literal("Homo sapiens"),
        Term::Literal(Literal::lang_tagged("chat", "en")),
        Term::Literal(Literal::lang_tagged("abc", "de")),
        typed("true", xsd::BOOLEAN),
        typed("0", xsd::BOOLEAN),
        typed("abc", xsd::STRING),
        typed("2020-03-30", xsd::DATE),
        Term::iri("http://x/a"),
        Term::iri("http://x/abc"),
        Term::blank("b0"),
        Term::blank("abc"),
    ]
}

/// Slot order deliberately differs from variable order; `?zz` is known to
/// no schema and bound in no row.
const SCHEMA_VARS: [&str; 4] = ["d", "b", "a", "c"];
const EXPR_VARS: [&str; 5] = ["a", "b", "c", "d", "zz"];
const PATTERNS: [&str; 9] = ["abc", "^abc", "abc$", "^abc$", "b", "^", "$", "^$", ""];
const VARIANTS: usize = 14;

fn variant(e: &Expr) -> usize {
    match e {
        Expr::Var(_) => 0,
        Expr::Const(_) => 1,
        Expr::Cmp(..) => 2,
        Expr::Arith(..) => 3,
        Expr::And(..) => 4,
        Expr::Or(..) => 5,
        Expr::Not(_) => 6,
        Expr::Bound(_) => 7,
        Expr::Regex(..) => 8,
        Expr::Contains(..) => 9,
        Expr::StrStarts(..) => 10,
        Expr::StrEnds(..) => 11,
        Expr::Str(_) => 12,
        Expr::Lang(_) => 13,
    }
}

fn arb_expr(rng: &mut Prng, pool: &[Term], depth: u32, seen: &mut [u64; VARIANTS]) -> Expr {
    let var = |rng: &mut Prng| Var::new(EXPR_VARS[rng.gen_range(0..EXPR_VARS.len())]);
    // Leaves only at the bottom; above it every variant is drawn.
    let pick = if depth == 0 { rng.gen_range(0..2usize) } else { rng.gen_range(0..VARIANTS) };
    let mut sub = |rng: &mut Prng| Box::new(arb_expr(rng, pool, depth.saturating_sub(1), seen));
    let e = match pick {
        0 => Expr::Var(var(rng)),
        1 => Expr::Const(pool[rng.gen_range(0..pool.len())].clone()),
        2 => {
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                [rng.gen_range(0..6usize)];
            Expr::Cmp(sub(rng), op, sub(rng))
        }
        3 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]
                [rng.gen_range(0..4usize)];
            Expr::Arith(sub(rng), op, sub(rng))
        }
        4 => Expr::And(sub(rng), sub(rng)),
        5 => Expr::Or(sub(rng), sub(rng)),
        6 => Expr::Not(sub(rng)),
        7 => Expr::Bound(var(rng)),
        8 => Expr::Regex(sub(rng), PATTERNS[rng.gen_range(0..PATTERNS.len())].to_string()),
        9 => Expr::Contains(sub(rng), sub(rng)),
        10 => Expr::StrStarts(sub(rng), sub(rng)),
        11 => Expr::StrEnds(sub(rng), sub(rng)),
        12 => Expr::Str(sub(rng)),
        _ => Expr::Lang(sub(rng)),
    };
    seen[variant(&e)] += 1;
    e
}

fn arb_row(rng: &mut Prng, pool: &[Term]) -> Row {
    let mut row = Row::new();
    for v in SCHEMA_VARS {
        if rng.gen_bool(0.7) {
            row.bind(Var::new(v), pool[rng.gen_range(0..pool.len())].clone());
        }
    }
    row
}

/// Both value types rendered the same way, NaN included.
fn canon_frozen(v: &Result<frozen::Value, ()>) -> String {
    match v {
        Ok(frozen::Value::Term(t)) => format!("term {t}"),
        Ok(frozen::Value::Bool(b)) => format!("bool {b}"),
        Ok(frozen::Value::Num(n)) => format!("num {n:?}"),
        Ok(frozen::Value::Str(s)) => format!("str {s:?}"),
        Err(()) => "error".to_string(),
    }
}

fn canon<E>(v: &Result<Value<'_>, E>) -> String {
    match v {
        Ok(Value::Term(t, _)) => format!("term {t}"),
        Ok(Value::Bool(b)) => format!("bool {b}"),
        Ok(Value::Num(n)) => format!("num {n:?}"),
        Ok(Value::Str(s)) => format!("str {s:?}"),
        Err(_) => "error".to_string(),
    }
}

#[test]
fn borrowing_evaluator_matches_the_frozen_interpreter() {
    let pool = term_pool();
    let schema = RowSchema::new(SCHEMA_VARS.map(Var::new));
    let mut rng = Prng::seed_from_u64(0x00f1_17e4);
    let mut seen = [0u64; VARIANTS];
    let (mut passed, mut errors) = (0u64, 0u64);
    for case in 0..4_000 {
        let depth = rng.gen_range(1u32..5);
        let expr = arb_expr(&mut rng, &pool, depth, &mut seen);
        let for_rows = expr.bind(None);
        let for_slots = expr.bind(Some(&schema));
        let mut dict = Dictionary::new();
        for _ in 0..6 {
            let row = arb_row(&mut rng, &pool);
            let want = frozen::eval(&expr, &row);
            assert_eq!(
                canon(&for_rows.eval(&row)),
                canon_frozen(&want),
                "case {case}: {expr} over {row}"
            );
            let keep = frozen::test(&expr, &row);
            assert_eq!(expr.test(&row), keep, "case {case}: {expr} over {row} (Row path)");
            let mut slots = vec![TermId::UNBOUND; schema.len()];
            encode_row(&row, &schema, &mut dict, |s, id| slots[s] = id);
            assert_eq!(
                for_slots.test_ids(|s| slots[s].bound(), &dict),
                keep,
                "case {case}: {expr} over {row} (slot path)"
            );
            passed += u64::from(keep);
            errors += u64::from(want.is_err());
        }
    }
    assert!(seen.iter().all(|&n| n > 100), "a variant was barely generated: {seen:?}");
    // The pools must exercise all three outcomes, not only errors.
    assert!(passed > 1_000 && errors > 1_000, "passed {passed}, errors {errors}");
}
