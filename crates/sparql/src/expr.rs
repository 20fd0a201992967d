//! The SPARQL expression language used in `FILTER` clauses, and its
//! evaluation over solution mappings.
//!
//! Evaluation follows SPARQL's three-valued semantics loosely: a type error
//! (e.g. comparing a string to an IRI with `<`) yields `Err`, which a
//! `FILTER` treats as `false`.

use crate::binding::{Row, RowSchema, Var};
use fedlake_rdf::{Dictionary, Term, TermId};
use std::cmp::Ordering;
use std::fmt;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator applied to a comparison's outcome. `None` — two numbers,
    /// one of them NaN — is false for every operator but `!=`: XPath's
    /// `op:numeric-equal` and `op:numeric-less-than` are false on NaN, and
    /// SPARQL 1.1 §17.3 maps `!=` to `fn:not(op:numeric-equal)`.
    fn test(self, ord: Option<Ordering>) -> bool {
        let Some(ord) = ord else { return self == CmpOp::Ne };
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// A filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(Var),
    /// A constant term.
    Const(Term),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `BOUND(?v)`.
    Bound(Var),
    /// `REGEX(expr, pattern)` — substring/anchor subset, no full regex
    /// engine (supports `^` and `$` anchors and literal text).
    Regex(Box<Expr>, String),
    /// `CONTAINS(expr, literal)`.
    Contains(Box<Expr>, Box<Expr>),
    /// `STRSTARTS(expr, literal)`.
    StrStarts(Box<Expr>, Box<Expr>),
    /// `STRENDS(expr, literal)`.
    StrEnds(Box<Expr>, Box<Expr>),
    /// `STR(expr)` — the string form of a term.
    Str(Box<Expr>),
    /// `LANG(expr)`.
    Lang(Box<Expr>),
}

/// A value produced during expression evaluation. It borrows from the
/// row (or dictionary) and the bound expression it was computed over;
/// no expression builds a new string, so nothing is ever owned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// An RDF term, with its value when it is a well-formed numeric
    /// literal (parsed once: at bind time for a constant, at the read for
    /// a variable).
    Term(&'a Term, Option<f64>),
    /// A boolean.
    Bool(bool),
    /// A numeric value.
    Num(f64),
    /// A plain string (from `STR`/`LANG`).
    Str(&'a str),
}

/// Why an evaluation failed. A `FILTER` counts every error as `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// A variable the row does not bind.
    Unbound,
    /// An operand of the wrong kind for its operator.
    Type,
    /// Division by zero.
    DivisionByZero,
}

impl<'a> Value<'a> {
    fn term(t: &'a Term) -> Self {
        Value::Term(t, numeric_value(t))
    }

    /// SPARQL effective boolean value (SPARQL 1.1 §17.2.2): a number is
    /// false when it is zero or NaN, and a numeric- or boolean-typed literal
    /// with an invalid lexical form is false.
    pub fn ebv(self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Num(n) | Value::Term(_, Some(n)) => Ok(n != 0.0 && !n.is_nan()),
            Value::Str(s) => Ok(!s.is_empty()),
            Value::Term(Term::Literal(l), None) => {
                if l.datatype.as_deref() == Some(fedlake_rdf::vocab::xsd::BOOLEAN) {
                    Ok(l.lexical == "true" || l.lexical == "1")
                } else {
                    // A numeric literal reaches here only when its lexical
                    // form did not parse.
                    Ok(!l.is_numeric() && !l.lexical.is_empty())
                }
            }
            Value::Term(..) => Err(EvalError::Type),
        }
    }

    fn as_num(self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n),
            Value::Term(_, num) => num,
            _ => None,
        }
    }

    fn as_str(self) -> Option<&'a str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Term(Term::Literal(l), _) => Some(&l.lexical),
            Value::Term(Term::Iri(i), _) => Some(i),
            _ => None,
        }
    }
}

fn numeric_value(t: &Term) -> Option<f64> {
    match t {
        Term::Literal(l) if l.is_numeric() => l.as_double(),
        _ => None,
    }
}

/// 2^53: every integer of smaller magnitude is itself as an `f64`, so two
/// numbers below it compare exactly through their `f64` values.
const F64_EXACT: f64 = 9_007_199_254_740_992.0;

/// The value of a well-formed literal of the `xsd:integer` family. `None`
/// past `i128`, where the caller falls back to the `f64` reading.
fn integer_value(v: Value<'_>) -> Option<i128> {
    match v {
        Value::Term(Term::Literal(l), Some(_)) if l.is_integer() => l.lexical.parse().ok(),
        _ => None,
    }
}

/// Compares two values per SPARQL operator semantics. Two integer
/// literals compare as integers — what the same filter does once
/// Heuristic 2 has pushed it into SQL — and every other pair of numbers
/// as doubles. `None` when one of two numbers is NaN: unordered, which
/// [`CmpOp::test`] decides, not an error.
fn compare(a: Value<'_>, b: Value<'_>) -> Result<Option<Ordering>, EvalError> {
    if let (Some(x), Some(y)) = (a.as_num(), b.as_num()) {
        if x.abs() >= F64_EXACT || y.abs() >= F64_EXACT {
            if let (Some(i), Some(j)) = (integer_value(a), integer_value(b)) {
                return Ok(Some(i.cmp(&j)));
            }
        }
        return Ok(x.partial_cmp(&y));
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => Ok(Some(x.cmp(&y))),
        (Value::Term(Term::Blank(x), _), Value::Term(Term::Blank(y), _)) => Ok(Some(x.cmp(y))),
        _ => {
            let x = a.as_str().ok_or(EvalError::Type)?;
            let y = b.as_str().ok_or(EvalError::Type)?;
            Ok(Some(x.cmp(y)))
        }
    }
}

/// An [`Expr`] prepared for repeated evaluation: constants carry their
/// numeric value, `REGEX` patterns are split into anchors and body, and —
/// when bound against a [`RowSchema`] — every variable knows its slot, so
/// evaluating over dictionary-encoded rows is slot reads and `&str`
/// compares with no allocation and no name lookup.
#[derive(Debug, Clone)]
pub struct BoundExpr(Node);

#[derive(Debug, Clone)]
enum Node {
    /// `slot` is `None` when bound without a schema, or when the schema
    /// does not know the variable (it can then never be bound).
    Var { var: Var, slot: Option<usize> },
    Const { term: Term, num: Option<f64> },
    Cmp(Box<Node>, CmpOp, Box<Node>),
    Arith(Box<Node>, ArithOp, Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    Bound { var: Var, slot: Option<usize> },
    Regex { arg: Box<Node>, starts: bool, body: String, ends: bool },
    Contains(Box<Node>, Box<Node>),
    StrStarts(Box<Node>, Box<Node>),
    StrEnds(Box<Node>, Box<Node>),
    Str(Box<Node>),
    Lang(Box<Node>),
}

/// Where the evaluator reads a variable from. A [`Row`] is looked up by
/// name, dictionary-encoded rows by the slot resolved at bind time.
trait Source<'a> {
    fn term(&self, var: &Var, slot: Option<usize>) -> Option<&'a Term>;
}

struct RowSource<'a>(&'a Row);

impl<'a> Source<'a> for RowSource<'a> {
    fn term(&self, var: &Var, _slot: Option<usize>) -> Option<&'a Term> {
        self.0.get(var)
    }
}

struct IdSource<'a, F> {
    id_of: F,
    dict: &'a Dictionary,
}

impl<'a, F: Fn(usize) -> Option<TermId>> Source<'a> for IdSource<'a, F> {
    fn term(&self, _var: &Var, slot: Option<usize>) -> Option<&'a Term> {
        self.dict.term((self.id_of)(slot?)?)
    }
}

impl Node {
    fn bind(expr: &Expr, schema: Option<&RowSchema>) -> Node {
        let slot = |v: &Var| schema.and_then(|s| s.slot(v));
        let bx = |e: &Expr| Box::new(Node::bind(e, schema));
        match expr {
            Expr::Var(v) => Node::Var { var: v.clone(), slot: slot(v) },
            Expr::Const(t) => Node::Const { term: t.clone(), num: numeric_value(t) },
            Expr::Cmp(a, op, b) => Node::Cmp(bx(a), *op, bx(b)),
            Expr::Arith(a, op, b) => Node::Arith(bx(a), *op, bx(b)),
            Expr::And(a, b) => Node::And(bx(a), bx(b)),
            Expr::Or(a, b) => Node::Or(bx(a), bx(b)),
            Expr::Not(e) => Node::Not(bx(e)),
            Expr::Bound(v) => Node::Bound { var: v.clone(), slot: slot(v) },
            Expr::Regex(e, pattern) => {
                let (starts, body, ends) = split_anchors(pattern);
                Node::Regex { arg: bx(e), starts, body: body.to_string(), ends }
            }
            Expr::Contains(a, b) => Node::Contains(bx(a), bx(b)),
            Expr::StrStarts(a, b) => Node::StrStarts(bx(a), bx(b)),
            Expr::StrEnds(a, b) => Node::StrEnds(bx(a), bx(b)),
            Expr::Str(e) => Node::Str(bx(e)),
            Expr::Lang(e) => Node::Lang(bx(e)),
        }
    }

    fn eval<'a, S: Source<'a>>(&'a self, src: &S) -> Result<Value<'a>, EvalError> {
        let string = |n: &'a Node| n.eval(src)?.as_str().ok_or(EvalError::Type);
        match self {
            Node::Var { var, slot } => {
                src.term(var, *slot).map(Value::term).ok_or(EvalError::Unbound)
            }
            Node::Const { term, num } => Ok(Value::Term(term, *num)),
            Node::Cmp(a, op, b) => {
                let va = a.eval(src)?;
                let vb = b.eval(src)?;
                // `=`/`!=` on non-numeric terms is term equality.
                if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    if let (Value::Term(x, nx), Value::Term(y, ny)) = (va, vb) {
                        if nx.is_none() || ny.is_none() {
                            return Ok(Value::Bool((x == y) == (*op == CmpOp::Eq)));
                        }
                    }
                }
                Ok(Value::Bool(op.test(compare(va, vb)?)))
            }
            Node::Arith(a, op, b) => {
                let x = a.eval(src)?.as_num().ok_or(EvalError::Type)?;
                let y = b.eval(src)?.as_num().ok_or(EvalError::Type)?;
                let r = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        x / y
                    }
                };
                Ok(Value::Num(r))
            }
            Node::And(a, b) => {
                // SPARQL logical-and: false dominates errors.
                let va = a.eval(src).and_then(Value::ebv);
                if va == Ok(false) {
                    return Ok(Value::Bool(false));
                }
                match (va, b.eval(src).and_then(Value::ebv)) {
                    (_, Ok(false)) => Ok(Value::Bool(false)),
                    (Ok(_), Ok(true)) => Ok(Value::Bool(true)),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            Node::Or(a, b) => {
                // SPARQL logical-or: true dominates errors.
                let va = a.eval(src).and_then(Value::ebv);
                if va == Ok(true) {
                    return Ok(Value::Bool(true));
                }
                match (va, b.eval(src).and_then(Value::ebv)) {
                    (_, Ok(true)) => Ok(Value::Bool(true)),
                    (Ok(_), Ok(false)) => Ok(Value::Bool(false)),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            Node::Not(e) => Ok(Value::Bool(!e.eval(src)?.ebv()?)),
            Node::Bound { var, slot } => Ok(Value::Bool(src.term(var, *slot).is_some())),
            Node::Regex { arg, starts, body, ends } => {
                Ok(Value::Bool(anchored_match(string(arg)?, *starts, body, *ends)))
            }
            Node::Contains(a, b) => {
                let (s, n) = (string(a)?, string(b)?);
                Ok(Value::Bool(s.contains(n)))
            }
            Node::StrStarts(a, b) => {
                let (s, n) = (string(a)?, string(b)?);
                Ok(Value::Bool(s.starts_with(n)))
            }
            Node::StrEnds(a, b) => {
                let (s, n) = (string(a)?, string(b)?);
                Ok(Value::Bool(s.ends_with(n)))
            }
            Node::Str(e) => Ok(Value::Str(string(e)?)),
            Node::Lang(e) => match e.eval(src)? {
                Value::Term(Term::Literal(l), _) => {
                    Ok(Value::Str(l.lang.as_deref().unwrap_or_default()))
                }
                _ => Err(EvalError::Type),
            },
        }
    }

    /// Calls `f` with the slot of every variable read, repeats included.
    fn for_each_slot(&self, f: &mut impl FnMut(usize)) {
        match self {
            Node::Var { slot, .. } | Node::Bound { slot, .. } => slot.iter().copied().for_each(f),
            Node::Const { .. } => {}
            Node::Cmp(a, _, b)
            | Node::Arith(a, _, b)
            | Node::And(a, b)
            | Node::Or(a, b)
            | Node::Contains(a, b)
            | Node::StrStarts(a, b)
            | Node::StrEnds(a, b) => {
                a.for_each_slot(f);
                b.for_each_slot(f);
            }
            Node::Not(e) | Node::Regex { arg: e, .. } | Node::Str(e) | Node::Lang(e) => {
                e.for_each_slot(f)
            }
        }
    }
}

impl BoundExpr {
    /// Evaluates against a solution mapping.
    pub fn eval<'a>(&'a self, row: &'a Row) -> Result<Value<'a>, EvalError> {
        self.0.eval(&RowSource(row))
    }

    /// Evaluates as a filter condition: errors count as `false`, per
    /// SPARQL semantics.
    pub fn test(&self, row: &Row) -> bool {
        self.eval(row).and_then(Value::ebv).unwrap_or(false)
    }

    /// [`BoundExpr::test`] over a dictionary-encoded row: `id_of` reads
    /// the id in a schema slot of a row of a [`crate::binding::RowArena`], and ids
    /// resolve through `dict` only where a term's value is needed. The
    /// expression must have been bound against the schema the slots belong
    /// to; bound without one, it sees every variable unbound.
    pub fn test_ids(&self, id_of: impl Fn(usize) -> Option<TermId>, dict: &Dictionary) -> bool {
        self.0
            .eval(&IdSource { id_of, dict })
            .and_then(Value::ebv)
            .unwrap_or(false)
    }

    /// The schema slot the expression reads, when it reads exactly one
    /// (however often): its [`BoundExpr::test_ids`] verdict is then a
    /// function of that slot's id alone. `None` when it reads no slot — no
    /// variable, or only variables the schema does not know — or two or
    /// more.
    pub fn single_slot(&self) -> Option<usize> {
        let (mut one, mut more) = (None, false);
        self.0.for_each_slot(&mut |s| match one {
            None => one = Some(s),
            Some(first) => more |= first != s,
        });
        one.filter(|_| !more)
    }
}

impl Expr {
    /// Prepares the expression for repeated evaluation. With a schema its
    /// variables are resolved to slots for [`BoundExpr::test_ids`];
    /// evaluation over [`Row`]s needs none.
    pub fn bind(&self, schema: Option<&RowSchema>) -> BoundExpr {
        BoundExpr(Node::bind(self, schema))
    }

    /// One-off [`BoundExpr::test`]; bind once when testing many rows.
    pub fn test(&self, row: &Row) -> bool {
        self.bind(None).test(row)
    }

    /// All variables mentioned by the expression.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Var(v) | Expr::Bound(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Cmp(a, _, b)
            | Expr::Arith(a, _, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Contains(a, b)
            | Expr::StrStarts(a, b)
            | Expr::StrEnds(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(e) | Expr::Regex(e, _) | Expr::Str(e) | Expr::Lang(e) => {
                e.collect_vars(out)
            }
        }
    }

    /// True when this expression is a *simple instantiation* of a single
    /// variable — a pattern like `?v = const`, `CONTAINS(?v, "x")`,
    /// `STRSTARTS(STR(?v), "x")` or a comparison against a constant. These
    /// are the filters Heuristic 2 of the paper reasons about: they can be
    /// pushed into a source query as a WHERE condition on one column.
    pub fn is_simple_instantiation(&self) -> bool {
        fn is_var(e: &Expr) -> bool {
            matches!(e, Expr::Var(_)) || matches!(e, Expr::Str(inner) if is_var(inner))
        }
        fn is_const(e: &Expr) -> bool {
            matches!(e, Expr::Const(_))
        }
        match self {
            Expr::Cmp(a, _, b) => (is_var(a) && is_const(b)) || (is_const(a) && is_var(b)),
            Expr::Regex(e, _) => is_var(e),
            Expr::Contains(a, b) | Expr::StrStarts(a, b) | Expr::StrEnds(a, b) => {
                is_var(a) && is_const(b)
            }
            _ => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(t) => write!(f, "{t}"),
            Expr::Cmp(a, op, b) => write!(f, "({a} {op} {b})"),
            Expr::Arith(a, op, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Bound(v) => write!(f, "BOUND({v})"),
            Expr::Regex(e, p) => write!(f, "REGEX({e}, \"{p}\")"),
            Expr::Contains(a, b) => write!(f, "CONTAINS({a}, {b})"),
            Expr::StrStarts(a, b) => write!(f, "STRSTARTS({a}, {b})"),
            Expr::StrEnds(a, b) => write!(f, "STRENDS({a}, {b})"),
            Expr::Str(e) => write!(f, "STR({e})"),
            Expr::Lang(e) => write!(f, "LANG({e})"),
        }
    }
}

/// A minimal "regex" matcher supporting `^`/`$` anchors around literal text.
/// This covers the instantiation patterns used by the paper's workload
/// without pulling in a regex engine.
pub fn simple_regex_match(s: &str, pattern: &str) -> bool {
    let (starts, body, ends) = split_anchors(pattern);
    anchored_match(s, starts, body, ends)
}

/// Splits a `REGEX` pattern into its `^` anchor, literal body and `$`
/// anchor: the one reading of a pattern, for the evaluator and for the SQL
/// translation alike.
pub fn split_anchors(pattern: &str) -> (bool, &str, bool) {
    let starts = pattern.starts_with('^');
    let ends = pattern.ends_with('$') && pattern.len() > 1;
    let body = &pattern[usize::from(starts)..pattern.len() - usize::from(ends)];
    (starts, body, ends)
}

fn anchored_match(s: &str, starts: bool, body: &str, ends: bool) -> bool {
    match (starts, ends) {
        (true, true) => s == body,
        (true, false) => s.starts_with(body),
        (false, true) => s.ends_with(body),
        (false, false) => s.contains(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new()
            .with("n", Term::integer(5))
            .with("s", Term::literal("Homo sapiens"))
            .with("i", Term::iri("http://x/a"))
    }

    fn var(n: &str) -> Box<Expr> {
        Box::new(Expr::Var(Var::new(n)))
    }

    fn int(v: i64) -> Box<Expr> {
        Box::new(Expr::Const(Term::integer(v)))
    }

    fn s(v: &str) -> Box<Expr> {
        Box::new(Expr::Const(Term::literal(v)))
    }

    #[test]
    fn numeric_comparisons() {
        assert!(Expr::Cmp(var("n"), CmpOp::Eq, int(5)).test(&row()));
        assert!(Expr::Cmp(var("n"), CmpOp::Lt, int(6)).test(&row()));
        assert!(Expr::Cmp(var("n"), CmpOp::Ge, int(5)).test(&row()));
        assert!(!Expr::Cmp(var("n"), CmpOp::Gt, int(5)).test(&row()));
    }

    /// 2^53 + 1 is not an `f64`: read through one it *is* 2^53, and the
    /// engine-side FILTER would keep a row the same filter pushed into SQL
    /// (which compares `Int` with `Int`) drops.
    #[test]
    fn integers_beyond_2_pow_53_compare_exactly() {
        const P53: i64 = 1 << 53;
        let r = Row::new().with("v", Term::integer(P53));
        assert!(!Expr::Cmp(var("v"), CmpOp::Eq, int(P53 + 1)).test(&r));
        assert!(Expr::Cmp(var("v"), CmpOp::Ne, int(P53 + 1)).test(&r));
        assert!(Expr::Cmp(int(P53 + 1), CmpOp::Gt, var("v")).test(&r));
        assert!(Expr::Cmp(var("v"), CmpOp::Lt, int(P53 + 1)).test(&r));
        assert!(Expr::Cmp(var("v"), CmpOp::Eq, int(P53)).test(&r));
        // Negative, and the other integer datatypes.
        let long = |v: i64| {
            let dt = "http://www.w3.org/2001/XMLSchema#long";
            Box::new(Expr::Const(Term::Literal(Literal::typed(v.to_string(), dt))))
        };
        assert!(Expr::Cmp(long(-P53 - 1), CmpOp::Lt, int(-P53)).test(&r));
        assert!(!Expr::Cmp(long(P53 + 1), CmpOp::Eq, var("v")).test(&r));
        // Past `i128` the lexical form no longer parses as an integer and
        // the comparison falls back to `f64`.
        let huge = |last: char| {
            let lex = format!("{}{last}", "9".repeat(40));
            Box::new(Expr::Const(Term::Literal(Literal::typed(lex, fedlake_rdf::vocab::xsd::INTEGER))))
        };
        assert!(Expr::Cmp(huge('1'), CmpOp::Eq, huge('2')).test(&r));
        assert!(Expr::Cmp(huge('1'), CmpOp::Gt, var("v")).test(&r));
        // An integer against a double is still a comparison of doubles.
        let d = Box::new(Expr::Const(Term::double(P53 as f64)));
        assert!(Expr::Cmp(int(P53 + 1), CmpOp::Eq, d).test(&r));
    }

    /// SPARQL 1.1 §17.2.2: a numeric operand's effective boolean value is
    /// false when it is NaN or zero, and so is a numeric-typed literal whose
    /// lexical form is invalid. Both used to read as true: NaN is not
    /// `0.0`, and `"abc"^^xsd:integer` has no value and a non-empty lexical
    /// form.
    #[test]
    fn ebv_of_nan_and_malformed_numerics_is_false() {
        use fedlake_rdf::vocab::xsd;
        let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, dt));
        let r = Row::new()
            .with("nan", typed("NaN", xsd::DOUBLE))
            .with("bad", typed("abc", xsd::INTEGER))
            .with("empty", typed("", xsd::DECIMAL))
            .with("inf", typed("INF", xsd::DOUBLE));
        assert_eq!(Value::Num(f64::NAN).ebv(), Ok(false));
        for v in ["nan", "bad", "empty"] {
            assert!(!Expr::Var(Var::new(v)).test(&r), "?{v}");
            assert!(Expr::Not(var(v)).test(&r), "!?{v}");
        }
        // NaN that arithmetic makes is false too.
        assert!(!Expr::Arith(var("nan"), ArithOp::Add, int(1)).test(&r));
        // What was right stays right: infinity and non-zero numbers are
        // true, zero and the non-numeric cases keep their rules.
        assert!(Expr::Var(Var::new("inf")).test(&r));
        assert!(Expr::Var(Var::new("n")).test(&row()));
        assert!(!Expr::Arith(var("n"), ArithOp::Sub, int(5)).test(&row()));
        assert!(Expr::Var(Var::new("s")).test(&row()));
        let b = Row::new().with("t", typed("true", xsd::BOOLEAN)).with("f", typed("abc", xsd::BOOLEAN));
        assert!(Expr::Var(Var::new("t")).test(&b));
        assert!(!Expr::Var(Var::new("f")).test(&b));
    }

    /// SPARQL 1.1 §17.3 maps `!=` to `fn:not(op:numeric-equal)`, and XPath's
    /// `op:numeric-equal` and `op:numeric-less-than` are false when an
    /// operand is NaN: `=` and the four orderings are false and `!=` is
    /// true — a boolean, not an error. As an error, `?x != NaN` and
    /// `!(?x < NaN)` both dropped every row.
    #[test]
    fn comparisons_with_nan_are_false_except_not_equal() {
        let nan = || Box::new(Expr::Const(Term::double(f64::NAN)));
        let not = |e: Expr| Expr::Not(Box::new(e));
        for x in [Term::double(1.5), Term::double(3.0), Term::integer(2), Term::double(f64::NAN)] {
            let r = Row::new().with("x", x.clone());
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                assert!(!Expr::Cmp(var("x"), op, nan()).test(&r), "{x} {op} NaN");
                assert!(!Expr::Cmp(nan(), op, var("x")).test(&r), "NaN {op} {x}");
                assert!(not(Expr::Cmp(var("x"), op, nan())).test(&r), "!({x} {op} NaN)");
            }
            assert!(Expr::Cmp(var("x"), CmpOp::Ne, nan()).test(&r), "{x} != NaN");
            assert!(!not(Expr::Cmp(var("x"), CmpOp::Ne, nan())).test(&r), "!({x} != NaN)");
            // NaN that arithmetic makes compares the same way.
            let made = Box::new(Expr::Arith(nan(), ArithOp::Add, int(1)));
            assert!(Expr::Cmp(var("x"), CmpOp::Ne, made.clone()).test(&r), "{x} != NaN + 1");
            assert!(!Expr::Cmp(made, CmpOp::Ge, var("x")).test(&r), "NaN + 1 >= {x}");
        }
    }

    #[test]
    fn string_comparisons() {
        assert!(Expr::Cmp(var("s"), CmpOp::Eq, s("Homo sapiens")).test(&row()));
        assert!(Expr::Cmp(var("s"), CmpOp::Ne, s("Mus musculus")).test(&row()));
    }

    #[test]
    fn iri_equality() {
        let e = Expr::Cmp(
            var("i"),
            CmpOp::Eq,
            Box::new(Expr::Const(Term::iri("http://x/a"))),
        );
        assert!(e.test(&row()));
    }

    #[test]
    fn logical_operators() {
        let t = Expr::Cmp(var("n"), CmpOp::Eq, int(5));
        let f = Expr::Cmp(var("n"), CmpOp::Eq, int(6));
        assert!(Expr::And(Box::new(t.clone()), Box::new(t.clone())).test(&row()));
        assert!(!Expr::And(Box::new(t.clone()), Box::new(f.clone())).test(&row()));
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone())).test(&row()));
        assert!(!Expr::Or(Box::new(f.clone()), Box::new(f.clone())).test(&row()));
        assert!(Expr::Not(Box::new(f)).test(&row()));
        assert!(!Expr::Not(Box::new(t)).test(&row()));
    }

    #[test]
    fn error_false_dominance() {
        // ?missing is unbound → error; AND(false, error) = false,
        // OR(true, error) = true.
        let err = Expr::Cmp(var("missing"), CmpOp::Eq, int(1));
        let f = Expr::Cmp(var("n"), CmpOp::Eq, int(6));
        let t = Expr::Cmp(var("n"), CmpOp::Eq, int(5));
        assert!(!Expr::And(Box::new(f), Box::new(err.clone())).test(&row()));
        assert!(Expr::Or(Box::new(t), Box::new(err.clone())).test(&row()));
        // Bare error filters to false.
        assert!(!err.test(&row()));
    }

    #[test]
    fn string_functions() {
        assert!(Expr::Contains(var("s"), s("sapiens")).test(&row()));
        assert!(Expr::StrStarts(var("s"), s("Homo")).test(&row()));
        assert!(Expr::StrEnds(var("s"), s("sapiens")).test(&row()));
        assert!(!Expr::Contains(var("s"), s("musculus")).test(&row()));
    }

    #[test]
    fn regex_subset() {
        assert!(simple_regex_match("Homo sapiens", "sapiens"));
        assert!(simple_regex_match("Homo sapiens", "^Homo"));
        assert!(simple_regex_match("Homo sapiens", "sapiens$"));
        assert!(simple_regex_match("Homo sapiens", "^Homo sapiens$"));
        assert!(!simple_regex_match("Homo sapiens", "^sapiens"));
        assert!(Expr::Regex(var("s"), "^Homo".into()).test(&row()));
    }

    #[test]
    fn str_and_lang() {
        let r = Row::new().with("l", Term::Literal(Literal::lang_tagged("chat", "en")));
        assert_eq!(Expr::Lang(var("l")).bind(None).eval(&r), Ok(Value::Str("en")));
        assert_eq!(Expr::Str(var("l")).bind(None).eval(&r), Ok(Value::Str("chat")));
        // STR of an IRI yields the IRI text.
        assert_eq!(
            Expr::Str(var("i")).bind(None).eval(&row()),
            Ok(Value::Str("http://x/a"))
        );
    }

    #[test]
    fn arithmetic() {
        let e = Expr::Cmp(
            Box::new(Expr::Arith(var("n"), ArithOp::Add, int(3))),
            CmpOp::Eq,
            int(8),
        );
        assert!(e.test(&row()));
        let div0 = Expr::Arith(var("n"), ArithOp::Div, int(0));
        assert_eq!(div0.bind(None).eval(&row()), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn bound() {
        assert!(Expr::Bound(Var::new("n")).test(&row()));
        assert!(!Expr::Bound(Var::new("zz")).test(&row()));
    }

    #[test]
    fn simple_instantiation_detection() {
        assert!(Expr::Cmp(var("s"), CmpOp::Eq, s("x")).is_simple_instantiation());
        assert!(Expr::Cmp(s("x"), CmpOp::Eq, var("s")).is_simple_instantiation());
        assert!(Expr::Contains(var("s"), s("x")).is_simple_instantiation());
        assert!(Expr::Regex(var("s"), "x".into()).is_simple_instantiation());
        assert!(
            Expr::Cmp(Box::new(Expr::Str(var("s"))), CmpOp::Eq, s("x"))
                .is_simple_instantiation()
        );
        // Joins of two variables are not instantiations.
        assert!(!Expr::Cmp(var("a"), CmpOp::Eq, var("b")).is_simple_instantiation());
        assert!(!Expr::Bound(Var::new("a")).is_simple_instantiation());
    }

    #[test]
    fn slot_eval_matches_row_eval() {
        use crate::binding::{encode_row, RowSchema};
        let r = row();
        let schema = RowSchema::new(["n", "s", "i", "missing"].map(Var::new));
        let mut dict = Dictionary::new();
        let mut slots = vec![TermId::UNBOUND; schema.len()];
        encode_row(&r, &schema, &mut dict, |s, id| slots[s] = id);
        let exprs = [
            Expr::Cmp(var("n"), CmpOp::Eq, int(5)),
            Expr::Cmp(var("n"), CmpOp::Lt, int(6)),
            // Numerically equal but lexically distinct: ids differ, yet
            // `=` must still hold — the id path may not shortcut this.
            Expr::Cmp(var("n"), CmpOp::Eq, Box::new(Expr::Const(Term::double(5.0)))),
            Expr::Cmp(var("s"), CmpOp::Eq, s("Homo sapiens")),
            Expr::Contains(var("s"), s("sapiens")),
            Expr::Bound(Var::new("n")),
            Expr::Bound(Var::new("missing")),
            Expr::Cmp(var("missing"), CmpOp::Eq, int(1)),
            Expr::Regex(var("s"), "^Homo".into()),
        ];
        for e in exprs {
            assert_eq!(
                e.test(&r),
                e.bind(Some(&schema)).test_ids(|s| slots[s].bound(), &dict),
                "expr {e} disagrees between representations"
            );
        }
    }

    #[test]
    fn single_slot_counts_distinct_known_slots() {
        let schema = RowSchema::new(["n", "s"].map(Var::new));
        let slot = |e: Expr| e.bind(Some(&schema)).single_slot();
        let n_eq_5 = Expr::Cmp(var("n"), CmpOp::Eq, int(5));
        assert_eq!(slot(n_eq_5.clone()), Some(0));
        // Read twice, and beside a variable the schema does not know.
        let twice = Expr::And(Box::new(n_eq_5.clone()), Box::new(Expr::Bound(Var::new("n"))));
        assert_eq!(slot(twice), Some(0));
        assert_eq!(slot(Expr::Or(Box::new(n_eq_5.clone()), var("zz"))), Some(0));
        assert_eq!(slot(Expr::Cmp(var("n"), CmpOp::Eq, var("s"))), None);
        assert_eq!(slot(Expr::Not(int(1))), None);
        assert_eq!(slot(Expr::Bound(Var::new("zz"))), None);
        // Bound without a schema, nothing has a slot.
        assert_eq!(n_eq_5.bind(None).single_slot(), None);
    }

    #[test]
    fn expr_vars() {
        let e = Expr::And(
            Box::new(Expr::Cmp(var("a"), CmpOp::Eq, var("b"))),
            Box::new(Expr::Bound(Var::new("a"))),
        );
        assert_eq!(e.vars().len(), 2);
    }

    use fedlake_rdf::Literal;
}
