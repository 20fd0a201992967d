//! The SPARQL↔SQL boundary as one exhaustive table, with no engine run.
//!
//! Heuristic 2 pushes a FILTER into a source's SQL, and a ground pattern or a
//! bind-join key becomes a SQL literal. Each is sound only where SQL's
//! verdict on a stored value equals SPARQL's verdict on the term the value
//! lifts to. This suite crosses the classes where that can break:
//!
//! * a column: INT, DOUBLE, TEXT, BOOL, the subject key and a reference key,
//!   both keys minted through a template with a prefix and a suffix;
//! * a stored value: NULL, ±0.0, NaN, −NaN, ±INF, around 2^53, the `i64`
//!   extremes, 1e21, empty text, and text with `%`, `_`, `'`, `/`, `.`,
//!   non-ASCII or characters that percent-encode;
//! * an operator: `= != < <= > >=` either way round, `CONTAINS`,
//!   `STRSTARTS`, `STRENDS` and anchored `REGEX`, each over `?v` and over
//!   `STR(?v)`;
//! * a constant: the shared [`pool::literals`], every stored value's lift and
//!   its [`pool::restated`] forms, IRIs minted by either template or by
//!   neither, and a blank node.
//!
//! The planner decides, under `FilterPlacement::PushAll`, and the SQL it
//! writes runs through `Database::query_borrowed` on a one-row table, with
//! every column indexed and with none:
//!
//! * a FILTER either stays at the engine, or its SQL keeps the row iff
//!   `BoundExpr::test` keeps the lifted row;
//! * a ground pattern's SQL returns the row iff the row's lifted term *is*
//!   the constant (a ground NaN, ±INF or zero double may instead be the
//!   documented `Unsupported`: no SQL literal selects exactly it);
//! * a bind-join key is asked iff a stored value lifts to it, and its SQL
//!   returns the row iff the row's lifted term is the key;
//! * the must-push classes push, so the table cannot pass by declining;
//! * over the same pool, `sql_literal` parses back to its value,
//!   `term_to_value ∘ value_to_term` is the identity, and so is a
//!   template's `extract ∘ apply` on every key.

#[path = "boundary/pool.rs"]
mod pool;

use fedlake_core::config::FilterPlacement;
use fedlake_core::decompose::{StarSubject, StarSubquery};
use fedlake_core::fedplan::{BindTarget, FedPlan, ServiceKind};
use fedlake_core::planner::plan_query_with_health;
use fedlake_core::translate::{sql_literal, star_column, star_part};
use fedlake_core::wrapper::bind_batch_query;
use fedlake_core::{DataLake, DataSource, FedError, HealthView, PlanConfig, PlanMode};
use fedlake_mapping::lift::{term_to_value, value_key, value_to_term};
use fedlake_mapping::{lift_database, DatasetMapping, IriTemplate, TableMapping};
use fedlake_netsim::NetworkProfile;
use fedlake_rdf::{vocab, Term};
use fedlake_relational::sql::{parse, Operand, Predicate, Statement};
use fedlake_relational::{Column, DataType, Database, TableSchema, Value};
use fedlake_sparql::ast::{
    GroupGraphPattern, PatternElement, SelectQuery, TriplePattern, VarOrTerm,
};
use fedlake_sparql::binding::{Row, Var};
use fedlake_sparql::expr::{CmpOp, Expr};
use std::collections::{BTreeMap, HashMap};

const CLASS: &str = "http://lake.example/v/T";
const SUBJECT: (&str, &str) = ("http://lake.example/t/", ".json");
const REF: (&str, &str) = ("http://lake.example/r/", "/page");

/// The columns of `t(id TEXT PRIMARY KEY, i INT, d DOUBLE, s TEXT, b BOOL,
/// r TEXT)`, in table order: `id` mints the subject, `r` references.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Col {
    Subject,
    Int,
    Double,
    Text,
    Bool,
    Ref,
}

impl Col {
    const ALL: [Col; 6] = [
        Col::Subject,
        Col::Int,
        Col::Double,
        Col::Text,
        Col::Bool,
        Col::Ref,
    ];

    fn name(self) -> &'static str {
        ["id", "i", "d", "s", "b", "r"][self as usize]
    }

    fn data_type(self) -> DataType {
        match self {
            Col::Int => DataType::Int,
            Col::Double => DataType::Double,
            Col::Bool => DataType::Bool,
            Col::Subject | Col::Text | Col::Ref => DataType::Text,
        }
    }

    fn template(self) -> Option<IriTemplate> {
        match self {
            Col::Subject => Some(IriTemplate::new(SUBJECT.0, SUBJECT.1)),
            Col::Ref => Some(IriTemplate::new(REF.0, REF.1)),
            _ => None,
        }
    }

    fn predicate(self) -> String {
        format!("http://lake.example/v/{}", self.name())
    }

    /// The values the column stores. A key is never empty: a template
    /// reads no key back from the IRI it mints for the empty one.
    fn stored(self) -> Vec<Value> {
        const P53: i64 = 1 << 53;
        let text = |s: &[&str]| s.iter().map(|s| Value::text(*s)).collect::<Vec<_>>();
        let mut out = match self {
            Col::Int => [0, 5, -5, 123, P53 - 1, P53, P53 + 1, i64::MIN, i64::MAX]
                .map(Value::Int)
                .to_vec(),
            Col::Double => [
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                3.0,
                -1.5,
                (P53 - 1) as f64,
                P53 as f64,
                (P53 + 2) as f64,
                1e21,
            ]
            .map(Value::Double)
            .to_vec(),
            Col::Text => text(&[
                "", "5", "05", "Homo", "abc", "%", "_", "'", "a/b", "a.c", "é", "a b", "100%",
            ]),
            Col::Bool => vec![Value::Bool(true), Value::Bool(false)],
            Col::Subject | Col::Ref => {
                text(&["a/b", "a.c", "x", "5", "%", "_", "'", "é", "a b", "100%"])
            }
        };
        if self != Col::Subject {
            out.push(Value::Null);
        }
        out
    }
}

fn mapping() -> DatasetMapping {
    let mut tm = TableMapping::new("t", CLASS, IriTemplate::new(SUBJECT.0, SUBJECT.1), "id");
    for col in [Col::Int, Col::Double, Col::Text, Col::Bool] {
        tm = tm.with_literal(col.name(), &col.predicate());
    }
    let tm = tm.with_reference("r", &Col::Ref.predicate(), IriTemplate::new(REF.0, REF.1));
    DatasetMapping::new("lake").with_table(tm)
}

fn schema() -> TableSchema {
    let columns = Col::ALL.map(|c| match c {
        Col::Subject => Column::not_null(c.name(), c.data_type()),
        _ => Column::new(c.name(), c.data_type()),
    });
    TableSchema::new("t", columns.to_vec()).with_primary_key(&["id"])
}

/// `t` with one row: `value` in `col`, NULL in every other column but the
/// key, which is `k` unless `col` is the key. Indexed: an index on every
/// column; else only the primary key's.
fn one_row(col: Col, value: &Value, indexed: bool) -> Database {
    let mut db = Database::new("lake");
    db.create_table(schema()).unwrap();
    let mut row = vec![Value::Null; Col::ALL.len()];
    row[0] = Value::text("k");
    row[col as usize] = value.clone();
    db.insert_row("t", row).unwrap();
    if indexed {
        for c in &Col::ALL[1..] {
            db.create_index(
                "t",
                &format!("idx_{}", c.name()),
                &[c.name().to_string()],
                false,
            )
            .unwrap();
        }
    }
    db
}

/// The term `col`'s cell of `db`'s one row lifts to, through the oracle's
/// lift: `None` for NULL.
fn lifted(db: &Database, col: Col) -> Option<Term> {
    let graph = lift_database(db, &mapping());
    let predicate = Term::iri(col.predicate());
    let lift = graph.iter().find_map(|t| {
        let (s, p, o) = (graph.term(t.s)?, graph.term(t.p)?, graph.term(t.o)?);
        match col {
            Col::Subject => Some(s.clone()),
            _ => (*p == predicate).then(|| o.clone()),
        }
    });
    lift
}

/// One stored value of a column: its two one-row tables and its lift.
struct Cell {
    value: Value,
    dbs: [Database; 2],
    lift: Option<Term>,
}

fn cells(col: Col) -> Vec<Cell> {
    let cell = |value: Value| {
        let dbs = [one_row(col, &value, false), one_row(col, &value, true)];
        let lift = lifted(&dbs[0], col);
        Cell { value, dbs, lift }
    };
    col.stored().into_iter().map(cell).collect()
}

/// The constants `col` is checked against: the shared literals, every stored
/// value's lift and its restatements, IRIs of either template (one past
/// `a.c` and before `a/b` in key order, one for the empty key) or of
/// neither, and a blank node.
fn constants(cells: &[Cell]) -> Vec<Term> {
    let mut out = pool::literals();
    for lift in cells.iter().filter_map(|c| c.lift.as_ref()) {
        out.extend(pool::restated(lift));
        out.push(lift.clone());
    }
    for tmpl in [SUBJECT, REF].map(|(prefix, suffix)| IriTemplate::new(prefix, suffix)) {
        out.extend(["x", "a.d", "a0"].map(|k| Term::iri(tmpl.apply(k))));
    }
    out.extend(
        [
            "http://lake.example/t/.json",
            "http://lake.example/t/x.html",
            "http://elsewhere.example/t/x.json",
        ]
        .map(Term::iri),
    );
    out.push(Term::blank("b0"));
    let mut seen = Vec::new();
    out.retain(|t| {
        !seen.contains(t) && {
            seen.push(t.clone());
            true
        }
    });
    out
}

fn var(name: &str) -> VarOrTerm {
    VarOrTerm::Var(Var::new(name))
}

/// `subject`'s pattern on `col`: its class for the key column, else
/// `subject <col> object`.
fn pattern(col: Col, subject: VarOrTerm, object: VarOrTerm) -> TriplePattern {
    match col {
        Col::Subject => TriplePattern {
            s: subject,
            p: VarOrTerm::Term(Term::iri(vocab::rdf::TYPE)),
            o: VarOrTerm::Term(Term::iri(CLASS)),
        },
        _ => TriplePattern {
            s: subject,
            p: VarOrTerm::Term(Term::iri(col.predicate())),
            o: object,
        },
    }
}

fn query(triple: TriplePattern, filter: Option<Expr>) -> SelectQuery {
    let mut elements = vec![PatternElement::Triple(triple)];
    elements.extend(filter.map(PatternElement::Filter));
    SelectQuery {
        projection: Vec::new(),
        distinct: false,
        pattern: GroupGraphPattern { elements },
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

/// The lake the planner plans against: `t` and its mapping.
fn lake() -> DataLake {
    let mut lake = DataLake::new();
    let db = one_row(Col::Text, &Value::text("x"), true);
    lake.add_source(DataSource::relational("lake", db, mapping()));
    lake
}

/// The SQL of the plan's one leaf, and whether a FILTER stayed above it at
/// the engine.
fn plan(lake: &DataLake, q: &SelectQuery) -> Result<(String, bool), FedError> {
    let mode = PlanMode::Aware {
        h1_join_pushdown: true,
        filters: FilterPlacement::PushAll,
    };
    let config = PlanConfig::new(mode, NetworkProfile::GAMMA3);
    let planned = plan_query_with_health(q, lake, &config, &HealthView::default())?;
    let (leaf, kept) = match planned.plan {
        FedPlan::Filter { input, .. } => (*input, true),
        plan => (plan, false),
    };
    match leaf {
        FedPlan::Service(node) => match node.kind {
            ServiceKind::Sql { request, .. } => Ok((request.sql().to_string(), kept)),
            other => panic!("a SPARQL leaf over a relational source: {other:?}"),
        },
        other => panic!("one leaf: {other:?}"),
    }
}

/// Whether `sql` returns `db`'s one row.
fn returns_the_row(db: &Database, sql: &str) -> bool {
    let rows = db
        .query_borrowed(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
        .len();
    assert!(rows <= 1, "{sql} returned {rows} rows from a one-row table");
    rows == 1
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Every FILTER shape over `arg` and constant `c`, with the class it
/// reports under.
fn shapes(arg: &Expr, c: &Term) -> Vec<(String, Expr)> {
    let (a, k) = (
        || Box::new(arg.clone()),
        || Box::new(Expr::Const(c.clone())),
    );
    let mut out = Vec::new();
    for op in OPS {
        out.push((format!("{op}"), Expr::Cmp(a(), op, k())));
        out.push((format!("{op} flipped"), Expr::Cmp(k(), op, a())));
    }
    out.push(("CONTAINS".into(), Expr::Contains(a(), k())));
    out.push(("STRSTARTS".into(), Expr::StrStarts(a(), k())));
    out.push(("STRENDS".into(), Expr::StrEnds(a(), k())));
    if let Term::Literal(l) = c {
        let n = &l.lexical;
        for pattern in [
            format!("^{n}"),
            format!("{n}$"),
            format!("^{n}$"),
            n.clone(),
        ] {
            out.push(("REGEX".into(), Expr::Regex(a(), pattern)));
        }
    }
    out
}

/// The filter's variable, plain and under `STR`.
fn args() -> [(&'static str, Expr); 2] {
    let v = || Expr::Var(Var::new("v"));
    [("?v", v()), ("STR(?v)", Expr::Str(Box::new(v())))]
}

/// Disagreements by class, and up to a few examples of each.
#[derive(Default)]
struct Failures(BTreeMap<String, (usize, Vec<String>)>);

impl Failures {
    fn add(&mut self, class: String, example: impl FnOnce() -> String) {
        let (n, examples) = self.0.entry(class).or_default();
        *n += 1;
        if examples.len() < 3 {
            examples.push(example());
        }
    }

    fn assert_none(self, what: &str) {
        if self.0.is_empty() {
            return;
        }
        let mut report = format!("{what}: {} classes disagree\n", self.0.len());
        for (class, (n, examples)) in &self.0 {
            report += &format!("{class}: {n} cases, e.g.\n");
            for e in examples {
                report += &format!("    {e}\n");
            }
        }
        panic!("{report}");
    }
}

#[test]
fn a_pushed_filter_keeps_exactly_the_rows_the_engine_keeps() {
    let lake = lake();
    let mut failures = Failures::default();
    for col in Col::ALL {
        let cells = cells(col);
        // A SQL text's verdict on each cell, indexed and not.
        let mut verdicts: HashMap<String, Vec<[bool; 2]>> = HashMap::new();
        for c in constants(&cells) {
            for (form, arg) in args() {
                for (op, expr) in shapes(&arg, &c) {
                    let (s, v) = if col == Col::Subject {
                        (var("v"), var("o"))
                    } else {
                        (var("s"), var("v"))
                    };
                    let q = query(pattern(col, s, v), Some(expr.clone()));
                    let (sql, kept) = plan(&lake, &q).unwrap_or_else(|e| panic!("{expr}: {e}"));
                    if kept {
                        continue;
                    }
                    let got = verdicts.entry(sql.clone()).or_insert_with(|| {
                        cells
                            .iter()
                            .map(|cell| cell.dbs.each_ref().map(|db| returns_the_row(db, &sql)))
                            .collect()
                    });
                    let bound = expr.bind(None);
                    for (cell, got) in cells.iter().zip(got.iter()) {
                        let row = cell
                            .lift
                            .iter()
                            .fold(Row::new(), |r, t| r.with("v", t.clone()));
                        let want = bound.test(&row);
                        for (indexed, got) in [false, true].into_iter().zip(got) {
                            if *got != want {
                                failures.add(format!("{col:?} {form} {op}"), || {
                                    let index = if indexed { "indexed" } else { "unindexed" };
                                    format!(
                                        "{expr} on {:?} ({index}): engine {want}, SQL {got}: {sql}",
                                        cell.value
                                    )
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    failures.assert_none("pushed filters");
}

/// `c` is a double literal with no SQL literal that selects exactly its
/// stored value: NaN, ±INF, or a zero (SQL's `=` reads −0.0 and 0.0 as one).
fn unselectable(c: &Term) -> bool {
    c.as_literal().is_some_and(|l| {
        l.datatype.as_deref() == Some(vocab::xsd::DOUBLE)
            && l.as_double().is_some_and(|d| !d.is_finite() || d == 0.0)
    })
}

#[test]
fn a_ground_term_matches_exactly_the_row_that_lifts_to_it() {
    let lake = lake();
    let mut failures = Failures::default();
    for col in Col::ALL {
        let cells = cells(col);
        for c in constants(&cells) {
            if c.is_blank() {
                continue; // a blank node in a pattern is a variable
            }
            let ground = VarOrTerm::Term(c.clone());
            let q = match col {
                Col::Subject => query(pattern(col, ground, var("o")), None),
                _ => query(pattern(col, var("s"), ground), None),
            };
            let sql = match plan(&lake, &q) {
                Ok((sql, _)) => sql,
                Err(FedError::Unsupported(m))
                    if unselectable(&c) && m == format!("object {c} has no SQL literal") =>
                {
                    continue;
                }
                Err(e) => {
                    failures.add(format!("{col:?} ground: planning fails"), || {
                        format!("{c}: {e}")
                    });
                    continue;
                }
            };
            for cell in &cells {
                let want = cell.lift.as_ref() == Some(&c);
                for db in &cell.dbs {
                    let got = returns_the_row(db, &sql);
                    if got != want {
                        failures.add(format!("{col:?} ground"), || {
                            format!(
                                "{c} against {:?}: identical {want}, SQL {got}: {sql}",
                                cell.value
                            )
                        });
                    }
                }
            }
        }
    }
    failures.assert_none("ground patterns");
}

/// The bind-join target on `col`'s variable `?v`, over the star `?s <col> ?v`
/// (the key column: `?v a <T>`).
fn bind_target(col: Col) -> BindTarget {
    let (s, v) = if col == Col::Subject {
        (var("v"), var("o"))
    } else {
        (var("s"), var("v"))
    };
    let star = StarSubquery {
        subject: match &s {
            VarOrTerm::Var(s) => StarSubject::Var(s.clone()),
            VarOrTerm::Term(t) => StarSubject::Term(t.clone()),
        },
        triples: vec![pattern(col, s, v)],
        filters: Vec::new(),
        class: (col == Col::Subject).then(|| CLASS.to_string()),
    };
    let tm = mapping().for_table("t").unwrap().clone();
    BindTarget {
        source_id: "lake".into(),
        route: None,
        part: star_part(&star, &tm, &schema(), &[], "s0").unwrap(),
        join_var: Var::new("v"),
        column: star_column(&Var::new("v"), &star, &tm, &schema()).unwrap(),
        covers: star.subject.to_string(),
        estimated_rows: 1.0,
        lift: Default::default(),
        verdict_key: None,
    }
}

/// The SQL a bind join ships for the one key `c`, or `None`: the key is not
/// asked, since no stored value lifts to it.
fn bind_sql(target: &BindTarget, c: &Term) -> Option<String> {
    let asked = target.column.stores(c);
    assert_eq!(asked, target.column.stored(c).is_some(), "stores and stored part on {c}");
    asked.then(|| bind_batch_query(target, [c]).sql)
}

/// Every column but DOUBLE: the planner plans no bind join on one, since a
/// NaN or ±INF join term may be a stored one's lift and no `IN` list can
/// carry it.
#[test]
fn a_bind_key_is_asked_iff_a_stored_value_lifts_to_it() {
    let mut failures = Failures::default();
    for col in Col::ALL.into_iter().filter(|c| *c != Col::Double) {
        let cells = cells(col);
        let target = bind_target(col);
        for c in constants(&cells) {
            let sql = bind_sql(&target, &c);
            for cell in &cells {
                let want = cell.lift.as_ref() == Some(&c);
                let Some(sql) = &sql else {
                    if want {
                        failures.add(format!("{col:?} bind key not asked"), || {
                            format!("{c} for {:?}", cell.value)
                        });
                    }
                    continue;
                };
                for db in &cell.dbs {
                    let got = returns_the_row(db, sql);
                    if got != want {
                        failures.add(format!("{col:?} bind key"), || {
                            format!(
                                "{c} against {:?}: identical {want}, SQL {got}: {sql}",
                                cell.value
                            )
                        });
                    }
                }
            }
        }
    }
    failures.assert_none("bind keys");
}

/// The classes that must push, so the table cannot pass by declining them:
/// a TEXT column against a plain literal under every operator, over `?v`
/// and `STR(?v)`; a DOUBLE column against a finite number under
/// `= < <= > >=`; an INT column against an `i64` integer under all six
/// comparisons; a key column against the IRI its template mints, under
/// `=`. Together they cover Q1–Q5's filters.
#[test]
fn the_must_push_classes_push() {
    let lake = lake();
    let mut failures = Failures::default();
    let mut check = |col: Col, arg: &Expr, shapes: Vec<(String, Expr)>| {
        for (op, expr) in shapes {
            let (s, v) = if col == Col::Subject {
                (var("v"), var("o"))
            } else {
                (var("s"), var("v"))
            };
            let (_, kept) = plan(&lake, &query(pattern(col, s, v), Some(expr.clone()))).unwrap();
            if kept {
                failures.add(format!("{col:?} {arg} {op}"), || {
                    format!("{expr} stays at the engine")
                });
            }
        }
    };
    let plain = pool::literals().into_iter().filter(|t| {
        t.as_literal().is_some_and(|l| {
            l.lang.is_none() && l.datatype.is_none() && !l.lexical.contains(['%', '_'])
        })
    });
    for c in plain {
        for (_, arg) in args() {
            check(Col::Text, &arg, shapes(&arg, &c));
        }
    }
    let [(_, v), _] = args();
    let numbers = pool::literals().into_iter().filter(|t| {
        t.as_literal()
            .is_some_and(|l| l.is_numeric() && l.as_double().is_some_and(f64::is_finite))
    });
    for c in numbers {
        let ops = shapes(&v, &c).into_iter().filter(|(op, _)| {
            !op.starts_with("!=") && OPS.iter().any(|o| op.starts_with(&o.to_string()))
        });
        check(Col::Double, &v, ops.collect());
        if c.as_literal()
            .is_some_and(|l| l.is_integer() && l.as_integer().is_some())
        {
            let ops = shapes(&v, &c)
                .into_iter()
                .filter(|(op, _)| OPS.iter().any(|o| op.starts_with(&o.to_string())));
            check(Col::Int, &v, ops.collect());
        }
    }
    for col in [Col::Subject, Col::Ref] {
        let tmpl = col.template().unwrap();
        for key in col.stored().iter().filter(|k| !k.is_null()) {
            let c = Term::iri(tmpl.apply(&value_key(key)));
            let eq = shapes(&v, &c)
                .into_iter()
                .filter(|(op, _)| op.starts_with("= ") || op == "=");
            check(col, &v, eq.collect());
        }
    }
    failures.assert_none("must-push classes");
}

/// Two values are one: the same type and, for doubles, the same bits — but
/// any NaN is any other, since a NaN's sign is no part of its lexical form.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a.data_type() == b.data_type() && a == b,
    }
}

#[test]
fn literals_terms_and_keys_round_trip() {
    for col in Col::ALL {
        for v in col.stored().into_iter().filter(|v| !v.is_null()) {
            // `sql_literal` parses back to the value; NaN and ±INF have none.
            match sql_literal(&v) {
                None => assert!(
                    matches!(v, Value::Double(d) if !d.is_finite()),
                    "{v:?} has no SQL literal"
                ),
                Some(literal) => {
                    let sql = format!("SELECT id FROM t WHERE id = {literal}");
                    let Ok(Statement::Select(stmt)) = parse(&sql) else {
                        panic!("{sql} does not parse")
                    };
                    let Predicate::Compare {
                        right: Operand::Literal(back),
                        ..
                    } = &stmt.predicates[0]
                    else {
                        panic!("{sql}: {:?}", stmt.predicates)
                    };
                    assert!(
                        same(back, &v),
                        "{v:?} is written {literal} and read back {back:?}"
                    );
                }
            }
            // The lift, lowered again.
            let back = term_to_value(&value_to_term(&v, col.data_type()));
            assert!(same(&back, &v), "{v:?} lifts and lowers to {back:?}");
            // A key, minted and read back.
            if let Some(tmpl) = col.template() {
                let key = value_key(&v);
                assert_eq!(tmpl.extract(&tmpl.apply(&key)), Some(key), "{tmpl}");
            }
        }
    }
}
