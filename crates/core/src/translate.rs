//! SPARQL→SQL translation for star-shaped sub-queries over mapped
//! relational sources.
//!
//! A star over a mapped table becomes one `SELECT` on that table: the
//! subject variable binds to the subject (key) column, each
//! variable-object pattern selects its mapped column, ground objects and
//! pushed filters (Heuristic 2) become `WHERE` conjuncts, and Heuristic 1
//! merges two stars into one `SELECT … JOIN … ON …`. The generated SQL is
//! real text executed through the relational engine's parser — the same
//! interface Ontario's SQL wrapper has to MySQL.
//!
//! Every term that enters SQL crosses one boundary, decided here: a star
//! variable's column ([`star_column`]), the stored value whose lift *is* a
//! term ([`StarColumn::stored`]) and what a FILTER may push
//! (`push_filter`), all held by `crates/core/tests/sql_boundary.rs`.

use crate::decompose::{StarSubject, StarSubquery};
use crate::error::FedError;
use fedlake_mapping::lift::{term_to_value, value_to_term};
use fedlake_mapping::{IriTemplate, TableMapping};
use fedlake_rdf::{Literal, Term};
use fedlake_relational::{DataType, TableSchema, Value};
use fedlake_sparql::ast::VarOrTerm;
use fedlake_sparql::binding::Var;
use fedlake_sparql::expr::{split_anchors, CmpOp, Expr};

/// How one SQL output column lifts back to an RDF term.
#[derive(Debug, Clone, PartialEq)]
pub enum Lift {
    /// Mint the star's subject IRI through its template.
    SubjectIri(IriTemplate),
    /// Mint a referenced entity's IRI through the FK's template.
    RefIri(IriTemplate),
    /// Lift a literal column by datatype.
    Literal(DataType),
}

/// One output column of a translated query.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputBinding {
    /// The SPARQL variable this column binds.
    pub var: Var,
    /// How to lift the column value.
    pub lift: Lift,
}

/// The per-star SQL fragments, composable into single or merged queries.
#[derive(Debug, Clone, PartialEq)]
pub struct StarPart {
    /// Source table.
    pub table: String,
    /// Table alias in the generated SQL.
    pub alias: String,
    /// `SELECT` items: (column, output name).
    pub select: Vec<(String, String)>,
    /// `WHERE` conjuncts (already alias-qualified SQL text).
    pub wheres: Vec<String>,
    /// Output bindings aligned with `select`.
    pub outputs: Vec<OutputBinding>,
    /// Emit `SELECT DISTINCT`: required when the star's subject column is
    /// not the table's primary key (denormalized designs duplicate the
    /// subject across rows, while RDF star bindings are distinct).
    pub distinct: bool,
}

/// A complete translated query.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslatedQuery {
    /// The SQL text to send to the source.
    pub sql: String,
    /// How the result columns bind SPARQL variables, in column order.
    pub outputs: Vec<OutputBinding>,
}

/// A star position's column — the subject key column, or a predicate's
/// mapped column — and what it stores: keys minted into IRIs through a
/// template, or literals of its SQL type.
#[derive(Debug, Clone, PartialEq)]
pub struct StarColumn {
    /// The column's name in the star's table.
    pub name: String,
    /// How the column's values lift to terms.
    pub lift: Lift,
}

impl StarColumn {
    /// `tm`'s subject key column (`pred` = `None`) or the column `pred`
    /// maps to.
    fn of(tm: &TableMapping, schema: &TableSchema, pred: Option<&str>) -> Result<Self, FedError> {
        let Some(p) = pred else {
            let lift = Lift::SubjectIri(tm.subject_template.clone());
            return Ok(StarColumn { name: tm.subject_column.clone(), lift });
        };
        let pm = tm.column_for_predicate(p).ok_or_else(|| {
            FedError::Internal(format!("predicate {p} not mapped for {}", tm.table))
        })?;
        let lift = match &pm.ref_template {
            Some(t) => Lift::RefIri(t.clone()),
            None => {
                let missing = || FedError::Internal(format!("column {} missing from schema", pm.column));
                Lift::Literal(schema.column(&pm.column).ok_or_else(missing)?.data_type)
            }
        };
        Ok(StarColumn { name: pm.column.clone(), lift })
    }

    /// The one writer for term identity: the value of this column whose
    /// lift *is* `term`, checked by lifting it back — or `None` when no
    /// stored value lifts to it (an IRI the template did not mint or would
    /// write differently, another datatype, a language tag, a lexical form
    /// other than the one the lift writes), so no row can match `term`. A key
    /// is stored as the text the template mints its IRI from.
    pub fn stored(&self, term: &Term) -> Option<Value> {
        match &self.lift {
            Lift::SubjectIri(t) | Lift::RefIri(t) => {
                let iri = term.as_iri().filter(|iri| t.mints(iri))?;
                Some(Value::Text(t.extract(iri)?))
            }
            Lift::Literal(dt) => {
                let value = term_to_value(term);
                let lifts_back = value_to_term(&value, *dt) == *term;
                (lifts_back && value.data_type() == Some(*dt)).then_some(value)
            }
        }
    }

    /// Whether [`StarColumn::stored`] finds a value for `term`, without building a key.
    pub fn stores(&self, term: &Term) -> bool {
        match (&self.lift, term) {
            (Lift::SubjectIri(t) | Lift::RefIri(t), Term::Iri(iri)) => t.mints(iri),
            _ => self.stored(term).is_some(),
        }
    }

    /// [`StarColumn::stored`]'s value as SQL: how a bind join writes a key.
    pub(crate) fn sql_value(&self, term: &Term) -> Option<String> {
        sql_literal(&self.stored(term)?)
    }

    /// The conjunct a ground term puts on this column: equal to the stored
    /// value whose lift is the term, or — when none lifts to it — a conjunct
    /// no row satisfies (`= NULL` never holds).
    fn ground(&self, alias: &str, term: &Term) -> Result<String, FedError> {
        let value = match self.stored(term) {
            None => "NULL".into(),
            // No literal selects NaN or ±INF, nor one zero alone: SQL's `=`
            // reads −0.0 and 0.0, two terms, as one value.
            Some(v) => sql_literal(&v)
                .filter(|_| !matches!(v, Value::Double(z) if z == 0.0))
                .ok_or_else(|| FedError::Unsupported(format!("object {term} has no SQL literal")))?,
        };
        Ok(format!("{alias}.{} = {value}", self.name))
    }
}

/// The column star variable `v` maps to — the key column for the subject,
/// the mapped column of the first pattern it is the object of — and what
/// that column stores. `None` when it maps to no column of `tm`'s table.
pub fn star_column(
    v: &Var,
    star: &StarSubquery,
    tm: &TableMapping,
    schema: &TableSchema,
) -> Option<StarColumn> {
    let pred = match &star.subject {
        StarSubject::Var(s) if s == v => None,
        _ => Some(star.triples.iter().find(|t| t.o.as_var() == Some(v))?.p.as_term()?.as_iri()?),
    };
    StarColumn::of(tm, schema, pred).ok()
}

/// A FILTER `push_filter` found pushable: the column it constrains, which
/// Heuristic 2's index test reads, and the SQL condition [`star_part`]
/// writes on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlFilter {
    /// The filter as the query states it.
    pub expr: Expr,
    /// The column the condition constrains.
    pub column: String,
    /// The condition on that column, e.g. `> 3.0` or `LIKE 'Homo%'`.
    pub condition: String,
}

/// Builds the SQL fragments for one star over its mapped table, with the
/// `pushed` filters Heuristic 2 decided to evaluate at the source.
pub fn star_part(
    star: &StarSubquery,
    tm: &TableMapping,
    schema: &TableSchema,
    pushed: &[SqlFilter],
    alias: &str,
) -> Result<StarPart, FedError> {
    let mut part = StarPart {
        table: tm.table.clone(),
        alias: alias.to_string(),
        select: Vec::new(),
        wheres: Vec::new(),
        outputs: Vec::new(),
        distinct: !schema.is_primary_key(&tm.subject_column),
    };

    // Subject: select the key column (for a variable subject) or constrain
    // it (for a ground one).
    let subject = StarColumn::of(tm, schema, None)?;
    match &star.subject {
        StarSubject::Var(v) => {
            part.select.push((subject.name.clone(), format!("{alias}_{}", subject.name)));
            part.outputs.push(OutputBinding { var: v.clone(), lift: subject.lift.clone() });
        }
        StarSubject::Term(t) => part.wheres.push(subject.ground(alias, t)?),
    }

    for triple in &star.triples {
        let pred = triple
            .p
            .as_term()
            .and_then(Term::as_iri)
            .ok_or_else(|| FedError::Unsupported("variable predicate over RDB".into()))?;
        if pred == fedlake_rdf::vocab::rdf::TYPE {
            // The type pattern selected the table; a variable class cannot
            // be answered relationally.
            if triple.o.is_var() {
                return Err(FedError::Unsupported("variable class over RDB".into()));
            }
            continue;
        }
        let column = StarColumn::of(tm, schema, Some(pred))?;
        match &triple.o {
            VarOrTerm::Var(v) => {
                // A variable is selected once; a repeat makes both columns
                // agree.
                match part.outputs.iter().position(|o| &o.var == v) {
                    Some(first) => {
                        let first_col = &part.select[first].0;
                        part.wheres.push(format!("{alias}.{} = {alias}.{first_col}", column.name));
                    }
                    None => {
                        part.select.push((column.name.clone(), format!("{alias}_{}", column.name)));
                        part.outputs.push(OutputBinding { var: v.clone(), lift: column.lift.clone() });
                    }
                }
                // Columns referenced by the query are implicitly non-NULL
                // in RDF (a NULL produces no triple).
                part.wheres.push(format!("{alias}.{} IS NOT NULL", column.name));
            }
            VarOrTerm::Term(t) => part.wheres.push(column.ground(alias, t)?),
        }
    }

    part.wheres.extend(pushed.iter().map(|f| format!("{alias}.{} {}", f.column, f.condition)));

    // A star with a ground subject and only ground objects still needs a
    // column to detect existence.
    if part.select.is_empty() {
        part.select.push((subject.name.clone(), format!("{alias}_{}", subject.name)));
        // No output binding: the column is a probe only.
    }
    Ok(part)
}

/// Renders a single-star `SELECT`.
pub fn sql_single(part: &StarPart) -> TranslatedQuery {
    let select: Vec<String> = part
        .select
        .iter()
        .map(|(c, n)| format!("{}.{c} AS {n}", part.alias))
        .collect();
    let mut sql = format!(
        "SELECT {}{} FROM {} {}",
        if part.distinct { "DISTINCT " } else { "" },
        select.join(", "),
        part.table,
        part.alias
    );
    if !part.wheres.is_empty() {
        sql.push_str(&format!(" WHERE {}", part.wheres.join(" AND ")));
    }
    TranslatedQuery { sql, outputs: part.outputs.clone() }
}

/// Renders the Heuristic-1 merged `SELECT` of two stars joined on
/// `a.left_col = b.right_col`.
pub(crate) fn sql_merged(
    a: &StarPart,
    b: &StarPart,
    left_col: &str,
    right_col: &str,
) -> TranslatedQuery {
    let mut select: Vec<String> = Vec::new();
    let mut outputs = Vec::new();
    let mut seen_vars: Vec<Var> = Vec::new();
    let push_part = |part: &StarPart, select: &mut Vec<String>, outputs: &mut Vec<OutputBinding>, seen: &mut Vec<Var>| {
        for ((c, n), o) in part.select.iter().zip(&part.outputs) {
            if seen.contains(&o.var) {
                continue;
            }
            seen.push(o.var.clone());
            select.push(format!("{}.{c} AS {n}", part.alias));
            outputs.push(o.clone());
        }
    };
    push_part(a, &mut select, &mut outputs, &mut seen_vars);
    push_part(b, &mut select, &mut outputs, &mut seen_vars);
    if select.is_empty() {
        select.push(format!("{}.{} AS probe", a.alias, left_col));
    }
    let mut sql = format!(
        "SELECT {}{} FROM {} {} JOIN {} {} ON {}.{} = {}.{}",
        if a.distinct || b.distinct { "DISTINCT " } else { "" },
        select.join(", "),
        a.table,
        a.alias,
        b.table,
        b.alias,
        a.alias,
        left_col,
        b.alias,
        right_col
    );
    let wheres: Vec<&str> = a.wheres.iter().chain(&b.wheres).map(String::as_str).collect();
    if !wheres.is_empty() {
        sql.push_str(&format!(" WHERE {}", wheres.join(" AND ")));
    }
    TranslatedQuery { sql, outputs }
}

/// Renders the merged `SELECT` of two stars that map to the **same
/// table** (a denormalized physical design, §5's "not normalized tables"
/// study): both stars read from one row, so no join is needed at all —
/// the fragments combine under a single alias.
///
/// Both parts must have been built with the same alias, and the two stars
/// must join on one column of the row: the planner merges this way only
/// then.
pub(crate) fn sql_merged_same_table(a: &StarPart, b: &StarPart) -> TranslatedQuery {
    assert_eq!(a.alias, b.alias, "same-table merge requires one alias");
    assert_eq!(a.table, b.table, "same-table merge requires one table");
    let mut combined = a.clone();
    combined.distinct = a.distinct || b.distinct;
    let mut used_names: Vec<String> = a.select.iter().map(|(_, n)| n.clone()).collect();
    for ((col, name), out) in b.select.iter().zip(&b.outputs) {
        if combined.outputs.iter().any(|o| o.var == out.var) {
            continue;
        }
        let mut name = name.clone();
        while used_names.contains(&name) {
            name.push('_');
        }
        used_names.push(name.clone());
        combined.select.push((col.clone(), name));
        combined.outputs.push(out.clone());
    }
    for w in &b.wheres {
        if !combined.wheres.contains(w) {
            combined.wheres.push(w.clone());
        }
    }
    sql_single(&combined)
}

/// What a FILTER asks of its one variable.
enum Test<'e> {
    /// `arg op constant`.
    Cmp(CmpOp, &'e Term),
    /// A LIKE pattern: the needle with a `%` before it, after it, or both.
    Like(&'static str, &'e str, &'static str),
}

/// Heuristic 2's one rule: the SQL condition that keeps exactly the rows
/// whose lifted term passes `expr` — written as the value the engine
/// compares with, under SPARQL's operator semantics — or `None`: the
/// filter stays at the engine. The classes that push are the `match` on
/// the column's lift below (DESIGN §1 states them, `sql_boundary.rs`
/// holds them); LIKE's `%` and `_` in a needle decline.
pub(crate) fn push_filter(
    expr: &Expr,
    star: &StarSubquery,
    tm: &TableMapping,
    schema: &TableSchema,
) -> Option<SqlFilter> {
    use CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
    use DataType::{Double, Int, Text};
    fn needle(e: &Expr) -> Option<&str> {
        let Expr::Const(t) = e else { return None };
        text(t)
    }
    let (arg, test) = match expr {
        Expr::Cmp(a, op, b) => match (&**a, &**b) {
            (arg, Expr::Const(c)) => (arg, Test::Cmp(*op, c)),
            (Expr::Const(c), arg) => (arg, Test::Cmp(flip(*op), c)),
            _ => return None,
        },
        Expr::Contains(arg, n) => (&**arg, Test::Like("%", needle(n)?, "%")),
        Expr::StrStarts(arg, n) => (&**arg, Test::Like("", needle(n)?, "%")),
        Expr::StrEnds(arg, n) => (&**arg, Test::Like("%", needle(n)?, "")),
        Expr::Regex(arg, pattern) => {
            let (starts, body, ends) = split_anchors(pattern);
            (&**arg, Test::Like(if starts { "" } else { "%" }, body, if ends { "" } else { "%" }))
        }
        _ => return None,
    };
    let (var, str_form) = match arg {
        Expr::Var(v) => (v, false),
        Expr::Str(inner) => match &**inner {
            Expr::Var(v) => (v, true),
            _ => return None,
        },
        _ => return None,
    };
    let column = star_column(var, star, tm, schema)?;
    let (op, value) = match (test, &column.lift) {
        (Test::Like(pre, needle, post), Lift::Literal(Text)) if !needle.contains(['%', '_']) => {
            ("LIKE".into(), Value::Text(format!("{pre}{needle}{post}")))
        }
        (Test::Like(..), _) => return None,
        (Test::Cmp(op, c), lift) => {
            let number = c.as_literal().filter(|l| l.is_numeric());
            let value = match (lift, str_form, op) {
                // The lexical form, which a TEXT column stores as is.
                (Lift::Literal(Text), true, _) | (Lift::Literal(Text), _, Lt | Le | Gt | Ge) => {
                    Value::text(text(c)?)
                }
                (_, true, _) => return None,
                // Two numbers: an integer exactly, any number as a double.
                (Lift::Literal(Int), ..) => {
                    Value::Int(number.filter(|l| l.is_integer()).and_then(Literal::as_integer)?)
                }
                // SPARQL's `!=` holds on a stored NaN, SQL's `<>` does not.
                (Lift::Literal(Double), _, Ne) => return None,
                (Lift::Literal(Double), ..) => Value::Double(number.and_then(Literal::as_double)?),
                // Term identity on a key, TEXT or BOOL column.
                (_, _, Eq | Ne) => column.stored(c)?,
                _ => return None,
            };
            (if op == Ne { "<>".into() } else { op.to_string() }, value)
        }
    };
    let condition = format!("{op} {}", sql_literal(&value)?);
    Some(SqlFilter { expr: expr.clone(), column: column.name, condition })
}

/// A term's string form as FILTER string functions read it (none for a blank node).
fn text(t: &Term) -> Option<&str> {
    t.as_literal().map(|l| l.lexical.as_str()).or(t.as_iri())
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// `v` as a SQL literal the source reads back as `v` — the one renderer of
/// a value into SQL (filter constants, ground terms, bind-join keys). A
/// finite double always carries a decimal point: `1e21` displays as an
/// integer past `i64`, and the SQL lexer has no exponent syntax. `None`
/// for NaN and ±INF, which have no SQL literal.
pub fn sql_literal(v: &Value) -> Option<String> {
    match v {
        Value::Double(d) if !d.is_finite() => None,
        Value::Double(d) => {
            let s = d.to_string();
            Some(if s.contains('.') { s } else { s + ".0" })
        }
        v => Some(v.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use fedlake_relational::{Column, Database};
    use fedlake_sparql::parser::parse_query;

    fn mapping() -> TableMapping {
        TableMapping::new(
            "gene",
            "http://v/Gene",
            IriTemplate::new("http://d/gene/", ""),
            "id",
        )
        .with_literal("label", "http://v/label")
        .with_literal("species", "http://v/species")
        .with_reference(
            "disease",
            "http://v/disease",
            IriTemplate::new("http://d/disease/", ""),
        )
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "gene",
            vec![
                Column::not_null("id", DataType::Text),
                Column::new("label", DataType::Text),
                Column::new("species", DataType::Text),
                Column::new("disease", DataType::Text),
            ],
        )
        .with_primary_key(&["id"])
    }

    fn star(q: &str) -> StarSubquery {
        decompose(&parse_query(q).unwrap()).unwrap().stars.remove(0)
    }

    /// The conjunct the star's first filter pushes as, under alias `s0`.
    fn pushed(s: &StarSubquery) -> Option<String> {
        let f = push_filter(&s.filters[0], s, &mapping(), &schema())?;
        Some(format!("s0.{} {}", f.column, f.condition))
    }

    #[test]
    fn translate_simple_star() {
        let s = star(
            "SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l }",
        );
        let part = star_part(&s, &mapping(), &schema(), &[], "s0").unwrap();
        let q = sql_single(&part);
        assert_eq!(
            q.sql,
            "SELECT s0.id AS s0_id, s0.label AS s0_label FROM gene s0 WHERE s0.label IS NOT NULL"
        );
        assert_eq!(q.outputs.len(), 2);
        assert!(matches!(q.outputs[0].lift, Lift::SubjectIri(_)));
        assert!(matches!(q.outputs[1].lift, Lift::Literal(DataType::Text)));
    }

    #[test]
    fn translated_sql_actually_runs() {
        let mut db = Database::new("d");
        db.execute(
            "CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, species TEXT, disease TEXT)",
        )
        .unwrap();
        db.execute("INSERT INTO gene VALUES ('g1', 'BRCA1', 'Homo sapiens', 'd1')")
            .unwrap();
        db.execute("INSERT INTO gene VALUES ('g2', NULL, 'Mus musculus', 'd2')")
            .unwrap();
        let s = star("SELECT * WHERE { ?g <http://v/label> ?l }");
        let q = sql_single(&star_part(&s, &mapping(), &schema(), &[], "s0").unwrap());
        let rs = db.query(&q.sql).unwrap();
        // g2's NULL label is filtered by IS NOT NULL.
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn ground_subject_constrains_key() {
        let s = star("SELECT * WHERE { <http://d/gene/g7> <http://v/label> ?l }");
        let q = sql_single(&star_part(&s, &mapping(), &schema(), &[], "s0").unwrap());
        assert!(q.sql.contains("s0.id = 'g7'"), "sql: {}", q.sql);
    }

    #[test]
    fn ground_reference_object_extracts_key() {
        let s = star("SELECT * WHERE { ?g <http://v/disease> <http://d/disease/d9> }");
        let q = sql_single(&star_part(&s, &mapping(), &schema(), &[], "s0").unwrap());
        assert!(q.sql.contains("s0.disease = 'd9'"), "sql: {}", q.sql);
    }

    #[test]
    fn ground_literal_object() {
        let s = star(r#"SELECT * WHERE { ?g <http://v/species> "Homo sapiens" }"#);
        let q = sql_single(&star_part(&s, &mapping(), &schema(), &[], "s0").unwrap());
        assert!(
            q.sql.contains("s0.species = 'Homo sapiens'"),
            "sql: {}",
            q.sql
        );
    }

    #[test]
    fn filter_column_detection() {
        let s = star(
            r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(CONTAINS(?sp, "sapiens")) }"#,
        );
        let f = push_filter(&s.filters[0], &s, &mapping(), &schema()).unwrap();
        assert_eq!(f.column, "species");
        let subject = star_column(&Var::new("g"), &s, &mapping(), &schema()).unwrap();
        assert_eq!(subject.lift, Lift::SubjectIri(mapping().subject_template));
    }

    #[test]
    fn filter_to_sql_variants() {
        let cases = [
            (
                r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(CONTAINS(?sp, "sapiens")) }"#,
                "s0.species LIKE '%sapiens%'",
            ),
            (
                r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(STRSTARTS(?sp, "Homo")) }"#,
                "s0.species LIKE 'Homo%'",
            ),
            (
                r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(?sp = "Homo sapiens") }"#,
                "s0.species = 'Homo sapiens'",
            ),
            (
                r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(?sp != "Homo sapiens") }"#,
                "s0.species <> 'Homo sapiens'",
            ),
            (
                r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(REGEX(?sp, "^Homo")) }"#,
                "s0.species LIKE 'Homo%'",
            ),
            (
                r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER("Homo sapiens" = ?sp) }"#,
                "s0.species = 'Homo sapiens'",
            ),
        ];
        for (q, expected) in cases {
            assert_eq!(pushed(&star(q)).as_deref(), Some(expected), "query: {q}");
        }
    }

    #[test]
    fn subject_filter_extracts_key() {
        let s = star(
            r#"SELECT * WHERE { ?g <http://v/label> ?l . FILTER(?g = <http://d/gene/g3>) }"#,
        );
        assert_eq!(pushed(&s).as_deref(), Some("s0.id = 'g3'"));
    }

    #[test]
    fn unpushable_filters() {
        // Cross-variable comparison.
        let s = star(
            "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/species> ?sp . FILTER(?l = ?sp) }",
        );
        assert!(pushed(&s).is_none());
        // Needle containing LIKE wildcards.
        let s = star(
            r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(CONTAINS(?sp, "100%")) }"#,
        );
        assert!(pushed(&s).is_none());
    }

    #[test]
    fn merged_sql() {
        let a = star(
            "SELECT * WHERE { ?gd <http://v/disease> ?d . ?gd <http://v/label> ?l }",
        );
        // Build the disease-side star from its own mapping.
        let disease_tm = TableMapping::new(
            "disease",
            "http://v/Disease",
            IriTemplate::new("http://d/disease/", ""),
            "id",
        )
        .with_literal("name", "http://v/name");
        let disease_schema = TableSchema::new(
            "disease",
            vec![
                Column::not_null("id", DataType::Text),
                Column::new("name", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]);
        let b = star("SELECT * WHERE { ?d <http://v/name> ?n }");
        let pa = star_part(&a, &mapping(), &schema(), &[], "s0").unwrap();
        let pb = star_part(&b, &disease_tm, &disease_schema, &[], "s1").unwrap();
        let q = sql_merged(&pa, &pb, "disease", "id");
        assert!(
            q.sql.contains("FROM gene s0 JOIN disease s1 ON s0.disease = s1.id"),
            "sql: {}",
            q.sql
        );
        // ?d appears in both stars but is selected once.
        let d_count = q.outputs.iter().filter(|o| o.var == Var::new("d")).count();
        assert_eq!(d_count, 1);
    }

    #[test]
    fn pushed_filter_appears_in_where() {
        let s = star(
            r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(CONTAINS(?sp, "sapiens")) }"#,
        );
        let pushed: Vec<SqlFilter> =
            s.filters.iter().filter_map(|f| push_filter(f, &s, &mapping(), &schema())).collect();
        let q = sql_single(&star_part(&s, &mapping(), &schema(), &pushed, "s0").unwrap());
        assert!(q.sql.contains("LIKE '%sapiens%'"), "sql: {}", q.sql);
    }

    #[test]
    fn sql_literals_keep_a_double_a_double() {
        let cases = [
            (Value::Double(1e21), Some("1000000000000000000000.0")),
            (Value::Double(-2.0), Some("-2.0")),
            (Value::Double(1.5), Some("1.5")),
            (Value::Int(7), Some("7")),
            (Value::text("it's"), Some("'it''s'")),
            (Value::Double(f64::NAN), None),
            (Value::Double(f64::NEG_INFINITY), None),
        ];
        for (v, want) in cases {
            assert_eq!(sql_literal(&v).as_deref(), want, "{v:?}");
        }
    }

    #[test]
    fn unmapped_predicate_is_error() {
        let s = star("SELECT * WHERE { ?g <http://v/unmapped> ?x }");
        assert!(star_part(&s, &mapping(), &schema(), &[], "s0").is_err());
    }
}
