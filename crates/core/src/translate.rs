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

use crate::decompose::{StarSubject, StarSubquery};
use crate::error::FedError;
use fedlake_mapping::{lift, IriTemplate, TableMapping};
use fedlake_rdf::Term;
use fedlake_relational::{DataType, TableSchema, Value};
use fedlake_sparql::binding::Var;
use fedlake_sparql::expr::{CmpOp, Expr};

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

/// Builds the SQL fragments for one star over its mapped table.
///
/// `pushed_filters` are the star filters Heuristic 2 decided to evaluate at
/// the source; they must all be [pushable](filter_column).
pub fn star_part(
    star: &StarSubquery,
    tm: &TableMapping,
    schema: &TableSchema,
    pushed_filters: &[Expr],
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
    match &star.subject {
        StarSubject::Var(v) => {
            part.select.push((
                tm.subject_column.clone(),
                format!("{alias}_{}", tm.subject_column),
            ));
            part.outputs.push(OutputBinding {
                var: v.clone(),
                lift: Lift::SubjectIri(tm.subject_template.clone()),
            });
        }
        StarSubject::Term(t) => {
            let iri = t
                .as_iri()
                .ok_or_else(|| FedError::Unsupported("literal subject".into()))?;
            let key = tm.subject_template.extract(iri).ok_or_else(|| {
                FedError::Internal(format!("subject {iri} does not match template"))
            })?;
            part.wheres
                .push(format!("{alias}.{} = {}", tm.subject_column, sql_str(&key)));
        }
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
        let pm = tm.column_for_predicate(pred).ok_or_else(|| {
            FedError::Internal(format!("predicate {pred} not mapped for {}", tm.table))
        })?;
        match (&triple.o, &pm.ref_template) {
            (fedlake_sparql::ast::VarOrTerm::Var(v), ref_tmpl) => {
                // Deduplicate: a variable may be selected once.
                if !part.outputs.iter().any(|o| &o.var == v) {
                    part.select
                        .push((pm.column.clone(), format!("{alias}_{}", pm.column)));
                    let lift = match ref_tmpl {
                        Some(t) => Lift::RefIri(t.clone()),
                        None => Lift::Literal(column_type(schema, &pm.column)?),
                    };
                    part.outputs.push(OutputBinding { var: v.clone(), lift });
                } else {
                    // Repeated variable: both columns must agree.
                    let first = part
                        .outputs
                        .iter()
                        .position(|o| &o.var == v)
                        .expect("checked above");
                    let (first_col, _) = &part.select[first];
                    part.wheres
                        .push(format!("{alias}.{} = {alias}.{first_col}", pm.column));
                }
                // Columns referenced by the query are implicitly non-NULL
                // in RDF (a NULL produces no triple).
                part.wheres.push(format!("{alias}.{} IS NOT NULL", pm.column));
            }
            (fedlake_sparql::ast::VarOrTerm::Term(t), Some(ref_tmpl)) => {
                let iri = t.as_iri().ok_or_else(|| {
                    FedError::Unsupported("literal object on reference column".into())
                })?;
                let key = ref_tmpl.extract(iri).ok_or_else(|| {
                    FedError::Internal(format!("object {iri} does not match ref template"))
                })?;
                part.wheres
                    .push(format!("{alias}.{} = {}", pm.column, sql_str(&key)));
            }
            (fedlake_sparql::ast::VarOrTerm::Term(t), None) => {
                let v = sql_literal(&lift::term_to_value(t)).ok_or_else(|| {
                    FedError::Unsupported(format!("object {t} has no SQL literal"))
                })?;
                part.wheres.push(format!("{alias}.{} = {v}", pm.column));
            }
        }
    }

    for f in pushed_filters {
        let sql = filter_to_sql(f, star, tm, schema, alias).ok_or_else(|| {
            FedError::Internal(format!("filter {f} was pushed but is not translatable"))
        })?;
        part.wheres.push(sql);
    }

    // A star with a ground subject and only ground objects still needs a
    // column to detect existence.
    if part.select.is_empty() {
        part.select.push((
            tm.subject_column.clone(),
            format!("{alias}_{}", tm.subject_column),
        ));
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
pub fn sql_merged(
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
    let wheres: Vec<&String> = a.wheres.iter().chain(&b.wheres).collect();
    if !wheres.is_empty() {
        let ws: Vec<&str> = wheres.iter().map(|s| s.as_str()).collect();
        sql.push_str(&format!(" WHERE {}", ws.join(" AND ")));
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
pub fn sql_merged_same_table(a: &StarPart, b: &StarPart) -> TranslatedQuery {
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

/// The table column a *simple instantiation* filter constrains, when the
/// filter can be pushed into this star's SQL. This is the question
/// Heuristic 2 asks: `Some(column)` means "pushable — now check the index
/// and the network"; `None` means the filter must stay at the engine.
pub fn filter_column(expr: &Expr, star: &StarSubquery, tm: &TableMapping) -> Option<String> {
    let var = single_var_of(expr)?;
    column_of_var(&var, star, tm)
}

/// Translates a pushable filter to a SQL conjunct. Returns `None` when the
/// expression shape or the needle is not representable (e.g. `LIKE`
/// wildcards inside the needle), or when SQL would answer it differently:
/// `!=` on a `DOUBLE` column, because SQL's `<>` is unknown on a stored NaN
/// where SPARQL's `!=` is true.
pub fn filter_to_sql(
    expr: &Expr,
    star: &StarSubquery,
    tm: &TableMapping,
    schema: &TableSchema,
    alias: &str,
) -> Option<String> {
    let var = single_var_of(expr)?;
    let col = column_of_var(&var, star, tm)?;
    match expr {
        Expr::Cmp(a, op, b) => {
            let (c, flipped) = match (&**a, &**b) {
                (_, Expr::Const(c)) => (c, false),
                (Expr::Const(c), _) => (c, true),
                _ => return None,
            };
            let op = if flipped { flip(*op) } else { *op };
            let sql_op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne if matches!(column_type(schema, &col), Ok(DataType::Double)) => {
                    return None
                }
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            // The subject variable compares against entity IRIs; extract
            // the key through the template.
            let value = if is_subject_var(&var, star) {
                let iri = c.as_iri()?;
                Value::Text(tm.subject_template.extract(iri)?)
            } else if let Some(ref_tmpl) = ref_template_of(&var, star, tm) {
                let iri = c.as_iri()?;
                Value::Text(ref_tmpl.extract(iri)?)
            } else {
                lift::term_to_value(c)
            };
            Some(format!("{alias}.{col} {sql_op} {}", sql_literal(&value)?))
        }
        Expr::Contains(_, b) => like(alias, &col, b, "%", "%"),
        Expr::StrStarts(_, b) => like(alias, &col, b, "", "%"),
        Expr::StrEnds(_, b) => like(alias, &col, b, "%", ""),
        Expr::Regex(_, pattern) => {
            let starts = pattern.starts_with('^');
            let ends = pattern.ends_with('$') && pattern.len() > 1;
            let body = &pattern[usize::from(starts)..pattern.len() - usize::from(ends)];
            if body.contains(['%', '_', '^', '$', '*', '+', '[', '(', '\\', '.']) {
                return None; // only anchor+literal regexes are pushable
            }
            let like = format!(
                "{}{}{}",
                if starts { "" } else { "%" },
                body,
                if ends { "" } else { "%" }
            );
            Some(format!("{alias}.{col} LIKE {}", sql_str(&like)))
        }
        _ => None,
    }
}

fn like(alias: &str, col: &str, needle: &Expr, pre: &str, post: &str) -> Option<String> {
    let Expr::Const(Term::Literal(l)) = needle else { return None };
    if l.lexical.contains(['%', '_']) {
        return None;
    }
    Some(format!(
        "{alias}.{col} LIKE {}",
        sql_str(&format!("{pre}{}{post}", l.lexical))
    ))
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

/// The single variable a simple-instantiation filter mentions.
fn single_var_of(expr: &Expr) -> Option<Var> {
    if !expr.is_simple_instantiation() {
        return None;
    }
    let vars = expr.vars();
    match vars.as_slice() {
        [v] => Some(v.clone()),
        _ => None,
    }
}

fn is_subject_var(v: &Var, star: &StarSubquery) -> bool {
    matches!(&star.subject, StarSubject::Var(sv) if sv == v)
}

fn ref_template_of<'a>(
    v: &Var,
    star: &StarSubquery,
    tm: &'a TableMapping,
) -> Option<&'a IriTemplate> {
    for t in &star.triples {
        if t.o.as_var() == Some(v) {
            let pred = t.p.as_term().and_then(Term::as_iri)?;
            return tm.column_for_predicate(pred)?.ref_template.as_ref();
        }
    }
    None
}

/// The reference IRI template of the column a variable maps to, when that
/// column is a foreign key (public clone-returning form of
/// `ref_template_of`, used by the planner's bind joins).
pub fn column_ref_template(
    v: &Var,
    star: &StarSubquery,
    tm: &TableMapping,
) -> Option<IriTemplate> {
    ref_template_of(v, star, tm).cloned()
}

/// The column a star variable maps to: the key column for the subject, the
/// mapped column for an object variable.
pub fn column_of_var(v: &Var, star: &StarSubquery, tm: &TableMapping) -> Option<String> {
    if is_subject_var(v, star) {
        return Some(tm.subject_column.clone());
    }
    for t in &star.triples {
        if t.o.as_var() == Some(v) {
            let pred = t.p.as_term().and_then(Term::as_iri)?;
            return tm.column_for_predicate(pred).map(|pm| pm.column.clone());
        }
    }
    None
}

fn column_type(schema: &TableSchema, col: &str) -> Result<DataType, FedError> {
    schema
        .column(col)
        .map(|c| c.data_type)
        .ok_or_else(|| FedError::Internal(format!("column {col} missing from schema")))
}

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// `v` as a SQL literal the source reads back as `v` — the one way a term
/// is written into SQL (filter constants, ground objects, bind-join keys).
/// A finite double always carries a decimal point: `1e21` displays as an
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
            IriTemplate::new("http://d/gene/{}"),
            "id",
        )
        .with_literal("label", "http://v/label")
        .with_literal("species", "http://v/species")
        .with_reference(
            "disease",
            "http://v/disease",
            IriTemplate::new("http://d/disease/{}"),
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
        let f = s.filters[0].clone();
        assert_eq!(filter_column(&f, &s, &mapping()), Some("species".into()));
    }

    #[test]
    fn filter_to_sql_variants() {
        let tm = mapping();
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
            let s = star(q);
            let f = s.filters[0].clone();
            assert_eq!(
                filter_to_sql(&f, &s, &tm, &schema(), "s0").as_deref(),
                Some(expected),
                "query: {q}"
            );
        }
    }

    #[test]
    fn subject_filter_extracts_key() {
        let s = star(
            r#"SELECT * WHERE { ?g <http://v/label> ?l . FILTER(?g = <http://d/gene/g3>) }"#,
        );
        let f = s.filters[0].clone();
        assert_eq!(
            filter_to_sql(&f, &s, &mapping(), &schema(), "s0").as_deref(),
            Some("s0.id = 'g3'")
        );
    }

    #[test]
    fn unpushable_filters() {
        // Cross-variable comparison.
        let s = star(
            "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/species> ?sp . FILTER(?l = ?sp) }",
        );
        let f = s.filters[0].clone();
        assert!(filter_to_sql(&f, &s, &mapping(), &schema(), "s0").is_none());
        // Needle containing LIKE wildcards.
        let s = star(
            r#"SELECT * WHERE { ?g <http://v/species> ?sp . FILTER(CONTAINS(?sp, "100%")) }"#,
        );
        let f = s.filters[0].clone();
        assert!(filter_to_sql(&f, &s, &mapping(), &schema(), "s0").is_none());
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
            IriTemplate::new("http://d/disease/{}"),
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
        let pushed = s.filters.clone();
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
