//! RDF lifting: materializing the RDF view of a mapped relational database.
//!
//! The LSLOD benchmark's datasets exist in both RDF and relational form
//! (the paper transforms the RDF versions into 3NF tables). Lifting gives
//! us the inverse direction, which the workspace uses twice: the data
//! generator builds dataset pairs (same content, two data models), and the
//! test suite uses the lifted graph as a ground-truth oracle for federated
//! answers over the relational source.

use crate::{xsd_for, DatasetMapping, TableMapping};
use fedlake_rdf::{Graph, Literal, Term};
use fedlake_relational::{Database, Value};

/// Lifts every mapped table of `db` into one RDF graph.
pub fn lift_database(db: &Database, mapping: &DatasetMapping) -> Graph {
    let mut g = Graph::new();
    for tm in &mapping.tables {
        lift_table(db, tm, &mut g);
    }
    g
}

/// Lifts one mapped table into `graph`.
pub(crate) fn lift_table(db: &Database, tm: &TableMapping, graph: &mut Graph) {
    let Some(table) = db.table(&tm.table) else {
        return;
    };
    let Some(subject_pos) = table.schema.column_index(&tm.subject_column) else {
        return;
    };
    let type_pred = Term::iri(fedlake_rdf::vocab::rdf::TYPE);
    let class = Term::iri(&tm.class);
    for (_, row) in table.iter() {
        let key = &row[subject_pos];
        if key.is_null() {
            continue;
        }
        let subject = Term::iri(tm.subject_template.apply(&value_key(key)));
        graph.insert_terms(subject.clone(), type_pred.clone(), class.clone());
        for pm in &tm.predicates {
            let Some(pos) = table.schema.column_index(&pm.column) else {
                continue;
            };
            let v = &row[pos];
            if v.is_null() {
                continue;
            }
            let object = match &pm.ref_template {
                Some(tmpl) => Term::iri(tmpl.apply(&value_key(v))),
                None => value_to_term(v, table.schema.columns[pos].data_type),
            };
            graph.insert_terms(subject.clone(), Term::iri(&pm.predicate), object);
        }
    }
}

/// The canonical key string of a value (used in IRI templates).
pub fn value_key(v: &Value) -> String {
    match v {
        Value::Text(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => d.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Null => String::new(),
    }
}

/// [`value_key`] without the copy: text is borrowed where it lies, any
/// other value is written into `buf` (cleared first).
pub fn value_key_in<'a>(v: &'a Value, buf: &'a mut String) -> &'a str {
    use std::fmt::Write as _;
    buf.clear();
    // Writing to a `String` cannot fail.
    let _ = match v {
        Value::Text(s) => return s,
        Value::Int(i) => write!(buf, "{i}"),
        Value::Double(d) => write!(buf, "{d}"),
        Value::Bool(b) => write!(buf, "{b}"),
        Value::Null => Ok(()),
    };
    buf
}

/// Lifts a relational value to an RDF literal term.
pub fn value_to_term(v: &Value, dt: fedlake_relational::DataType) -> Term {
    let lexical = value_key(v);
    match xsd_for(dt) {
        Some(xsd) => Term::Literal(Literal::typed(lexical, xsd)),
        None => Term::Literal(Literal::plain(lexical)),
    }
}

/// Lowers an RDF term back to a relational value (the wrapper direction:
/// SPARQL filter constants must become SQL literals).
pub fn term_to_value(t: &Term) -> Value {
    match t {
        Term::Iri(i) => Value::Text(i.clone()),
        Term::Blank(b) => Value::Text(b.clone()),
        Term::Literal(l) => {
            if let Some(dt) = &l.datatype {
                if dt == fedlake_rdf::vocab::xsd::INTEGER
                    || dt.ends_with("#int")
                    || dt.ends_with("#long")
                {
                    if let Some(i) = l.as_integer() {
                        return Value::Int(i);
                    }
                }
                if fedlake_rdf::vocab::xsd::is_numeric(dt) {
                    if let Some(d) = l.as_double() {
                        return Value::Double(d);
                    }
                }
                if dt == fedlake_rdf::vocab::xsd::BOOLEAN {
                    return Value::Bool(l.lexical == "true" || l.lexical == "1");
                }
            }
            Value::Text(l.lexical.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IriTemplate;
    use fedlake_rdf::TriplePattern;

    fn db_and_mapping() -> (Database, DatasetMapping) {
        let mut db = Database::new("diseasome");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, len INT)")
            .unwrap();
        db.execute("INSERT INTO gene VALUES ('g1', 'BRCA1', 1863)").unwrap();
        db.execute("INSERT INTO gene VALUES ('g2', NULL, 500)").unwrap();
        db.execute(
            "CREATE TABLE gene_disease (gene TEXT, disease TEXT, PRIMARY KEY (gene, disease))",
        )
        .unwrap();
        db.execute("INSERT INTO gene_disease VALUES ('g1', 'd9')").unwrap();
        let mapping = DatasetMapping::new("diseasome")
            .with_table(
                TableMapping::new(
                    "gene",
                    "http://v/Gene",
                    IriTemplate::new("http://d/gene/", ""),
                    "id",
                )
                .with_literal("label", "http://v/label")
                .with_literal("len", "http://v/length"),
            )
            .with_table(
                TableMapping::new(
                    "gene_disease",
                    "http://v/GeneDisease",
                    IriTemplate::new("http://d/gd/", ""),
                    "gene",
                )
                .with_reference(
                    "disease",
                    "http://v/disease",
                    IriTemplate::new("http://d/disease/", ""),
                ),
            );
        (db, mapping)
    }

    #[test]
    fn lift_produces_types_and_literals() {
        let (db, m) = db_and_mapping();
        let g = lift_database(&db, &m);
        // g1: type + label + length; g2: type + length (NULL label skipped);
        // gd g1: type + disease ref.
        assert_eq!(g.len(), 7);
        let label = g.id(&Term::literal("BRCA1")).unwrap();
        assert_eq!(g.match_pattern(&TriplePattern::any().with_o(label)).len(), 1);
        // Integers lift to typed literals.
        assert!(g.id(&Term::integer(1863)).is_some());
    }

    #[test]
    fn lift_mints_reference_iris() {
        let (db, m) = db_and_mapping();
        let g = lift_database(&db, &m);
        assert!(g.id(&Term::iri("http://d/disease/d9")).is_some());
    }

    #[test]
    fn null_values_produce_no_triple() {
        let (db, m) = db_and_mapping();
        let g = lift_database(&db, &m);
        let label_pred = g.id(&Term::iri("http://v/label")).unwrap();
        assert_eq!(
            g.match_pattern(&TriplePattern::any().with_p(label_pred)).len(),
            1
        );
    }

    #[test]
    fn term_value_roundtrip() {
        assert_eq!(term_to_value(&Term::integer(5)), Value::Int(5));
        assert_eq!(term_to_value(&Term::double(1.5)), Value::Double(1.5));
        assert_eq!(term_to_value(&Term::literal("x")), Value::Text("x".into()));
        assert_eq!(
            term_to_value(&Term::Literal(Literal::boolean(true))),
            Value::Bool(true)
        );
        assert_eq!(
            term_to_value(&Term::iri("http://x")),
            Value::Text("http://x".into())
        );
    }

    #[test]
    fn value_term_roundtrip_via_datatype() {
        use fedlake_relational::DataType;
        let cases = [
            (Value::Int(42), DataType::Int),
            (Value::Double(2.5), DataType::Double),
            (Value::Text("abc".into()), DataType::Text),
            (Value::Bool(true), DataType::Bool),
        ];
        for (v, dt) in cases {
            let t = value_to_term(&v, dt);
            assert_eq!(term_to_value(&t), v, "roundtrip of {v:?}");
        }
    }
}
