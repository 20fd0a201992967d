//! Standard serializations of federated query results: the W3C *SPARQL 1.1
//! Query Results JSON Format* and the *SPARQL 1.1 Query Results CSV
//! Format*, so FedLake's answers drop into existing SPARQL tooling.

use fedlake_rdf::Term;
use fedlake_sparql::binding::{Row, Var};
use std::fmt::Write as _;

/// Serializes rows as SPARQL 1.1 Query Results JSON.
pub(crate) fn to_sparql_json(vars: &[Var], rows: &[Row]) -> String {
    let mut out = String::from("{\"head\":{\"vars\":[");
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(v.name()));
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for v in vars {
            let Some(term) = row.get(v) else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":", json_escape(v.name()));
            write_term_json(&mut out, term);
        }
        out.push('}');
    }
    out.push_str("]}}");
    out
}

fn write_term_json(out: &mut String, term: &Term) {
    match term {
        Term::Iri(iri) => {
            let _ = write!(out, "{{\"type\":\"uri\",\"value\":\"{}\"}}", json_escape(iri));
        }
        Term::Blank(label) => {
            let _ = write!(out, "{{\"type\":\"bnode\",\"value\":\"{}\"}}", json_escape(label));
        }
        Term::Literal(l) => {
            let _ = write!(out, "{{\"type\":\"literal\",\"value\":\"{}\"", json_escape(&l.lexical));
            if let Some(lang) = &l.lang {
                let _ = write!(out, ",\"xml:lang\":\"{}\"", json_escape(lang));
            } else if let Some(dt) = &l.datatype {
                let _ = write!(out, ",\"datatype\":\"{}\"", json_escape(dt));
            }
            out.push('}');
        }
    }
}

/// Escapes a string for a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes rows as SPARQL 1.1 Query Results CSV (RFC 4180 quoting,
/// IRIs bare, literals by lexical form, unbound cells empty).
pub fn to_sparql_csv(vars: &[Var], rows: &[Row]) -> String {
    let mut out = String::new();
    let header: Vec<String> = vars.iter().map(|v| csv_cell(v.name())).collect();
    out.push_str(&header.join(","));
    out.push_str("\r\n");
    for row in rows {
        let cells: Vec<String> = vars
            .iter()
            .map(|v| match row.get(v) {
                None => String::new(),
                Some(Term::Iri(iri)) => csv_cell(iri),
                Some(Term::Blank(label)) => csv_cell(&format!("_:{label}")),
                Some(Term::Literal(l)) => csv_cell(&l.lexical),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push_str("\r\n");
    }
    out
}

fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl crate::engine::FedResult {
    /// This result as SPARQL 1.1 Query Results JSON.
    pub fn to_json(&self) -> String {
        to_sparql_json(&self.vars, &self.rows)
    }

    /// This result as SPARQL 1.1 Query Results CSV.
    pub fn to_csv(&self) -> String {
        to_sparql_csv(&self.vars, &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_rdf::Literal;

    fn vars() -> Vec<Var> {
        vec![Var::new("s"), Var::new("v")]
    }

    #[test]
    fn json_shape() {
        let rows = vec![Row::new()
            .with("s", Term::iri("http://x/a"))
            .with("v", Term::integer(5))];
        let json = to_sparql_json(&vars(), &rows);
        assert_eq!(
            json,
            "{\"head\":{\"vars\":[\"s\",\"v\"]},\"results\":{\"bindings\":[\
             {\"s\":{\"type\":\"uri\",\"value\":\"http://x/a\"},\
             \"v\":{\"type\":\"literal\",\"value\":\"5\",\
             \"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}"
        );
    }

    #[test]
    fn json_lang_and_bnode() {
        let rows = vec![Row::new()
            .with("s", Term::blank("b0"))
            .with("v", Term::Literal(Literal::lang_tagged("chat", "en")))];
        let json = to_sparql_json(&vars(), &rows);
        assert!(json.contains("\"type\":\"bnode\",\"value\":\"b0\""));
        assert!(json.contains("\"xml:lang\":\"en\""));
    }

    #[test]
    fn json_escaping() {
        let rows = vec![Row::new().with("s", Term::literal("a\"b\\c\nd\u{1}"))];
        let json = to_sparql_json(&[Var::new("s")], &rows);
        assert!(json.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn json_unbound_variables_are_omitted() {
        let rows = vec![Row::new().with("s", Term::iri("http://x/a"))];
        let json = to_sparql_json(&vars(), &rows);
        assert!(!json.contains("\"v\":"));
    }

    #[test]
    fn csv_shape_and_quoting() {
        let rows = vec![
            Row::new()
                .with("s", Term::iri("http://x/a"))
                .with("v", Term::literal("plain")),
            Row::new()
                .with("s", Term::iri("http://x/b"))
                .with("v", Term::literal("has,comma \"q\"")),
            Row::new().with("s", Term::blank("n1")),
        ];
        let csv = to_sparql_csv(&vars(), &rows);
        let lines: Vec<&str> = csv.split("\r\n").collect();
        assert_eq!(lines[0], "s,v");
        assert_eq!(lines[1], "http://x/a,plain");
        assert_eq!(lines[2], "http://x/b,\"has,comma \"\"q\"\"\"");
        assert_eq!(lines[3], "_:n1,");
    }

    #[test]
    fn empty_results() {
        assert_eq!(
            to_sparql_json(&[Var::new("x")], &[]),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}"
        );
        assert_eq!(to_sparql_csv(&[Var::new("x")], &[]), "x\r\n");
    }
}
