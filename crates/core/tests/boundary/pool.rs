//! The value classes the SPARQL↔SQL boundary is checked over: the FILTER
//! constants of `sql_boundary.rs`'s table, which `tests/generated_oracle.rs`
//! draws from too.

use fedlake_rdf::{Literal, Term};

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// A literal of the XSD datatype `local` (`"integer"`, `"double"`, …).
pub fn typed(lexical: &str, local: &str) -> Term {
    Term::Literal(Literal::typed(lexical, format!("{XSD}{local}")))
}

/// Literal constants: plain strings (LIKE's wildcards, a quote, a slash, a
/// dot, non-ASCII, a space, the empty string), a language-tagged and an
/// `xsd:string` literal, integers canonical and not (around 2^53, the
/// `i64` extremes, past `i64`), decimals, doubles canonical and not (NaN,
/// ±INF, −0, 1e21), and booleans canonical and not.
pub fn literals() -> Vec<Term> {
    let plain = [
        "", "5", "05", "Homo", "abc", "b", "%", "_", "'", "a/b", "a.c", "é", "a b", "mo",
    ];
    let mut out: Vec<Term> = plain.iter().map(|s| Term::literal(*s)).collect();
    out.push(Term::Literal(Literal::lang_tagged("Homo", "en")));
    out.push(typed("Homo", "string"));
    let integers = [
        "5",
        "05",
        "-5",
        "0",
        "123",
        "9007199254740992",
        "9007199254740993",
        "9223372036854775807",
        "-9223372036854775808",
        "100000000000000000000",
    ];
    out.extend(integers.iter().map(|lex| typed(lex, "integer")));
    out.extend(
        ["3.0", "1.5", "0.0", "9007199254740992.0"]
            .iter()
            .map(|lex| typed(lex, "decimal")),
    );
    let doubles = [
        "3", "3e0", "1.5", "0", "-0", "NaN", "INF", "-INF", "inf", "1e21",
    ];
    out.extend(doubles.iter().map(|lex| typed(lex, "double")));
    out.extend(
        ["true", "false", "1"]
            .iter()
            .map(|lex| typed(lex, "boolean")),
    );
    out
}

/// `t` restated in the classes beside its own, each a different term that a
/// careless boundary reads as `t`: a plain literal with a language tag and
/// as `xsd:string`; a number as a plain string, with a leading zero, and in
/// the other numeric datatype; a boolean as `1` / `0`; an IRI with its last
/// character percent-encoded and its escapes in lower case.
pub fn restated(t: &Term) -> Vec<Term> {
    match t {
        Term::Literal(l) => match l.datatype.as_deref().and_then(|dt| dt.strip_prefix(XSD)) {
            None if l.lang.is_none() && l.datatype.is_none() => vec![
                Term::Literal(Literal::lang_tagged(l.lexical.as_str(), "en")),
                typed(&l.lexical, "string"),
            ],
            Some("boolean") => vec![typed(
                if l.lexical == "true" { "1" } else { "0" },
                "boolean",
            )],
            Some(local @ ("integer" | "double" | "decimal")) => vec![
                Term::literal(l.lexical.as_str()),
                typed(&format!("0{}", l.lexical), local),
                typed(
                    &l.lexical,
                    if local == "integer" {
                        "double"
                    } else {
                        "integer"
                    },
                ),
            ],
            _ => Vec::new(),
        },
        Term::Iri(iri) => {
            let mut out = Vec::new();
            if let Some(c) = iri.chars().last().filter(char::is_ascii_alphanumeric) {
                out.push(Term::iri(format!(
                    "{}%{:02X}",
                    &iri[..iri.len() - 1],
                    c as u32
                )));
            }
            let mut hex = 0u8;
            let lower: String = iri
                .chars()
                .map(|c| {
                    let escaped = hex > 0;
                    hex = if c == '%' { 2 } else { hex.saturating_sub(1) };
                    if escaped {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            if lower != *iri {
                out.push(Term::iri(lower));
            }
            out
        }
        Term::Blank(_) => Vec::new(),
    }
}
