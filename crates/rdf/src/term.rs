//! RDF terms: IRIs, blank nodes and literals.

use std::fmt;

/// An RDF literal: a lexical form with an optional language tag or datatype.
///
/// Plain literals carry neither a language tag nor a datatype (they are
/// treated as `xsd:string` for value comparisons). A literal never has both
/// a language tag and an explicit datatype.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// The lexical form of the literal.
    pub lexical: String,
    /// Language tag, as in `"chat"@en`.
    pub lang: Option<String>,
    /// Datatype IRI, as in `"42"^^xsd:integer`.
    pub datatype: Option<String>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn plain(lexical: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), lang: None, datatype: None }
    }

    /// A language-tagged literal.
    pub fn lang_tagged(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), lang: Some(lang.into()), datatype: None }
    }

    /// A datatyped literal.
    pub fn typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), lang: None, datatype: Some(datatype.into()) }
    }

    /// An `xsd:integer` literal.
    pub(crate) fn integer(v: i64) -> Self {
        Literal::typed(v.to_string(), crate::vocab::xsd::INTEGER)
    }

    /// An `xsd:double` literal.
    pub(crate) fn double(v: f64) -> Self {
        Literal::typed(v.to_string(), crate::vocab::xsd::DOUBLE)
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(v: bool) -> Self {
        Literal::typed(v.to_string(), crate::vocab::xsd::BOOLEAN)
    }

    /// Tries to interpret this literal as an integer value.
    pub fn as_integer(&self) -> Option<i64> {
        self.lexical.parse().ok()
    }

    /// Tries to interpret this literal as a double value.
    pub fn as_double(&self) -> Option<f64> {
        self.lexical.parse().ok()
    }

    /// True when the literal's datatype is `xsd:integer` or one of its
    /// derived types this workspace knows ([`crate::vocab::xsd::is_numeric`]).
    pub fn is_integer(&self) -> bool {
        self.datatype.as_deref().is_some_and(crate::vocab::xsd::is_integer)
    }

    /// True when the literal's datatype is a numeric XSD type. An untyped
    /// (plain or language-tagged) literal never is, whatever its lexical
    /// form: `"5"` is a string.
    pub fn is_numeric(&self) -> bool {
        match self.datatype.as_deref() {
            Some(dt) => crate::vocab::xsd::is_numeric(dt),
            None => false,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape(&self.lexical))?;
        if let Some(lang) = &self.lang {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// An RDF term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference, stored without the angle brackets.
    Iri(String),
    /// A blank node with its local label (without the `_:` prefix).
    Blank(String),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(v: impl Into<String>) -> Self {
        Term::Iri(v.into())
    }

    /// Creates a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(label.into())
    }

    /// Creates a plain string literal term.
    pub fn literal(v: impl Into<String>) -> Self {
        Term::Literal(Literal::plain(v))
    }

    /// Creates an `xsd:integer` literal term.
    pub fn integer(v: i64) -> Self {
        Term::Literal(Literal::integer(v))
    }

    /// Creates an `xsd:double` literal term.
    pub fn double(v: f64) -> Self {
        Term::Literal(Literal::double(v))
    }

    /// Returns the IRI string when this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the literal when this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// True for IRIs.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for literals.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True for blank nodes.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => write!(f, "<{v}>"),
            Term::Blank(l) => write!(f, "_:{l}"),
            Term::Literal(l) => write!(f, "{l}"),
        }
    }
}

/// Escapes a literal's lexical form for N-Triples output.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://x.org/a").to_string(), "<http://x.org/a>");
    }

    #[test]
    fn display_blank() {
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn display_plain_literal() {
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn display_lang_literal() {
        let t = Term::Literal(Literal::lang_tagged("chat", "en"));
        assert_eq!(t.to_string(), "\"chat\"@en");
    }

    #[test]
    fn display_typed_literal() {
        assert_eq!(
            Term::integer(42).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn escape_special_chars() {
        let t = Term::literal("a\"b\\c\nd");
        assert_eq!(t.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn literal_numeric_interpretation() {
        assert_eq!(Literal::integer(7).as_integer(), Some(7));
        assert_eq!(Literal::double(1.5).as_double(), Some(1.5));
        assert!(Literal::integer(7).is_numeric());
        assert!(!Literal::plain("x").is_numeric());
    }

    #[test]
    fn term_accessors() {
        assert_eq!(Term::iri("a").as_iri(), Some("a"));
        assert!(Term::literal("x").as_iri().is_none());
        assert!(Term::literal("x").is_literal());
        assert!(Term::blank("x").is_blank());
        assert!(Term::iri("x").is_iri());
    }
}
