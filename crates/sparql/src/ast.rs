//! Abstract syntax for the supported SPARQL subset.

use crate::binding::Var;
use crate::expr::Expr;
use fedlake_rdf::Term;
use std::fmt;

/// A subject/predicate/object position: either a variable or a ground term.
#[derive(Debug, Clone, PartialEq)]
pub enum VarOrTerm {
    /// A query variable.
    Var(Var),
    /// A ground RDF term.
    Term(Term),
}

impl VarOrTerm {
    /// Creates a variable position.
    pub fn var(name: impl AsRef<str>) -> Self {
        VarOrTerm::Var(Var::new(name))
    }

    /// Creates an IRI position.
    pub fn iri(v: impl Into<String>) -> Self {
        VarOrTerm::Term(Term::iri(v))
    }

    /// The variable, if this position is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            VarOrTerm::Var(v) => Some(v),
            VarOrTerm::Term(_) => None,
        }
    }

    /// The ground term, if this position is one.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            VarOrTerm::Var(_) => None,
            VarOrTerm::Term(t) => Some(t),
        }
    }

    /// True for variable positions.
    pub fn is_var(&self) -> bool {
        matches!(self, VarOrTerm::Var(_))
    }
}

impl fmt::Display for VarOrTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarOrTerm::Var(v) => write!(f, "{v}"),
            VarOrTerm::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern in a basic graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// Subject position.
    pub s: VarOrTerm,
    /// Predicate position.
    pub p: VarOrTerm,
    /// Object position.
    pub o: VarOrTerm,
}

impl TriplePattern {
    /// Creates a triple pattern.
    pub fn new(s: VarOrTerm, p: VarOrTerm, o: VarOrTerm) -> Self {
        TriplePattern { s, p, o }
    }

    /// All variables mentioned by the pattern, in s/p/o order.
    pub fn vars(&self) -> Vec<Var> {
        [&self.s, &self.p, &self.o]
            .into_iter()
            .filter_map(|x| x.as_var().cloned())
            .collect()
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

/// A group graph pattern element.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElement {
    /// A triple pattern.
    Triple(TriplePattern),
    /// `FILTER (expr)`.
    Filter(Expr),
    /// `OPTIONAL { … }`.
    Optional(GroupGraphPattern),
    /// `{ … } UNION { … }` (n-ary).
    Union(Vec<GroupGraphPattern>),
    /// A nested group `{ … }`.
    Group(GroupGraphPattern),
}

/// A `{ … }` group: a sequence of pattern elements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupGraphPattern {
    /// The elements in syntactic order.
    pub elements: Vec<PatternElement>,
}

impl GroupGraphPattern {
    /// All triple patterns appearing (recursively) in this group.
    pub(crate) fn triples(&self) -> Vec<&TriplePattern> {
        let mut out = Vec::new();
        self.collect_triples(&mut out);
        out
    }

    fn collect_triples<'a>(&'a self, out: &mut Vec<&'a TriplePattern>) {
        for el in &self.elements {
            match el {
                PatternElement::Triple(t) => out.push(t),
                PatternElement::Optional(g) | PatternElement::Group(g) => g.collect_triples(out),
                PatternElement::Union(gs) => {
                    for g in gs {
                        g.collect_triples(out);
                    }
                }
                PatternElement::Filter(_) => {}
            }
        }
    }

    /// All variables mentioned anywhere in the group.
    pub fn vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = Vec::new();
        for t in self.triples() {
            for v in t.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

/// Sort direction for `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending (the default).
    Asc,
    /// Descending.
    Desc,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The variable to sort by.
    pub var: Var,
    /// Sort direction.
    pub order: Order,
}

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Projected variables; empty means `SELECT *`.
    pub projection: Vec<Var>,
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// The `WHERE` clause.
    pub pattern: GroupGraphPattern,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// `OFFSET`.
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// The effective projection: declared variables, or every variable in
    /// the pattern for `SELECT *`.
    pub fn effective_projection(&self) -> Vec<Var> {
        if self.projection.is_empty() {
            self.pattern.vars()
        } else {
            self.projection.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_pattern_vars() {
        let t = TriplePattern::new(
            VarOrTerm::var("s"),
            VarOrTerm::iri("http://p"),
            VarOrTerm::var("o"),
        );
        let vars = t.vars();
        assert_eq!(vars, vec![Var::new("s"), Var::new("o")]);
    }

    #[test]
    fn group_vars_deduplicated() {
        let mut g = GroupGraphPattern::default();
        g.elements.push(PatternElement::Triple(TriplePattern::new(
            VarOrTerm::var("s"),
            VarOrTerm::iri("http://p"),
            VarOrTerm::var("o"),
        )));
        g.elements.push(PatternElement::Triple(TriplePattern::new(
            VarOrTerm::var("s"),
            VarOrTerm::iri("http://q"),
            VarOrTerm::var("o2"),
        )));
        assert_eq!(g.vars().len(), 3);
    }

    #[test]
    fn display_triple_pattern() {
        let t = TriplePattern::new(
            VarOrTerm::var("s"),
            VarOrTerm::iri("http://p"),
            VarOrTerm::Term(Term::literal("v")),
        );
        assert_eq!(t.to_string(), "?s <http://p> \"v\" .");
    }
}
