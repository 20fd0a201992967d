//! Recursive-descent parser for the supported SPARQL subset.

use crate::ast::*;
use crate::binding::Var;
use crate::error::SparqlError;
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::token::{tokenize, Token};
use fedlake_rdf::{Literal, Term};
use std::collections::HashMap;

/// Parses a SPARQL `SELECT` query.
pub fn parse_query(input: &str) -> Result<SelectQuery, SparqlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0, prefixes: HashMap::new() };
    p.query()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The token at `pos`, moved out when `pos` advances past it: nothing
    /// reads behind `pos`. The last token (`Eof`), which `peek` reads again,
    /// is cloned.
    fn bump(&mut self) -> Token {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1], Token::Eof)
        } else {
            self.tokens[self.pos].clone()
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), SparqlError> {
        match self.bump() {
            Token::Punct(q) if q == p => Ok(()),
            other => Err(SparqlError::Parse(format!("expected {p:?}, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Token::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        let t = self.bump();
        if t.is_keyword(kw) {
            Ok(())
        } else {
            Err(SparqlError::Parse(format!("expected {kw}, found {t:?}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn query(&mut self) -> Result<SelectQuery, SparqlError> {
        // PREFIX declarations.
        while self.peek().is_keyword("PREFIX") {
            self.bump();
            let name = match self.bump() {
                Token::Word(w) if w.ends_with(':') => w[..w.len() - 1].to_string(),
                other => {
                    return Err(SparqlError::Parse(format!("expected prefix name, found {other:?}")))
                }
            };
            let iri = match self.bump() {
                Token::Iri(i) => i,
                other => {
                    return Err(SparqlError::Parse(format!("expected prefix IRI, found {other:?}")))
                }
            };
            self.prefixes.insert(name, iri);
        }

        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projection = Vec::new();
        if !self.eat_punct("*") {
            while let Token::Variable(v) = self.peek() {
                projection.push(Var::new(v));
                self.bump();
            }
            if projection.is_empty() {
                return Err(SparqlError::Parse("empty projection".into()));
            }
        }
        self.expect_keyword("WHERE")?;
        let pattern = self.group()?;

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek().clone() {
                    Token::Variable(v) => {
                        self.bump();
                        order_by.push(OrderKey { var: Var::new(v), order: Order::Asc });
                    }
                    Token::Word(w)
                        if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                    {
                        let dir = if w.eq_ignore_ascii_case("ASC") { Order::Asc } else { Order::Desc };
                        self.bump();
                        self.expect_punct("(")?;
                        let v = match self.bump() {
                            Token::Variable(v) => v,
                            other => {
                                return Err(SparqlError::Parse(format!(
                                    "expected variable in ORDER BY, found {other:?}"
                                )))
                            }
                        };
                        self.expect_punct(")")?;
                        order_by.push(OrderKey { var: Var::new(v), order: dir });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(SparqlError::Parse("empty ORDER BY".into()));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("LIMIT") {
                match self.bump() {
                    Token::Integer(n) if n >= 0 => limit = Some(n as usize),
                    other => {
                        return Err(SparqlError::Parse(format!("bad LIMIT: {other:?}")))
                    }
                }
            } else if self.eat_keyword("OFFSET") {
                match self.bump() {
                    Token::Integer(n) if n >= 0 => offset = Some(n as usize),
                    other => {
                        return Err(SparqlError::Parse(format!("bad OFFSET: {other:?}")))
                    }
                }
            } else {
                break;
            }
        }

        match self.peek() {
            Token::Eof => {}
            other => {
                return Err(SparqlError::Parse(format!("trailing tokens: {other:?}")))
            }
        }

        Ok(SelectQuery { projection, distinct, pattern, order_by, limit, offset })
    }

    fn group(&mut self) -> Result<GroupGraphPattern, SparqlError> {
        self.expect_punct("{")?;
        let mut elements = Vec::new();
        loop {
            if self.eat_punct("}") {
                break;
            }
            match self.peek().clone() {
                Token::Eof => return Err(SparqlError::Parse("unterminated group".into())),
                Token::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    self.expect_punct("(")?;
                    let e = self.expr()?;
                    self.expect_punct(")")?;
                    elements.push(PatternElement::Filter(e));
                    self.eat_punct(".");
                }
                Token::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.bump();
                    let g = self.group()?;
                    elements.push(PatternElement::Optional(g));
                    self.eat_punct(".");
                }
                Token::Punct("{") => {
                    // Nested group, possibly a UNION chain.
                    let first = self.group()?;
                    if self.peek().is_keyword("UNION") {
                        let mut branches = vec![first];
                        while self.eat_keyword("UNION") {
                            branches.push(self.group()?);
                        }
                        elements.push(PatternElement::Union(branches));
                    } else {
                        elements.push(PatternElement::Group(first));
                    }
                    self.eat_punct(".");
                }
                _ => {
                    // One subject with `;`/`,`-abbreviated predicates.
                    let s = self.var_or_term()?;
                    loop {
                        let p = self.predicate()?;
                        loop {
                            let o = self.var_or_term()?;
                            elements.push(PatternElement::Triple(TriplePattern::new(
                                s.clone(),
                                p.clone(),
                                o,
                            )));
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        if !self.eat_punct(";") {
                            break;
                        }
                        // Allow a dangling `;` before `}` or `.`.
                        if matches!(self.peek(), Token::Punct("}") | Token::Punct(".")) {
                            break;
                        }
                    }
                    self.eat_punct(".");
                }
            }
        }
        Ok(GroupGraphPattern { elements })
    }

    fn predicate(&mut self) -> Result<VarOrTerm, SparqlError> {
        if matches!(self.peek(), Token::Word(w) if w == "a") {
            self.bump();
            return Ok(VarOrTerm::iri(fedlake_rdf::vocab::rdf::TYPE));
        }
        self.var_or_term()
    }

    fn var_or_term(&mut self) -> Result<VarOrTerm, SparqlError> {
        match self.bump() {
            Token::Variable(v) => Ok(VarOrTerm::Var(Var::new(v))),
            Token::Iri(i) => Ok(VarOrTerm::Term(Term::iri(i))),
            Token::Blank(b) => Ok(VarOrTerm::Term(Term::blank(b))),
            Token::Literal { lexical, lang, datatype } => {
                Ok(VarOrTerm::Term(self.make_literal(lexical, lang, datatype)?))
            }
            Token::Integer(n) => Ok(VarOrTerm::Term(Term::integer(n))),
            Token::Double(d) => Ok(VarOrTerm::Term(Term::double(d))),
            Token::Word(w) if w.contains(':') => Ok(VarOrTerm::Term(Term::iri(
                self.resolve_prefixed(&w)?,
            ))),
            Token::Word(w) if w.eq_ignore_ascii_case("true") => {
                Ok(VarOrTerm::Term(Term::Literal(Literal::boolean(true))))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("false") => {
                Ok(VarOrTerm::Term(Term::Literal(Literal::boolean(false))))
            }
            other => Err(SparqlError::Parse(format!("expected term, found {other:?}"))),
        }
    }

    fn make_literal(
        &mut self,
        lexical: String,
        lang: Option<String>,
        datatype: Option<String>,
    ) -> Result<Term, SparqlError> {
        let datatype = match datatype {
            Some(dt) if dt.contains("://") => Some(dt),
            Some(dt) => Some(self.resolve_prefixed(&dt)?),
            None => None,
        };
        Ok(Term::Literal(Literal { lexical, lang, datatype }))
    }

    fn resolve_prefixed(&self, word: &str) -> Result<String, SparqlError> {
        let (prefix, local) = word
            .split_once(':')
            .ok_or_else(|| SparqlError::Parse(format!("not a prefixed name: {word}")))?;
        let base = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| SparqlError::UnknownPrefix(prefix.to_string()))?;
        Ok(format!("{base}{local}"))
    }

    // Expression grammar: or ← and ← not ← cmp ← add ← mul ← unary.
    fn expr(&mut self) -> Result<Expr, SparqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.and_expr()?;
        while self.eat_punct("||") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.cmp_expr()?;
        while self.eat_punct("&&") {
            let right = self.cmp_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr, SparqlError> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Token::Punct("=") => CmpOp::Eq,
            Token::Punct("!=") => CmpOp::Ne,
            Token::Punct("<") => CmpOp::Lt,
            Token::Punct("<=") => CmpOp::Le,
            Token::Punct(">") => CmpOp::Gt,
            Token::Punct(">=") => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.add_expr()?;
        Ok(Expr::Cmp(Box::new(left), op, Box::new(right)))
    }

    fn add_expr(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Punct("+") => ArithOp::Add,
                Token::Punct("-") => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.mul_expr()?;
            left = Expr::Arith(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Punct("*") => ArithOp::Mul,
                Token::Punct("/") => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.unary_expr()?;
            left = Expr::Arith(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, SparqlError> {
        if self.eat_punct("!") {
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        match self.bump() {
            Token::Variable(v) => Ok(Expr::Var(Var::new(v))),
            Token::Integer(n) => Ok(Expr::Const(Term::integer(n))),
            Token::Double(d) => Ok(Expr::Const(Term::double(d))),
            Token::Iri(i) => Ok(Expr::Const(Term::iri(i))),
            Token::Literal { lexical, lang, datatype } => {
                Ok(Expr::Const(self.make_literal(lexical, lang, datatype)?))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("BOUND") => {
                self.expect_punct("(")?;
                let v = match self.bump() {
                    Token::Variable(v) => Var::new(v),
                    other => {
                        return Err(SparqlError::Parse(format!("BOUND expects variable, found {other:?}")))
                    }
                };
                self.expect_punct(")")?;
                Ok(Expr::Bound(v))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("REGEX") => {
                self.expect_punct("(")?;
                let target = self.expr()?;
                self.expect_punct(",")?;
                let pattern = match self.bump() {
                    Token::Literal { lexical, .. } => lexical,
                    other => {
                        return Err(SparqlError::Parse(format!("REGEX expects string pattern, found {other:?}")))
                    }
                };
                // Optional flags argument is accepted and ignored
                // (case-insensitivity is not modeled).
                if self.eat_punct(",") {
                    self.bump();
                }
                self.expect_punct(")")?;
                Ok(Expr::Regex(Box::new(target), pattern))
            }
            Token::Word(w)
                if w.eq_ignore_ascii_case("CONTAINS")
                    || w.eq_ignore_ascii_case("STRSTARTS")
                    || w.eq_ignore_ascii_case("STRENDS") =>
            {
                self.expect_punct("(")?;
                let a = self.expr()?;
                self.expect_punct(",")?;
                let b = self.expr()?;
                self.expect_punct(")")?;
                Ok(match w.to_ascii_uppercase().as_str() {
                    "CONTAINS" => Expr::Contains(Box::new(a), Box::new(b)),
                    "STRSTARTS" => Expr::StrStarts(Box::new(a), Box::new(b)),
                    _ => Expr::StrEnds(Box::new(a), Box::new(b)),
                })
            }
            Token::Word(w) if w.eq_ignore_ascii_case("STR") => {
                self.expect_punct("(")?;
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Str(Box::new(e)))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("LANG") => {
                self.expect_punct("(")?;
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Lang(Box::new(e)))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("true") => {
                Ok(Expr::Const(Term::Literal(Literal::boolean(true))))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("false") => {
                Ok(Expr::Const(Term::Literal(Literal::boolean(false))))
            }
            Token::Word(w) if w.contains(':') => {
                Ok(Expr::Const(Term::iri(self.resolve_prefixed(&w)?)))
            }
            other => Err(SparqlError::Parse(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PatternElement as PE;

    /// The filters at the top level of `q`'s group.
    fn filters(q: &SelectQuery) -> Vec<&Expr> {
        q.pattern
            .elements
            .iter()
            .filter_map(|el| match el {
                PE::Filter(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn parse_minimal() {
        let q = parse_query("SELECT ?x WHERE { ?x a <http://x/C> }").unwrap();
        assert_eq!(q.projection, vec![Var::new("x")]);
        assert!(!q.distinct);
        assert_eq!(q.pattern.elements.len(), 1);
    }

    #[test]
    fn parse_star() {
        let q = parse_query("SELECT * WHERE { ?x <http://p> ?y }").unwrap();
        assert!(q.projection.is_empty());
        assert_eq!(q.effective_projection().len(), 2);
    }

    #[test]
    fn parse_prefixes() {
        let q = parse_query(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?n WHERE { ?s foaf:name ?n }",
        )
        .unwrap();
        match &q.pattern.elements[0] {
            PE::Triple(t) => {
                assert_eq!(
                    t.p.as_term().unwrap().as_iri().unwrap(),
                    "http://xmlns.com/foaf/0.1/name"
                );
            }
            other => panic!("expected triple, got {other:?}"),
        }
    }

    #[test]
    fn unknown_prefix_is_error() {
        let err = parse_query("SELECT ?n WHERE { ?s foaf:name ?n }").unwrap_err();
        assert!(matches!(err, SparqlError::UnknownPrefix(p) if p == "foaf"));
    }

    #[test]
    fn parse_filter() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y > 3 && ?y < 10) }",
        )
        .unwrap();
        assert_eq!(filters(&q).len(), 1);
    }

    #[test]
    fn negative_doubles_with_an_exponent_parse_as_constants() {
        let q = parse_query("SELECT ?x WHERE { ?x <http://p> ?v . FILTER(?v > -1e5) }").unwrap();
        match &filters(&q)[0] {
            Expr::Cmp(_, _, rhs) => assert_eq!(**rhs, Expr::Const(Term::double(-1e5))),
            other => panic!("expected a comparison, got {other:?}"),
        }
        let q = parse_query("SELECT ?x WHERE { ?x <http://p> -1.0E21 }").unwrap();
        match &q.pattern.elements[0] {
            PE::Triple(t) => assert_eq!(t.o.as_term().unwrap(), &Term::double(-1.0e21)),
            other => panic!("expected triple, got {other:?}"),
        }
    }

    #[test]
    fn parse_optional() {
        let q = parse_query(
            "SELECT ?x ?n WHERE { ?x a <http://C> . OPTIONAL { ?x <http://name> ?n } }",
        )
        .unwrap();
        assert!(q
            .pattern
            .elements
            .iter()
            .any(|e| matches!(e, PE::Optional(_))));
    }

    #[test]
    fn parse_union() {
        let q = parse_query(
            "SELECT ?x WHERE { { ?x a <http://C> } UNION { ?x a <http://D> } }",
        )
        .unwrap();
        match &q.pattern.elements[0] {
            PE::Union(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn parse_modifiers() {
        let q = parse_query(
            "SELECT DISTINCT ?x WHERE { ?x <http://p> ?y } ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].order, Order::Desc);
        assert_eq!(q.order_by[1].order, Order::Asc);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn parse_predicate_object_lists() {
        let q = parse_query(
            "SELECT * WHERE { ?x <http://p> ?a , ?b ; <http://q> ?c . }",
        )
        .unwrap();
        assert_eq!(q.pattern.triples().len(), 3);
        // All share the same subject.
        for t in q.pattern.triples() {
            assert_eq!(t.s, VarOrTerm::var("x"));
        }
    }

    #[test]
    fn parse_string_functions() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://p> ?n . FILTER(CONTAINS(STR(?n), "sapiens")) }"#,
        )
        .unwrap();
        assert_eq!(filters(&q).len(), 1);
        match filters(&q)[0] {
            Expr::Contains(a, b) => {
                assert!(matches!(&**a, Expr::Str(inner) if matches!(**inner, Expr::Var(_))));
                assert!(matches!(**b, Expr::Const(_)));
            }
            other => panic!("expected CONTAINS, got {other:?}"),
        }
    }

    #[test]
    fn parse_regex_filter() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://p> ?n . FILTER(REGEX(?n, "^Homo")) }"#,
        )
        .unwrap();
        assert!(matches!(filters(&q)[0], Expr::Regex(_, _)));
    }

    #[test]
    fn parse_typed_literal_object() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> }"#,
        )
        .unwrap();
        match &q.pattern.elements[0] {
            PE::Triple(t) => assert_eq!(t.o.as_term().unwrap(), &Term::integer(5)),
            other => panic!("expected triple, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x <http://p> ?y } garbage").is_err());
    }

    #[test]
    fn missing_where_is_error() {
        assert!(parse_query("SELECT ?x { ?x <http://p> ?y }").is_err());
    }

    #[test]
    fn parse_nested_group() {
        let q = parse_query("SELECT ?x WHERE { { ?x a <http://C> } }").unwrap();
        assert!(matches!(q.pattern.elements[0], PE::Group(_)));
        assert_eq!(q.pattern.triples().len(), 1);
    }
}
