//! The SPARQL tokenizer.

use crate::error::SparqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A bare keyword or prefixed-name component, e.g. `SELECT`, `foaf:name`.
    Word(String),
    /// `?name` or `$name`.
    Variable(String),
    /// `<http://…>`.
    Iri(String),
    /// `_:label`.
    Blank(String),
    /// A string literal with optional `@lang` or `^^<datatype>`.
    Literal {
        lexical: String,
        lang: Option<String>,
        datatype: Option<String>,
    },
    /// An integer literal.
    Integer(i64),
    /// A decimal/double literal.
    Double(f64),
    /// Punctuation and operators.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl Token {
    /// True when this is `Word` matching `kw` case-insensitively.
    pub(crate) fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

/// The fewest query bytes per token the tokenizer reserves for.
const BYTES_PER_TOKEN: usize = 6;

/// Tokenizes a SPARQL query string.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, SparqlError> {
    let bytes = input.as_bytes();
    // The stock queries (QM, Q1–Q5) run 6.8 (Q1) to 11.5 (Q2) bytes per
    // token, so one token per six bytes holds each of them in one
    // allocation — at most 1.9× its token count, and fewer bytes than the
    // doublings of a vector grown from empty.
    let mut tokens = Vec::with_capacity(input.len() / BYTES_PER_TOKEN);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '?' | '$' => {
                let start = i + 1;
                i = start;
                while i < bytes.len() && is_name_char(bytes[i]) {
                    i += 1;
                }
                if i == start {
                    return Err(SparqlError::Lex { pos: start, message: "empty variable name".into() });
                }
                tokens.push(Token::Variable(input[start..i].to_string()));
            }
            '<' => {
                // Could be an IRI or the `<`/`<=` operator. IRIs never
                // contain spaces and close with `>`.
                let close = input[i + 1..].find(['>', ' ', '\t', '\n']);
                match close {
                    Some(off) if bytes[i + 1 + off] == b'>' => {
                        tokens.push(Token::Iri(input[i + 1..i + 1 + off].to_string()));
                        i += off + 2;
                    }
                    _ => {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                            tokens.push(Token::Punct("<="));
                            i += 2;
                        } else {
                            tokens.push(Token::Punct("<"));
                            i += 1;
                        }
                    }
                }
            }
            '"' | '\'' => {
                let quote = c;
                let mut lexical = String::new();
                i += 1;
                loop {
                    let Some(ch) = input.get(i..).and_then(|rest| rest.chars().next()) else {
                        return Err(SparqlError::Lex { pos: i, message: "unterminated string".into() });
                    };
                    i += ch.len_utf8();
                    if ch == quote {
                        break;
                    }
                    if ch == '\\' {
                        let esc = input[i..]
                            .chars()
                            .next()
                            .ok_or(SparqlError::Lex { pos: i, message: "truncated escape".into() })?;
                        i += esc.len_utf8();
                        match esc {
                            'n' => lexical.push('\n'),
                            't' => lexical.push('\t'),
                            'r' => lexical.push('\r'),
                            '"' => lexical.push('"'),
                            '\'' => lexical.push('\''),
                            '\\' => lexical.push('\\'),
                            other => {
                                return Err(SparqlError::Lex {
                                    pos: i,
                                    message: format!("bad escape \\{other}"),
                                })
                            }
                        }
                    } else {
                        lexical.push(ch);
                    }
                }
                // Optional language tag or datatype.
                let mut lang = None;
                let mut datatype = None;
                if i < bytes.len() && bytes[i] == b'@' {
                    let start = i + 1;
                    i = start;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'-')
                    {
                        i += 1;
                    }
                    lang = Some(input[start..i].to_string());
                } else if input[i..].starts_with("^^") {
                    i += 2;
                    if i < bytes.len() && bytes[i] == b'<' {
                        let close = input[i + 1..].find('>').ok_or(SparqlError::Lex {
                            pos: i,
                            message: "unterminated datatype IRI".into(),
                        })?;
                        datatype = Some(input[i + 1..i + 1 + close].to_string());
                        i += close + 2;
                    } else {
                        // Prefixed datatype name, e.g. xsd:integer.
                        let start = i;
                        while i < bytes.len() && (is_name_char(bytes[i]) || bytes[i] == b':') {
                            i += 1;
                        }
                        datatype = Some(input[start..i].to_string());
                    }
                }
                tokens.push(Token::Literal { lexical, lang, datatype });
            }
            '_' if input[i..].starts_with("_:") => {
                let start = i + 2;
                i = start;
                while i < bytes.len() && is_name_char(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token::Blank(input[start..i].to_string()));
            }
            '0'..='9' => {
                let (token, end) = number(input, i, i)?;
                tokens.push(token);
                i = end;
            }
            '{' | '}' | '(' | ')' | '.' | ';' | ',' | '*' | '/' | '+' => {
                tokens.push(Token::Punct(match c {
                    '{' => "{",
                    '}' => "}",
                    '(' => "(",
                    ')' => ")",
                    '.' => ".",
                    ';' => ";",
                    ',' => ",",
                    '*' => "*",
                    '/' => "/",
                    _ => "+",
                }));
                i += 1;
            }
            '-' => {
                // Negative number literal or minus operator.
                if i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit() {
                    let (token, end) = number(input, i, i + 1)?;
                    tokens.push(token);
                    i = end;
                } else {
                    tokens.push(Token::Punct("-"));
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token::Punct("="));
                i += 1;
            }
            '!' => {
                if input[i..].starts_with("!=") {
                    tokens.push(Token::Punct("!="));
                    i += 2;
                } else {
                    tokens.push(Token::Punct("!"));
                    i += 1;
                }
            }
            '>' => {
                if input[i..].starts_with(">=") {
                    tokens.push(Token::Punct(">="));
                    i += 2;
                } else {
                    tokens.push(Token::Punct(">"));
                    i += 1;
                }
            }
            '&' => {
                if input[i..].starts_with("&&") {
                    tokens.push(Token::Punct("&&"));
                    i += 2;
                } else {
                    return Err(SparqlError::Lex { pos: i, message: "lone '&'".into() });
                }
            }
            '|' => {
                if input[i..].starts_with("||") {
                    tokens.push(Token::Punct("||"));
                    i += 2;
                } else {
                    return Err(SparqlError::Lex { pos: i, message: "lone '|'".into() });
                }
            }
            _ if c.is_ascii_alphabetic() || c == ':' => {
                let start = i;
                while i < bytes.len() && (is_name_char(bytes[i]) || bytes[i] == b':') {
                    i += 1;
                }
                tokens.push(Token::Word(input[start..i].to_string()));
            }
            other => {
                return Err(SparqlError::Lex {
                    pos: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

/// Scans the number whose text starts at `start` (a `-` sign, or its first
/// digit) and whose digits start at `digits`: an integer, or a double when
/// a decimal point or an exponent follows. Returns the token and the index
/// just past it — the one scanner for both signs.
fn number(input: &str, start: usize, digits: usize) -> Result<(Token, usize), SparqlError> {
    let bytes = input.as_bytes();
    let mut i = digits;
    let mut is_double = false;
    while i < bytes.len()
        && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E')
    {
        if bytes[i] == b'.' {
            // A trailing '.' terminates a triple; only treat it
            // as a decimal point when followed by a digit.
            if i + 1 >= bytes.len() || !(bytes[i + 1] as char).is_ascii_digit() {
                break;
            }
            is_double = true;
        }
        if bytes[i] == b'e' || bytes[i] == b'E' {
            is_double = true;
            if i + 1 < bytes.len() && (bytes[i + 1] == b'+' || bytes[i + 1] == b'-') {
                i += 1;
            }
        }
        i += 1;
    }
    let text = &input[start..i];
    let token = if is_double {
        Token::Double(text.parse().map_err(|_| SparqlError::Lex {
            pos: start,
            message: format!("bad double {text:?}"),
        })?)
    } else {
        Token::Integer(text.parse().map_err(|_| SparqlError::Lex {
            pos: start,
            message: format!("bad integer {text:?}"),
        })?)
    };
    Ok((token, i))
}

fn is_name_char(b: u8) -> bool {
    let c = b as char;
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_select() {
        let toks = tokenize("SELECT ?x WHERE { ?x a <http://x/C> }").unwrap();
        assert!(toks[0].is_keyword("select"));
        assert_eq!(toks[1], Token::Variable("x".into()));
        assert!(toks[2].is_keyword("WHERE"));
        assert_eq!(toks[3], Token::Punct("{"));
        assert_eq!(toks[5], Token::Word("a".into()));
        assert_eq!(toks[6], Token::Iri("http://x/C".into()));
    }

    #[test]
    fn tokenize_literals() {
        let toks = tokenize(r#""plain" "tag"@en "7"^^<http://dt> 42 3.5 -2"#).unwrap();
        assert_eq!(
            toks[0],
            Token::Literal { lexical: "plain".into(), lang: None, datatype: None }
        );
        assert_eq!(
            toks[1],
            Token::Literal { lexical: "tag".into(), lang: Some("en".into()), datatype: None }
        );
        assert_eq!(
            toks[2],
            Token::Literal { lexical: "7".into(), lang: None, datatype: Some("http://dt".into()) }
        );
        assert_eq!(toks[3], Token::Integer(42));
        assert_eq!(toks[4], Token::Double(3.5));
        assert_eq!(toks[5], Token::Integer(-2));
    }

    #[test]
    fn tokenize_operators() {
        let toks = tokenize("FILTER(?x >= 3 && ?y != \"a\" || !BOUND(?z))").unwrap();
        assert!(toks.contains(&Token::Punct(">=")));
        assert!(toks.contains(&Token::Punct("&&")));
        assert!(toks.contains(&Token::Punct("!=")));
        assert!(toks.contains(&Token::Punct("||")));
        assert!(toks.contains(&Token::Punct("!")));
    }

    #[test]
    fn less_than_vs_iri() {
        let toks = tokenize("FILTER(?x < 3)").unwrap();
        assert!(toks.contains(&Token::Punct("<")));
        let toks = tokenize("FILTER(?x <= 3)").unwrap();
        assert!(toks.contains(&Token::Punct("<=")));
    }

    #[test]
    fn prefixed_names() {
        let toks = tokenize("foaf:name rdf:type :local").unwrap();
        assert_eq!(toks[0], Token::Word("foaf:name".into()));
        assert_eq!(toks[1], Token::Word("rdf:type".into()));
        assert_eq!(toks[2], Token::Word(":local".into()));
    }

    #[test]
    fn comments_ignored() {
        let toks = tokenize("SELECT # everything\n?x").unwrap();
        assert_eq!(toks.len(), 3); // SELECT, ?x, EOF
    }

    #[test]
    fn dot_terminates_integer() {
        // `?x <p> 5 .` — the dot is punctuation, not a decimal point.
        let toks = tokenize("5 .").unwrap();
        assert_eq!(toks[0], Token::Integer(5));
        assert_eq!(toks[1], Token::Punct("."));
    }

    /// SPARQL 1.1's `DOUBLE_NEGATIVE` carries an exponent like its positive
    /// form does; the sign must not cut the number short.
    #[test]
    fn negative_doubles_keep_their_exponent() {
        for (text, want) in [
            ("-1e5", -1e5),
            ("-1.0E21", -1.0e21),
            ("-2.5e-3", -2.5e-3),
            ("-7E+2", -7e2),
            ("1e5", 1e5),
            ("2.5e-3", 2.5e-3),
        ] {
            assert_eq!(tokenize(text).unwrap(), [Token::Double(want), Token::Eof], "{text}");
        }
        assert_eq!(tokenize("-12").unwrap(), [Token::Integer(-12), Token::Eof]);
        assert_eq!(
            tokenize("-3 .").unwrap(),
            [Token::Integer(-3), Token::Punct("."), Token::Eof],
            "a dot after a negative integer is punctuation"
        );
        assert_eq!(
            tokenize("?x - 1").unwrap(),
            [Token::Variable("x".into()), Token::Punct("-"), Token::Integer(1), Token::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn blank_node_token() {
        let toks = tokenize("_:b1 <http://p> _:b2 .").unwrap();
        assert_eq!(toks[0], Token::Blank("b1".into()));
        assert_eq!(toks[2], Token::Blank("b2".into()));
    }
}
