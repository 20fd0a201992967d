//! SQL lexer.

use crate::error::SqlError;

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlToken {
    /// Identifier or keyword (case preserved; compare case-insensitively).
    Word(String),
    /// `'single-quoted string'` with `''` escaping.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Operator/punctuation.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl SqlToken {
    /// Case-insensitive keyword test.
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, SqlToken::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes a SQL statement.
pub(crate) fn tokenize(input: &str) -> Result<Vec<SqlToken>, SqlError> {
    let b = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(ch) = input.get(i..).and_then(|rest| rest.chars().next()) else {
                        return Err(SqlError::Parse("unterminated string".into()));
                    };
                    i += ch.len_utf8();
                    if ch == '\'' {
                        // '' is an escaped quote.
                        if i < b.len() && b[i] == b'\'' {
                            s.push('\'');
                            i += 1;
                        } else {
                            break;
                        }
                    } else {
                        s.push(ch);
                    }
                }
                out.push(SqlToken::Str(s));
            }
            '0'..='9' => {
                let start = i;
                let mut float = false;
                while i < b.len() && ((b[i] as char).is_ascii_digit() || b[i] == b'.') {
                    if b[i] == b'.' {
                        if float {
                            break;
                        }
                        float = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if float {
                    out.push(SqlToken::Float(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad float {text:?}"))
                    })?));
                } else {
                    out.push(SqlToken::Int(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad integer {text:?}"))
                    })?));
                }
            }
            '-' if i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit() => {
                let start = i;
                i += 1;
                let mut float = false;
                while i < b.len() && ((b[i] as char).is_ascii_digit() || b[i] == b'.') {
                    if b[i] == b'.' {
                        if float {
                            break;
                        }
                        float = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if float {
                    out.push(SqlToken::Float(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad float {text:?}"))
                    })?));
                } else {
                    out.push(SqlToken::Int(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad integer {text:?}"))
                    })?));
                }
            }
            '(' | ')' | ',' | '*' | '.' | ';' => {
                out.push(SqlToken::Punct(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    '.' => ".",
                    _ => ";",
                }));
                i += 1;
            }
            '=' => {
                out.push(SqlToken::Punct("="));
                i += 1;
            }
            '<' => {
                if input[i..].starts_with("<=") {
                    out.push(SqlToken::Punct("<="));
                    i += 2;
                } else if input[i..].starts_with("<>") {
                    out.push(SqlToken::Punct("<>"));
                    i += 2;
                } else {
                    out.push(SqlToken::Punct("<"));
                    i += 1;
                }
            }
            '>' => {
                if input[i..].starts_with(">=") {
                    out.push(SqlToken::Punct(">="));
                    i += 2;
                } else {
                    out.push(SqlToken::Punct(">"));
                    i += 1;
                }
            }
            '!' if input[i..].starts_with("!=") => {
                out.push(SqlToken::Punct("<>"));
                i += 2;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len()
                    && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_')
                {
                    i += 1;
                }
                out.push(SqlToken::Word(input[start..i].to_string()));
            }
            other => {
                return Err(SqlError::Parse(format!("unexpected character {other:?}")));
            }
        }
    }
    out.push(SqlToken::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_select() {
        let t = tokenize("SELECT a.x, b FROM t WHERE x >= 3 AND y = 'it''s'").unwrap();
        assert!(t[0].is_kw("select"));
        assert_eq!(t[1], SqlToken::Word("a".into()));
        assert_eq!(t[2], SqlToken::Punct("."));
        assert!(t.contains(&SqlToken::Punct(">=")));
        assert!(t.contains(&SqlToken::Str("it's".into())));
    }

    #[test]
    fn tokenize_numbers() {
        let t = tokenize("1 2.5 -3 -4.25").unwrap();
        assert_eq!(t[0], SqlToken::Int(1));
        assert_eq!(t[1], SqlToken::Float(2.5));
        assert_eq!(t[2], SqlToken::Int(-3));
        assert_eq!(t[3], SqlToken::Float(-4.25));
    }

    #[test]
    fn neq_normalized() {
        let t = tokenize("x != 1 AND y <> 2").unwrap();
        assert_eq!(t.iter().filter(|t| **t == SqlToken::Punct("<>")).count(), 2);
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT x -- the column\nFROM t").unwrap();
        assert_eq!(t.len(), 5); // SELECT x FROM t EOF
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'abc").is_err());
    }
}
