//! SQL values and data types.

use std::cmp::Ordering;
use std::fmt;

/// The column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        })
    }
}

/// A SQL value. `Null` is a first-class value with SQL-style semantics in
/// comparisons (it never equals anything, including itself, in predicate
/// evaluation) but a stable position in the index/sort total order.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Double(f64),
    /// String value.
    Text(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// The value's data type, `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Creates a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable (three-valued logic's UNKNOWN).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Double(a), Value::Double(b)) => a.partial_cmp(b),
            (Value::Int(i), Value::Double(d)) => cmp_int_double(*i, *d),
            (Value::Double(d), Value::Int(i)) => cmp_int_double(*i, *d).map(Ordering::reverse),
            _ => None,
        }
    }

    /// True when this value matches a SQL `LIKE` pattern (`%` = any run,
    /// `_` = any single char).
    pub fn like(&self, pattern: &str) -> bool {
        match self {
            Value::Text(s) => like_match(s, pattern),
            _ => false,
        }
    }
}

/// `i` against `d` as the numbers they are, without rounding `i` to a
/// double first: `None` for a NaN only. Every double of magnitude below
/// 2^63 has an integer part that is an `i64`, exactly.
fn cmp_int_double(i: i64, d: f64) -> Option<Ordering> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if d.is_nan() {
        None
    } else if d >= TWO_63 {
        Some(Ordering::Less)
    } else if d < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let whole = d.trunc();
        0.0.partial_cmp(&(d - whole)).map(|fraction| i.cmp(&(whole as i64)).then(fraction))
    }
}

/// Index/sort total order: NULL < Bool < numeric < Text. Used by B-tree
/// index keys and ORDER BY; distinct from [`Value::sql_cmp`], which carries
/// SQL NULL semantics. Numbers order by value — integers exactly, doubles
/// by `f64::total_cmp`, an integer against a double as in `sql_cmp` with
/// the two cases that leaves open placed where `total_cmp` puts them for
/// the integer's own double: `-0.0` just below `Int(0)`, a NaN beyond
/// every number on the side of its sign.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Int(i), Value::Double(d)) => int_total_cmp(*i, *d),
            (Value::Double(d), Value::Int(i)) => int_total_cmp(*i, *d).reverse(),
            // Different kinds: each pair of one rank has its arm above.
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

fn int_total_cmp(i: i64, d: f64) -> Ordering {
    match cmp_int_double(i, d) {
        Some(Ordering::Equal) if d == 0.0 && d.is_sign_negative() => Ordering::Greater,
        Some(ord) => ord,
        None if d.is_sign_negative() => Ordering::Greater,
        None => Ordering::Less,
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // An int and the double that is exactly it compare equal and
            // must hash equally; an int no double equals hashes as itself.
            Value::Int(i) => {
                2u8.hash(state);
                let d = *i as f64;
                if cmp_int_double(*i, d) == Some(Ordering::Equal) {
                    d.to_bits().hash(state);
                } else {
                    i.hash(state);
                }
            }
            Value::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// SQL LIKE matching with `%` and `_` wildcards; `_` matches one Unicode
/// scalar. The classic two-pointer walk with backtracking on `%`, over
/// byte offsets into both strings, so a row's match allocates nothing.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    // The char at byte offset `i` of `t`, if any.
    let at = |t: &str, i: usize| t[i..].chars().next();
    let (mut si, mut pi) = (0usize, 0usize);
    // The offset of the last `%` seen, and where in `s` its match ends.
    let mut star: Option<(usize, usize)> = None;
    while let Some(c) = at(s, si) {
        match at(pattern, pi) {
            Some(p) if p == '_' || p == c => {
                si += c.len_utf8();
                pi += p.len_utf8();
            }
            Some('%') => {
                star = Some((pi, si));
                pi += 1;
            }
            _ => {
                // Backtrack: the last `%` takes one more char of `s`.
                let Some((spi, ssi)) = star else { return false };
                let Some(taken) = at(s, ssi) else { return false };
                pi = spi + 1;
                si = ssi + taken.len_utf8();
                star = Some((spi, si));
            }
        }
    }
    pattern[pi..].chars().all(|p| p == '%')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Double(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_type_mismatch_is_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::text("1")), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [Value::text("a"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Double(0.5)];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Double(0.5));
        assert_eq!(vals[3], Value::Int(1));
        assert_eq!(vals[4], Value::text("a"));
    }

    #[test]
    fn eq_and_hash_agree_across_numeric_types() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(3));
        assert!(set.contains(&Value::Double(3.0)));
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("Homo sapiens", "Homo%"));
        assert!(like_match("Homo sapiens", "%sapiens"));
        assert!(like_match("Homo sapiens", "%o sap%"));
        assert!(like_match("Homo sapiens", "H_mo sapiens"));
        assert!(!like_match("Homo sapiens", "Mus%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "ab"));
    }

    /// The char-vector form `like_match` replaced: the reference it is
    /// held to.
    fn like_match_reference(s: &str, pattern: &str) -> bool {
        let s: Vec<char> = s.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let (mut si, mut pi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None;
        while si < s.len() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
                si += 1;
                pi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star = Some((pi, si));
                pi += 1;
            } else if let Some((spi, ssi)) = star {
                pi = spi + 1;
                si = ssi + 1;
                star = Some((spi, ssi + 1));
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }

    /// Over seeded strings of ASCII and multi-byte chars and patterns of
    /// those chars, `%` and `_` (half of them the string itself with some
    /// chars turned into wildcards, so that matches are common), the
    /// allocation-free walk answers as the reference does.
    #[test]
    fn like_match_agrees_with_the_reference() {
        // ASCII, two- to four-byte chars and a literal `%` for the
        // strings; patterns add `_`.
        const CHARS: [char; 8] = ['a', 'b', 'é', 'ß', '中', '😀', '%', '_'];
        let mut rng = fedlake_prng::Prng::seed_from_u64(0x4c49_4b45);
        let word = |rng: &mut fedlake_prng::Prng, chars: usize| -> String {
            let len = rng.gen_range(0usize..9);
            (0..len).map(|_| CHARS[rng.gen_range(0..chars)]).collect()
        };
        let (mut cases, mut matched) = (0, 0);
        for _ in 0..20_000 {
            let s = word(&mut rng, CHARS.len() - 1);
            let pattern = if rng.gen_bool(0.5) {
                word(&mut rng, CHARS.len())
            } else {
                // The string with some chars turned into wildcards.
                s.chars()
                    .map(|c| match rng.gen_range(0usize..4) {
                        0 => '%',
                        1 => '_',
                        _ => c,
                    })
                    .collect()
            };
            let want = like_match_reference(&s, &pattern);
            assert_eq!(like_match(&s, &pattern), want, "{s:?} LIKE {pattern:?}");
            cases += 1;
            matched += usize::from(want);
        }
        assert!(matched > cases / 10 && matched < cases * 9 / 10, "{matched} of {cases}");
        // A literal `%` or `_` in the string matches itself as well.
        for (s, p) in [("100%", "100%"), ("a_b", "a_b"), ("%", "_"), ("é", "_"), ("中文", "_文")] {
            assert_eq!(like_match(s, p), like_match_reference(s, p), "{s:?} LIKE {p:?}");
            assert!(like_match(s, p), "{s:?} LIKE {p:?}");
        }
    }

    #[test]
    fn like_requires_text() {
        assert!(!Value::Int(5).like("%5%"));
        assert!(Value::text("x5y").like("%5%"));
    }

    #[test]
    fn display_quotes_text() {
        assert_eq!(Value::text("o'clock").to_string(), "'o''clock'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-2).to_string(), "-2");
    }
}
