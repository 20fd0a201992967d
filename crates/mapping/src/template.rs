//! IRI templates: minting entity IRIs from key values and recovering key
//! values from IRIs.

use std::fmt;

/// An IRI template: a fixed prefix and suffix around one key, e.g.
/// `http://lake/diseasome/gene/{}` (displayed with `{}` for the key).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IriTemplate {
    prefix: String,
    suffix: String,
}

impl IriTemplate {
    /// The template minting `prefix`, the encoded key, then `suffix`.
    pub fn new(prefix: impl Into<String>, suffix: impl Into<String>) -> Self {
        IriTemplate { prefix: prefix.into(), suffix: suffix.into() }
    }

    /// Mints an IRI for `key`, percent-encoding characters unsafe in IRIs.
    pub fn apply(&self, key: &str) -> String {
        let mut out =
            String::with_capacity(self.prefix.len() + key.len() + self.suffix.len());
        self.apply_into(key, &mut out);
        out
    }

    /// Appends the IRI [`IriTemplate::apply`] mints for `key` to `out`, so
    /// a caller minting one IRI per lifted value can reuse one buffer.
    pub fn apply_into(&self, key: &str, out: &mut String) {
        // Built by hand (not `format!`): minting runs once per lifted
        // value on the wrapper's hot path, and the fmt machinery costs
        // more than the copies themselves.
        out.push_str(&self.prefix);
        encode_into(key, out);
        out.push_str(&self.suffix);
    }

    /// The still-encoded key of an IRI minted by this template. The empty
    /// key is a key like any other: a stored `''` mints the bare prefix and
    /// suffix, and reads back from them.
    fn encoded_key<'i>(&self, iri: &'i str) -> Option<&'i str> {
        iri.strip_prefix(self.prefix.as_str())?.strip_suffix(self.suffix.as_str())
    }

    /// Recovers the key from an IRI minted by this template.
    pub fn extract(&self, iri: &str) -> Option<String> {
        self.encoded_key(iri).map(decode)
    }

    /// True when `iri` is the very IRI this template mints for the key it
    /// reads back: [`IriTemplate::apply`] of [`IriTemplate::extract`] gives
    /// `iri` again. A key of unreserved characters only is checked in
    /// place, allocating nothing; one with escapes is re-minted.
    pub fn mints(&self, iri: &str) -> bool {
        match self.encoded_key(iri) {
            Some(key) if key.bytes().all(is_safe) => true,
            Some(_) => self.extract(iri).is_some_and(|key| self.apply(&key) == iri),
            None => false,
        }
    }
}

impl fmt::Display for IriTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{}}{}", self.prefix, self.suffix)
    }
}

fn is_safe(b: u8) -> bool {
    matches!(b, b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~')
}

fn encode_into(key: &str, out: &mut String) {
    if key.bytes().all(is_safe) {
        out.push_str(key);
        return;
    }
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for b in key.bytes() {
        if is_safe(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0x0f) as usize] as char);
        }
    }
}

fn decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                out.push((h * 16 + l) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    // Valid UTF-8, the common case, keeps its buffer.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_extract() {
        let t = IriTemplate::new("http://lake/gene/", "");
        let iri = t.apply("g42");
        assert_eq!(iri, "http://lake/gene/g42");
        assert_eq!(t.extract(&iri), Some("g42".into()));
        assert!(t.mints(&iri));
        assert!(!t.mints("http://lake/disease/d1"));
    }

    #[test]
    fn suffix_templates() {
        let t = IriTemplate::new("http://lake/", ".html");
        assert_eq!(t.apply("x"), "http://lake/x.html");
        assert_eq!(t.extract("http://lake/x.html"), Some("x".into()));
        assert_eq!(t.extract("http://lake/x.json"), None);
    }

    #[test]
    fn roundtrip_special_chars() {
        let t = IriTemplate::new("http://lake/drug/", "");
        for key in ["a b", "x/y", "100%", "ü", "a#b?c"] {
            let iri = t.apply(key);
            assert!(!iri.contains(' '), "space must be encoded: {iri}");
            assert_eq!(t.extract(&iri).as_deref(), Some(key), "roundtrip of {key:?}");
        }
    }

    #[test]
    fn empty_key_roundtrips() {
        let t = IriTemplate::new("http://lake/gene/", "");
        assert_eq!(t.apply(""), "http://lake/gene/");
        assert_eq!(t.extract("http://lake/gene/"), Some(String::new()));
        assert!(t.mints("http://lake/gene/"));
        let t = IriTemplate::new("http://lake/", ".html");
        assert_eq!(t.extract("http://lake/.html"), Some(String::new()));
        assert_eq!(t.extract("http://lake/.json"), None);
    }

    #[test]
    fn display_roundtrips_pattern() {
        let t = IriTemplate::new("http://lake/gene/", "");
        assert_eq!(t.to_string(), "http://lake/gene/{}");
    }
}
