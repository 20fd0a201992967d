//! IRI templates: minting entity IRIs from key values and recovering key
//! values from IRIs.

use std::fmt;

/// An IRI template with exactly one `{}` placeholder, e.g.
/// `http://lake/diseasome/gene/{}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IriTemplate {
    prefix: String,
    suffix: String,
}

impl IriTemplate {
    /// Creates a template. Panics when the pattern does not contain exactly
    /// one `{}` placeholder.
    pub fn new(pattern: impl AsRef<str>) -> Self {
        let pattern = pattern.as_ref();
        let mut parts = pattern.splitn(2, "{}");
        let prefix = parts.next().unwrap_or_default().to_string();
        let suffix = parts
            .next()
            .unwrap_or_else(|| panic!("IRI template {pattern:?} must contain '{{}}'"))
            .to_string();
        assert!(
            !suffix.contains("{}"),
            "IRI template {pattern:?} must contain exactly one '{{}}'"
        );
        IriTemplate { prefix, suffix }
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

    /// The still-encoded key of an IRI minted by this template.
    fn encoded_key<'i>(&self, iri: &'i str) -> Option<&'i str> {
        let inner = iri.strip_prefix(self.prefix.as_str())?;
        let key = inner.strip_suffix(self.suffix.as_str())?;
        (!key.is_empty()).then_some(key)
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
        let t = IriTemplate::new("http://lake/gene/{}");
        let iri = t.apply("g42");
        assert_eq!(iri, "http://lake/gene/g42");
        assert_eq!(t.extract(&iri), Some("g42".into()));
        assert!(t.mints(&iri));
        assert!(!t.mints("http://lake/disease/d1"));
    }

    #[test]
    fn suffix_templates() {
        let t = IriTemplate::new("http://lake/{}.html");
        assert_eq!(t.apply("x"), "http://lake/x.html");
        assert_eq!(t.extract("http://lake/x.html"), Some("x".into()));
        assert_eq!(t.extract("http://lake/x.json"), None);
    }

    #[test]
    fn roundtrip_special_chars() {
        let t = IriTemplate::new("http://lake/drug/{}");
        for key in ["a b", "x/y", "100%", "ü", "a#b?c"] {
            let iri = t.apply(key);
            assert!(!iri.contains(' '), "space must be encoded: {iri}");
            assert_eq!(t.extract(&iri).as_deref(), Some(key), "roundtrip of {key:?}");
        }
    }

    #[test]
    fn empty_key_rejected_on_extract() {
        let t = IriTemplate::new("http://lake/gene/{}");
        assert_eq!(t.extract("http://lake/gene/"), None);
    }

    #[test]
    #[should_panic(expected = "must contain")]
    fn pattern_without_placeholder_panics() {
        IriTemplate::new("http://lake/gene/");
    }

    #[test]
    fn display_roundtrips_pattern() {
        let t = IriTemplate::new("http://lake/gene/{}");
        assert_eq!(t.to_string(), "http://lake/gene/{}");
    }
}
