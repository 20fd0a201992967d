//! Randomized tests for the mapping layer: IRI template round-trips over
//! hostile keys, and the value↔term lifting bijection. Deterministically
//! seeded via the in-repo PRNG.

use fedlake_mapping::lift::{term_to_value, value_key, value_key_in, value_to_term};
use fedlake_mapping::IriTemplate;
use fedlake_prng::Prng;
use fedlake_relational::{DataType, Value};

/// IRI-hostile characters mixed with plain ones.
const POOL: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '"', '<', '>', '\n', '\t', '%', '/', '{', '}',
    '#', '?', 'é', '✓',
];

fn rand_key(rng: &mut Prng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()
}

fn rand_safe_key(rng: &mut Prng, min: usize, max: usize) -> String {
    const SAFE: &[char] = &['a', 'Z', '0', '9', ' ', '/', '%'];
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| SAFE[rng.gen_range(0..SAFE.len())]).collect()
}

/// apply ∘ extract is the identity for any non-empty key, including keys
/// full of IRI-hostile characters.
#[test]
fn template_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x3a99_0001);
    let t = IriTemplate::new("http://lake/entity/", "");
    for _ in 0..256 {
        let key = rand_key(&mut rng, 1, 40);
        let iri = t.apply(&key);
        // The minted IRI must be safe: no spaces, quotes or angle brackets.
        assert!(!iri.contains([' ', '"', '<', '>', '\n', '\t']), "unsafe IRI {iri}");
        let extracted = t.extract(&iri);
        assert_eq!(extracted.as_deref(), Some(key.as_str()));
        assert!(t.mints(&iri), "{iri}");
    }
}

/// `apply_into` appends exactly what `apply` returns, whatever the buffer
/// already holds, and keys that end in what looks like a cut-off escape
/// (`%`, `%4`) round-trip like any other.
#[test]
fn apply_into_equals_apply_and_truncated_escapes_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x3a99_0006);
    let templates =
        [IriTemplate::new("http://lake/entity/", ""), IriTemplate::new("http://lake/e/", ".html")];
    let mut buf = String::new();
    for round in 0..256 {
        let t = &templates[round % 2];
        let mut key = rand_key(&mut rng, 0, 24);
        key.push_str(["%", "%4", "%4G", "%41", "é%", "/ %", "x"][rng.gen_range(0usize..7)]);
        let iri = t.apply(&key);
        assert_eq!(t.extract(&iri).as_deref(), Some(key.as_str()), "round-trip of {key:?}");
        // Reused buffer, cleared by the caller …
        buf.clear();
        t.apply_into(&key, &mut buf);
        assert_eq!(buf, iri);
        // … or appended to.
        t.apply_into(&key, &mut buf);
        assert_eq!(buf, format!("{iri}{iri}"));
    }
    // IRIs this template did not mint: a cut-off escape is kept verbatim,
    // a complete one is decoded — and none of them is the IRI the template
    // mints for the key it reads back.
    let t = &templates[0];
    let foreign = [("abc%", "abc%"), ("abc%4", "abc%4"), ("%4G", "%4G"), ("%41bc", "Abc"), ("%", "%")];
    for (tail, key) in foreign {
        let iri = format!("http://lake/entity/{tail}");
        assert_eq!(t.extract(&iri).as_deref(), Some(key));
        assert!(!t.mints(&iri), "{iri}");
    }
    // Lower-case escapes read back the same key, but are not the minted IRI.
    assert!(t.mints("http://lake/entity/a%2Fb") && !t.mints("http://lake/entity/a%2fb"));
}

/// Templates with suffixes round-trip too.
#[test]
fn suffixed_template_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x3a99_0002);
    let t = IriTemplate::new("http://lake/e/", ".html");
    for _ in 0..256 {
        let key = rand_safe_key(&mut rng, 1, 20);
        let iri = t.apply(&key);
        assert!(iri.ends_with(".html"));
        let extracted = t.extract(&iri);
        assert_eq!(extracted.as_deref(), Some(key.as_str()));
    }
}

/// Two distinct keys never mint the same IRI (injectivity).
#[test]
fn template_is_injective() {
    let mut rng = Prng::seed_from_u64(0x3a99_0003);
    let t = IriTemplate::new("http://lake/entity/", "");
    for _ in 0..256 {
        let a = rand_key(&mut rng, 1, 20);
        let b = rand_key(&mut rng, 1, 20);
        if a == b {
            continue;
        }
        assert_ne!(t.apply(&a), t.apply(&b));
    }
}

/// Lifting a relational value to a term and lowering it back is the
/// identity for type-consistent values.
#[test]
fn lift_lower_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x3a99_0004);
    for _ in 0..256 {
        let (v, dt) = match rng.gen_range(0..4) {
            0 => (Value::Int(rng.next_u64() as i64), DataType::Int),
            1 => (Value::Double(rng.gen_range(-1e12..1e12)), DataType::Double),
            2 => (Value::Text(rand_key(&mut rng, 0, 30)), DataType::Text),
            _ => (Value::Bool(rng.gen_bool(0.5)), DataType::Bool),
        };
        let term = value_to_term(&v, dt);
        assert_eq!(term_to_value(&term), v);
    }
}

/// `value_key` never loses information for text keys (it is the raw
/// string) and is stable for numerics.
#[test]
fn value_key_stability() {
    let mut rng = Prng::seed_from_u64(0x3a99_0005);
    for _ in 0..256 {
        let s = rand_key(&mut rng, 0, 30);
        let i = rng.next_u64() as i64;
        assert_eq!(value_key(&Value::Text(s.clone())), s);
        assert_eq!(value_key(&Value::Int(i)), i.to_string());
        // The borrowing form agrees for every kind, whatever the buffer held.
        let mut buf = s.clone();
        let d = Value::Double(rng.gen_range(-1e12..1e12));
        for v in [Value::Text(s), Value::Int(i), d, Value::Bool(i % 2 == 0), Value::Null] {
            assert_eq!(value_key_in(&v, &mut buf), value_key(&v));
        }
    }
}
