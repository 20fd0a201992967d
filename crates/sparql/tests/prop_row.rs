//! `Row` is a sorted vector behind a map's API. A seeded model test holds
//! it to `BTreeMap<Var, Term>` — the representation it replaced — on every
//! public operation, and a round-trip test holds the single-pass decode to
//! `decode(encode(row)) == row` on schemas whose slot order is not
//! variable order.

use fedlake_prng::Prng;
use fedlake_rdf::{Dictionary, Term, TermId};
use fedlake_sparql::binding::{decode_row, encode_row, Row, RowSchema, Var};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

type Model = BTreeMap<Var, Term>;

const VARS: [&str; 7] = ["x", "a", "m", "b", "zz", "c", "y"];

fn arb_var(rng: &mut Prng) -> Var {
    Var::new(VARS[rng.gen_range(0..VARS.len())])
}

/// A small term space, so merges meet both agreement and conflict.
fn arb_term(rng: &mut Prng) -> Term {
    match rng.gen_range(0..3u32) {
        0 => Term::iri(format!("http://x/{}", rng.gen_range(0..3u32))),
        1 => Term::integer(rng.gen_range(0..3i64)),
        _ => Term::literal(format!("v{}", rng.gen_range(0..3u32))),
    }
}

fn arb_pairs(rng: &mut Prng) -> Vec<(Var, Term)> {
    let n = rng.gen_range(0..10usize);
    (0..n).map(|_| (arb_var(rng), arb_term(rng))).collect()
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn assert_same(row: &Row, model: &Model, what: &str) {
    assert_eq!(row.len(), model.len(), "{what}: len");
    assert_eq!(row.is_empty(), model.is_empty(), "{what}: is_empty");
    assert!(row.iter().eq(model.iter()), "{what}: iter order {row} vs {model:?}");
    assert!(row.vars().eq(model.keys()), "{what}: vars order");
    for name in VARS {
        let v = Var::new(name);
        assert_eq!(row.get(&v), model.get(&v), "{what}: get {v}");
        assert_eq!(row.is_bound(&v), model.contains_key(&v), "{what}: is_bound {v}");
    }
}

fn model_compatible(a: &Model, b: &Model) -> bool {
    a.iter().all(|(v, t)| b.get(v).is_none_or(|u| u == t))
}

#[test]
fn row_behaves_like_a_btreemap() {
    let mut rng = Prng::seed_from_u64(0x0b7e_e3a9);
    for case in 0..2_000 {
        // FromIterator, duplicates included: the last binding wins.
        let (pa, pb) = (arb_pairs(&mut rng), arb_pairs(&mut rng));
        let (a, b): (Row, Row) = (pa.iter().cloned().collect(), pb.iter().cloned().collect());
        let (ma, mb): (Model, Model) = (pa.iter().cloned().collect(), pb.iter().cloned().collect());
        assert_same(&a, &ma, "collected a");
        assert_same(&b, &mb, "collected b");

        // bind / replace one at a time, in arrival order.
        let (mut bound, mut model) = (Row::new(), Model::new());
        for (v, t) in &pa {
            bound.bind(v.clone(), t.clone());
            model.insert(v.clone(), t.clone());
            assert_same(&bound, &model, "after bind");
        }
        assert_eq!(bound, a, "case {case}: bind and collect agree");

        // Ord, Eq and Hash mean what the map's meant.
        assert_eq!(a.cmp(&b), ma.cmp(&mb), "case {case}: Ord of {a} vs {b}");
        assert_eq!(a == b, ma == mb, "case {case}: Eq");
        assert_eq!(hash_of(&a) == hash_of(&b), hash_of(&ma) == hash_of(&mb), "case {case}: Hash");
        assert_eq!(hash_of(&a), hash_of(&a.clone()));

        // compatible / merge, both ways round.
        let compatible = model_compatible(&ma, &mb);
        assert_eq!(a.compatible(&b), compatible, "case {case}: {a} ~ {b}");
        assert_eq!(b.compatible(&a), compatible);
        match a.merge(&b) {
            Some(m) => {
                assert!(compatible, "case {case}: merged conflicting rows");
                let mut want = ma.clone();
                want.extend(mb.iter().map(|(v, t)| (v.clone(), t.clone())));
                assert_same(&m, &want, "merge");
                assert_eq!(b.merge(&a), Some(m));
            }
            None => assert!(!compatible, "case {case}: refused to merge {a} and {b}"),
        }

        // project: requested order and repeats do not matter.
        let keep: Vec<Var> = (0..rng.gen_range(0..5usize)).map(|_| arb_var(&mut rng)).collect();
        let want: Model = ma
            .iter()
            .filter(|(v, _)| keep.contains(v))
            .map(|(v, t)| (v.clone(), t.clone()))
            .collect();
        assert_same(&a.project(&keep), &want, "project");
    }
}

#[test]
fn decode_inverts_encode_whatever_the_slot_order() {
    let mut rng = Prng::seed_from_u64(0x5107_0bde);
    for case in 0..500 {
        // A random slot order over a random subset of the variables.
        let mut names: Vec<&str> = VARS.iter().copied().filter(|_| rng.gen_bool(0.8)).collect();
        for i in (1..names.len()).rev() {
            names.swap(i, rng.gen_range(0..i + 1));
        }
        let schema = RowSchema::new(names.iter().map(Var::new));
        let mut dict = Dictionary::new();
        for _ in 0..8 {
            // Only variables the schema knows: encoding drops the others.
            let row: Row = arb_pairs(&mut rng)
                .into_iter()
                .filter(|(v, _)| schema.slot(v).is_some())
                .collect();
            let mut enc = vec![TermId::UNBOUND; schema.len()];
            encode_row(&row, &schema, &mut dict, |s, id| enc[s] = id);
            assert_eq!(
                decode_row(&schema, &dict, &enc),
                Some(row),
                "case {case}: slots {names:?}"
            );
        }
    }
}
