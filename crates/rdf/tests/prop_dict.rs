//! Seeded model test of the term dictionary: every way in — a whole
//! `Term`, an IRI by `&str`, a literal by its parts — and `id()`, in
//! random interleavings, against a `BTreeMap<Term, TermId>` model.

use fedlake_prng::Prng;
use fedlake_rdf::{Dictionary, Literal, Term, TermId};
use std::collections::BTreeMap;

/// Terms drawn so that repeats are frequent and the kinds overlap in
/// text: the IRI `t3`, the blank node `t3`, the plain literal `t3`, the
/// same lexical form under a language tag and under two datatypes.
fn arb_term(rng: &mut Prng, universe: u32) -> Term {
    let text = format!("t{}", rng.gen_range(0..universe));
    match rng.gen_range(0u8..6) {
        0 => Term::Iri(text),
        1 => Term::Blank(text),
        2 => Term::Literal(Literal::plain(text)),
        3 => Term::Literal(Literal::lang_tagged(
            text,
            ["en", "de"][rng.gen_range(0usize..2)],
        )),
        4 => Term::Literal(Literal::typed(
            text,
            "http://www.w3.org/2001/XMLSchema#integer",
        )),
        // The datatype IRI equals a lexical form in use: parts must not
        // run into each other.
        _ => Term::Literal(Literal::typed(text, "t3")),
    }
}

/// Interns `term` through one randomly chosen entry point that accepts it.
fn intern_somehow(d: &mut Dictionary, term: &Term, rng: &mut Prng) -> TermId {
    let by_parts = rng.gen_bool(0.5);
    match term {
        Term::Iri(v) if by_parts => d.intern_iri(v),
        Term::Literal(l) if by_parts => {
            d.intern_literal(&l.lexical, l.lang.as_deref(), l.datatype.as_deref())
        }
        _ => d.intern(term.clone()),
    }
}

fn check_against_model(d: &Dictionary, model: &BTreeMap<Term, TermId>) {
    assert_eq!(d.len(), model.len());
    for (term, &id) in model {
        assert_eq!(d.id(term), Some(id), "{term} lost its id");
        assert_eq!(
            d.term(id),
            Some(term),
            "{id:?} no longer resolves to {term}"
        );
    }
    let in_order: Vec<TermId> = d.iter().map(|(id, _)| id).collect();
    let dense: Vec<TermId> = (0..model.len() as u32).map(TermId).collect();
    assert_eq!(in_order, dense);
    assert_eq!(d.term(TermId::UNBOUND), None);
}

#[test]
fn every_entry_point_agrees_with_the_model() {
    let mut rng = Prng::seed_from_u64(0xd1c7_0001);
    for case in 0..24 {
        // The largest cases cross the id table's 16 → 32 → … → 2048
        // growths several times over.
        let universe = [8, 64, 400][case % 3];
        let mut d = Dictionary::new();
        let mut model: BTreeMap<Term, TermId> = BTreeMap::new();
        for _ in 0..rng.gen_range(1usize..2500) {
            let term = arb_term(&mut rng, universe);
            if rng.gen_bool(0.25) {
                // A lookup never interns.
                assert_eq!(d.id(&term), model.get(&term).copied());
                assert_eq!(d.len(), model.len());
                continue;
            }
            let id = intern_somehow(&mut d, &term, &mut rng);
            assert_ne!(id, TermId::UNBOUND);
            let next = TermId(model.len() as u32);
            let expected = *model.entry(term.clone()).or_insert(next);
            assert_eq!(
                id, expected,
                "{term}: ids are dense and in first-seen order"
            );
            // Idempotent, and every other way in lands on the same id.
            assert_eq!(intern_somehow(&mut d, &term, &mut rng), id);
            assert_eq!(d.intern(term.clone()), id);
            assert_eq!(d.id(&term), Some(id));
            assert_eq!(d.len(), model.len());
        }
        check_against_model(&d, &model);
    }
}

#[test]
fn equal_text_in_different_kinds_is_different_terms() {
    let mut d = Dictionary::new();
    let ids = [
        d.intern_iri("a"),
        d.intern(Term::blank("a")),
        d.intern_literal("a", None, None),
        d.intern_literal("a", Some("en"), None),
        d.intern_literal("a", Some("de"), None),
        d.intern_literal("a", None, Some("en")),
        d.intern_literal("a", None, Some("http://www.w3.org/2001/XMLSchema#integer")),
        d.intern_literal("", None, Some("a")),
        d.intern_literal("", Some("a"), None),
    ];
    let dense: Vec<TermId> = (0..ids.len() as u32).map(TermId).collect();
    assert_eq!(ids.to_vec(), dense, "nine distinct terms");
    assert_eq!(d.term(ids[0]), Some(&Term::iri("a")));
    assert_eq!(
        d.term(ids[3]),
        Some(&Term::Literal(Literal::lang_tagged("a", "en")))
    );
    assert_eq!(
        d.term(ids[5]),
        Some(&Term::Literal(Literal::typed("a", "en")))
    );
    assert_eq!(d.id(&Term::literal("a")), Some(ids[2]));
    assert_eq!(d.id(&Term::integer(7)), None);
    assert_eq!(
        d.intern(Term::integer(7)),
        d.intern_literal("7", None, Some(fedlake_rdf::vocab::xsd::INTEGER))
    );
}

#[test]
fn ids_survive_table_growth_and_a_clone_diverges_independently() {
    let mut d = Dictionary::new();
    let mut model: BTreeMap<Term, TermId> = BTreeMap::new();
    // 300 terms from an empty table: 16 → 32 → 64 → … → 1024, six growths.
    for i in 0..300u32 {
        let term = if i % 2 == 0 {
            Term::iri(format!("http://x/{i}"))
        } else {
            Term::integer(i as i64)
        };
        let id = d.intern(term.clone());
        assert_eq!(id, TermId(i));
        model.insert(term, id);
        if i.is_power_of_two() {
            check_against_model(&d, &model);
        }
    }
    check_against_model(&d, &model);

    let mut c = d.clone();
    check_against_model(&c, &model);
    let only_clone = c.intern_iri("http://x/clone");
    let only_original = d.intern_literal("original", None, None);
    assert_eq!(only_clone, TermId(300));
    assert_eq!(
        only_original,
        TermId(300),
        "each side hands out its own next id"
    );
    assert_eq!(d.id(&Term::iri("http://x/clone")), None);
    assert_eq!(c.id(&Term::literal("original")), None);
    assert_eq!((d.len(), c.len()), (301, 301));
    for (term, &id) in &model {
        assert_eq!(d.id(term), Some(id));
        assert_eq!(c.id(term), Some(id));
    }
}
