//! Randomized tests for the triple store: index agreement and pattern
//! matching vs. naive filtering. Inputs are
//! generated from a seeded in-repo PRNG so every run explores the same
//! (large) case set deterministically.

use fedlake_prng::Prng;
use fedlake_rdf::{Graph, Literal, Term, TriplePattern};

/// A small universe of term components so collisions (and therefore
/// matches) are frequent.
fn arb_term(rng: &mut Prng) -> Term {
    match rng.gen_range(0..5) {
        0 => Term::iri(format!("http://example.org/r{}", rng.gen_range(0u8..8))),
        1 => Term::blank(format!("b{}", rng.gen_range(0u8..4))),
        2 => Term::literal(format!("lit{}", rng.gen_range(0u8..6))),
        3 => Term::integer(rng.gen_range(-3i64..3)),
        _ => {
            let len = rng.gen_range(0usize..4);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                .collect();
            Term::Literal(Literal::lang_tagged(s, format!("l{}", rng.gen_range(0u8..2))))
        }
    }
}

fn arb_triples(rng: &mut Prng) -> Vec<(Term, Term, Term)> {
    let n = rng.gen_range(0usize..60);
    (0..n)
        .map(|_| (arb_term(rng), arb_term(rng), arb_term(rng)))
        .collect()
}

/// Any pattern answered via an index must equal naive filtering over all
/// triples.
#[test]
fn pattern_matching_agrees_with_full_scan() {
    let mut rng = Prng::seed_from_u64(0x9a7e_0001);
    for _ in 0..128 {
        let triples = arb_triples(&mut rng);
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_terms(s.clone(), p.clone(), o.clone());
        }
        let all: Vec<_> = g.iter().collect();
        // Derive a pattern from a random existing triple (if any).
        let (idx, bs, bp, bo) = (
            rng.gen_range(0u32..u32::MAX) as usize,
            rng.gen_bool(0.5),
            rng.gen_bool(0.5),
            rng.gen_bool(0.5),
        );
        let pattern = if all.is_empty() {
            TriplePattern::any()
        } else {
            let t = all[idx % all.len()];
            TriplePattern {
                s: bs.then_some(t.s),
                p: bp.then_some(t.p),
                o: bo.then_some(t.o),
            }
        };
        let via_index: std::collections::BTreeSet<_> =
            g.match_pattern(&pattern).into_iter().collect();
        let naive: std::collections::BTreeSet<_> =
            all.iter().copied().filter(|t| pattern.matches(t)).collect();
        assert_eq!(via_index, naive);
    }
}

