//! The FILTER slice of the generative oracle: seeded expression trees over
//! one or two variables run through `FilterOp`, over streams of rows whose
//! ids repeat, collide in the verdict table (ids k, k + cells, k + 2·cells
//! share a cell) and include unbound slots. The oracle is the path with no
//! verdict table: `BoundExpr::test` on each row decoded back to terms with
//! `decode_row`. What a row is charged may not depend on the table either:
//! every expression is counted and timed on every row.
//!
//! Constants and bindings are drawn from the value classes that have
//! produced bugs: integers at and past 2^53, an `Int` beside the equal
//! `Double`, NaN and ±0.0, language-tagged, malformed numeric and
//! `xsd:boolean` literals, IRIs and unbound slots.

use fedlake_core::operators::{ExecCtx, FilterOp, RowsOp, VERDICT_CELLS};
use fedlake_core::wrapper::drain;
use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::CostModel;
use fedlake_prng::Prng;
use fedlake_rdf::vocab::xsd;
use fedlake_rdf::{Literal, SharedInterner, Term, TermId};
use fedlake_sparql::binding::{decode_row, RowId, RowSchema, Var};
use fedlake_sparql::expr::{ArithOp, CmpOp, Expr};
use std::sync::Arc;

/// The deepest expression tree generated. A harness constant, like the
/// chaos suite's `CHAOS_ITERS`: raise it for a longer run.
const DEPTH: u32 = 4;
/// Filters generated, each run over its own stream of rows.
const CASES: usize = 3_000;
/// Rows per stream.
const ROWS: usize = 120;

/// `?w` is never read by a generated expression; `?zz` (below) is known to
/// no schema, so it is always unbound and reads no slot.
const SCHEMA: [&str; 3] = ["w", "x", "y"];

/// Rows bind a slot to a value from the pool, to any interned id, or not at
/// all, in these shares (per cent).
const UNBOUND_PCT: u32 = 15;
const ANY_ID_PCT: u32 = 10;

fn value_pool() -> Vec<Term> {
    let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, dt));
    let long = "http://www.w3.org/2001/XMLSchema#long";
    let p53 = 1i64 << 53;
    vec![
        // At and past 2^53, where an integer is no longer its `f64`.
        Term::integer(p53),
        Term::integer(p53 + 1),
        typed(&(-p53 - 1).to_string(), long),
        Term::double(p53 as f64),
        // An `Int` beside the equal `Double` (and `Decimal`).
        Term::integer(5),
        Term::double(5.0),
        typed("5.0", xsd::DOUBLE),
        typed("5", xsd::DECIMAL),
        Term::integer(-3),
        // NaN and the two zeros.
        typed("NaN", xsd::DOUBLE),
        typed("0.0", xsd::DOUBLE),
        typed("-0.0", xsd::DOUBLE),
        Term::integer(0),
        // Language-tagged, malformed numeric and boolean literals.
        Term::Literal(Literal::lang_tagged("chat", "en")),
        Term::Literal(Literal::lang_tagged("5", "fr")),
        typed("abc", xsd::INTEGER),
        typed("", xsd::DOUBLE),
        typed("true", xsd::BOOLEAN),
        typed("0", xsd::BOOLEAN),
        typed("maybe", xsd::BOOLEAN),
        // Plain strings and IRIs.
        Term::literal(""),
        Term::literal("Homo sapiens"),
        Term::literal("5"),
        Term::iri("http://x/a"),
        Term::iri("http://x/abc"),
    ]
}

/// Interns the pool so that every three consecutive values share one cell
/// of the verdict table, the first three the cell of `TermId::UNBOUND`;
/// filler IRIs take the ids in between. Returns each value's id.
fn intern_colliding(pool: &[Term], interner: &SharedInterner) -> Vec<TermId> {
    let unbound_cell = TermId::UNBOUND.index() % VERDICT_CELLS;
    let groups = pool.len().div_ceil(3);
    assert!(groups <= VERDICT_CELLS, "the pool needs one cell per three values");
    let id_of = |j: usize| (unbound_cell + j / 3) % VERDICT_CELLS + (j % 3) * VERDICT_CELLS;
    let mut at: Vec<Option<&Term>> = vec![None; 3 * VERDICT_CELLS];
    for (j, term) in pool.iter().enumerate() {
        at[id_of(j)] = Some(term);
    }
    for (i, term) in at.into_iter().enumerate() {
        let term = term.cloned().unwrap_or_else(|| Term::iri(format!("http://filler/{i}")));
        assert_eq!(interner.intern(term).index(), i, "the interner numbers from 0, in order");
    }
    (0..pool.len()).map(|j| TermId(id_of(j) as u32)).collect()
}

const PATTERNS: [&str; 6] = ["abc", "^5", "sapiens$", "^$", "a", ""];

/// A tree over `vars` (leaves draw a variable or a pool constant).
fn arb_expr(rng: &mut Prng, pool: &[Term], vars: &[&str], depth: u32) -> Expr {
    let var = |rng: &mut Prng| Var::new(vars[rng.gen_range(0..vars.len())]);
    let pick = if depth == 0 { rng.gen_range(0..2usize) } else { rng.gen_range(0..14usize) };
    let sub = |rng: &mut Prng| Box::new(arb_expr(rng, pool, vars, depth.saturating_sub(1)));
    match pick {
        0 => Expr::Var(var(rng)),
        1 => Expr::Const(pool[rng.gen_range(0..pool.len())].clone()),
        2 => {
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..6usize)];
            Expr::Cmp(sub(rng), op, sub(rng))
        }
        3 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(0..4usize)];
            Expr::Arith(sub(rng), op, sub(rng))
        }
        4 => Expr::And(sub(rng), sub(rng)),
        5 => Expr::Or(sub(rng), sub(rng)),
        6 => Expr::Not(sub(rng)),
        7 => Expr::Bound(var(rng)),
        8 => Expr::Regex(sub(rng), PATTERNS[rng.gen_range(0..PATTERNS.len())].to_string()),
        9 => Expr::Contains(sub(rng), sub(rng)),
        10 => Expr::StrStarts(sub(rng), sub(rng)),
        11 => Expr::StrEnds(sub(rng), sub(rng)),
        12 => Expr::Str(sub(rng)),
        _ => Expr::Lang(sub(rng)),
    }
}

/// One conjunct: over `?x` alone (sometimes beside the schema-less `?zz`),
/// over `?x` and `?y`, or over no slot at all — drawn again until the tree
/// reads the slots its shape names.
fn arb_conjunct(rng: &mut Prng, pool: &[Term]) -> Expr {
    let (vars, slots): (&[&str], usize) = match rng.gen_range(0..10u32) {
        0..=2 => (&["x"], 1),
        3 => (&["x", "zz"], 1),
        4..=7 => (&["x", "y"], 2),
        _ => (&["zz"], 0),
    };
    loop {
        let depth = rng.gen_range(1..=DEPTH);
        let e = arb_expr(rng, pool, vars, depth);
        if slots_read(&e) == slots {
            return e;
        }
    }
}

/// How many schema slots `e` reads.
fn slots_read(e: &Expr) -> usize {
    e.vars().iter().filter(|v| SCHEMA.contains(&v.name())).count()
}

#[test]
fn filter_verdicts_match_the_row_path_and_charge_every_row() {
    let pool = value_pool();
    let schema = Arc::new(RowSchema::new(SCHEMA.map(Var::new)));
    let interner = SharedInterner::new();
    let pool_ids = intern_colliding(&pool, &interner);
    let all_ids = 3 * VERDICT_CELLS;
    let x = schema.slot(&Var::new("x")).expect("?x is in the schema");
    let cost = CostModel::default();
    let mut rng = Prng::seed_from_u64(0xf117_e4ed);
    // Coverage: conjuncts by slots read; a one-slot conjunct's verdicts
    // (false, true); kept and dropped rows; rows whose `?x` id found its
    // cell last used by another id, or unbound.
    let (mut by_slots, mut one_slot_verdicts) = ([0u64; 3], [0u64; 2]);
    let (mut kept, mut dropped, mut collisions, mut unbound) = (0, 0, 0, 0);
    for case in 0..CASES {
        let exprs: Vec<Expr> = (0..rng.gen_range(1..=2usize)).map(|_| arb_conjunct(&mut rng, &pool)).collect();
        for e in &exprs {
            by_slots[slots_read(e)] += 1;
        }
        // A few hot values per stream, so ids repeat: two full colliding
        // triples and three more.
        let mut hot: Vec<TermId> = Vec::new();
        for _ in 0..2 {
            let g = rng.gen_range(0..pool_ids.len().div_ceil(3));
            hot.extend(pool_ids.iter().skip(3 * g).take(3));
        }
        hot.extend((0..3).map(|_| pool_ids[rng.gen_range(0..pool_ids.len())]));
        let rows: Vec<Vec<TermId>> = (0..ROWS)
            .map(|_| {
                let mut row = vec![TermId::UNBOUND; SCHEMA.len()];
                for cell in &mut row {
                    let roll = rng.gen_range(0..100u32);
                    if roll >= UNBOUND_PCT {
                        *cell = if roll < UNBOUND_PCT + ANY_ID_PCT {
                            TermId(rng.gen_range(0..all_ids) as u32)
                        } else {
                            hot[rng.gen_range(0..hot.len())]
                        };
                    }
                }
                row
            })
            .collect();
        let mut last_in_cell = vec![None; VERDICT_CELLS];
        for row in &rows {
            let id = row[x];
            let cell = &mut last_in_cell[id.index() % VERDICT_CELLS];
            collisions += u64::from(cell.is_some_and(|last| last != id));
            unbound += u64::from(id == TermId::UNBOUND);
            *cell = Some(id);
        }

        let want: Vec<usize> = {
            let dict = interner.lock();
            let oracle: Vec<_> = exprs.iter().map(|e| (e.bind(None), slots_read(e) == 1)).collect();
            (0..rows.len())
                .filter(|&i| {
                    let decoded =
                        decode_row(&schema, &dict, &rows[i]).expect("every id is interned");
                    oracle.iter().fold(true, |keep, (e, one_slot)| {
                        let pass = e.test(&decoded);
                        if *one_slot {
                            one_slot_verdicts[usize::from(pass)] += 1;
                        }
                        keep && pass
                    })
                })
                .collect()
        };
        let mut ctx = ExecCtx::new(shared_virtual(), cost, Arc::clone(&schema), interner.clone());
        let ids: Vec<RowId> = rows.iter().map(|row| ctx.rows.push_with(|s| row[s])).collect();
        let mut filter = FilterOp::new(Box::new(RowsOp::new(ids.clone())), &exprs, &schema);
        let got = drain(&mut filter, &mut ctx).expect("a filter over rows cannot fail");
        let shown: Vec<String> = exprs.iter().map(ToString::to_string).collect();
        // The kept rows are the rows it was handed, unchanged, in order.
        let want_ids: Vec<RowId> = want.iter().map(|&i| ids[i]).collect();
        assert_eq!(got, want_ids, "case {case}: {shown:?}");
        assert!(got.iter().zip(&want).all(|(&id, &i)| ctx.rows.row(id) == rows[i]), "case {case}");
        assert_eq!(ctx.rows.len(), ROWS, "case {case}: a filter writes no row");
        let n = exprs.len() as u64;
        assert_eq!(ctx.stats.engine_filter_evals, ROWS as u64 * n, "case {case}: {shown:?}");
        assert_eq!(ctx.clock.now(), cost.engine_filter_time(n) * ROWS as u32, "case {case}: {shown:?}");
        kept += want.len();
        dropped += ROWS - want.len();
    }
    // The generator must reach every kind of conjunct, both verdicts, and
    // the table's collisions and unbound key.
    assert!(by_slots.iter().all(|&n| n > 300), "conjuncts by slots read: {by_slots:?}");
    assert!(one_slot_verdicts.iter().all(|&n| n > 25_000), "one-slot verdicts: {one_slot_verdicts:?}");
    assert!(kept > 15_000 && dropped > 15_000, "kept {kept}, dropped {dropped}");
    assert!(collisions > 20_000 && unbound > 20_000, "collisions {collisions}, unbound {unbound}");
}
