//! `RowArena` is the one row store of an execution. A seeded model test
//! holds it to `Vec<Vec<TermId>>` — one vector per row, merged the way the
//! boxed row it replaced merged — over interleaved pushes, copies, merges
//! (of two arena rows, and of an arena row with cells held elsewhere) and
//! in-place unbinds, for widths 0 to 12 and row counts that cross several
//! chunk boundaries. A failed merge must leave the arena as it was.

use fedlake_prng::Prng;
use fedlake_rdf::TermId;
use fedlake_sparql::binding::{RowArena, RowId};

/// Cases per width.
const CASES: usize = 6;

/// A small id space, so merges meet both agreement and conflict.
fn arb_cell(rng: &mut Prng) -> TermId {
    if rng.gen_bool(0.35) {
        TermId::UNBOUND
    } else {
        TermId(rng.gen_range(0..3u32))
    }
}

fn arb_row(rng: &mut Prng, width: usize) -> Vec<TermId> {
    (0..width).map(|_| arb_cell(rng)).collect()
}

/// The boxed row's merge: a copy of `a` with `b`'s bound slots laid over
/// it, `None` when a slot both bind differs.
fn model_merge(a: &[TermId], b: &[TermId]) -> Option<Vec<TermId>> {
    let mut out = a.to_vec();
    for (held, &id) in out.iter_mut().zip(b) {
        if id == TermId::UNBOUND {
            continue;
        }
        match *held {
            TermId::UNBOUND => *held = id,
            existing if existing == id => {}
            _ => return None,
        }
    }
    Some(out)
}

#[test]
fn the_arena_matches_a_vector_of_rows() {
    let mut rng = Prng::seed_from_u64(0xa7e4_a000);
    // Coverage: merges that held and that failed, in-place unbinds, rows
    // read back from a chunk other than the tail's.
    let (mut merged, mut conflicts, mut unbinds, mut far_reads) = (0u64, 0u64, 0u64, 0u64);
    for width in 0..=12 {
        for case in 0..CASES {
            let mut arena = RowArena::new(width);
            let per_chunk = arena.rows_per_chunk();
            assert!(per_chunk.is_power_of_two());
            let mut model: Vec<Vec<TermId>> = Vec::new();
            let mut ids: Vec<RowId> = Vec::new();
            // Until three chunks are full and a fourth is started.
            let rows = 3 * per_chunk + rng.gen_range(1..per_chunk + 1);
            let mut op = 0;
            while arena.len() < rows {
                op += 1;
                let pick = |rng: &mut Prng| rng.gen_range(0..ids.len());
                let roll = if ids.is_empty() {
                    0
                } else {
                    rng.gen_range(0..6u32)
                };
                let before = arena.len();
                match roll {
                    0 | 1 => {
                        let row = arb_row(&mut rng, width);
                        ids.push(arena.push_with(|s| row[s]));
                        model.push(row);
                    }
                    2 => {
                        let i = pick(&mut rng);
                        ids.push(arena.copy(ids[i]));
                        model.push(model[i].clone());
                        far_reads +=
                            u64::from(i / per_chunk != model.len().saturating_sub(1) / per_chunk);
                    }
                    3 | 4 => {
                        let a = pick(&mut rng);
                        let (got, want) = if roll == 3 {
                            let b = pick(&mut rng);
                            (
                                arena.merge(ids[a], ids[b]),
                                model_merge(&model[a], &model[b]),
                            )
                        } else {
                            let cells = arb_row(&mut rng, width);
                            (
                                arena.merge_cells(ids[a], |s| cells[s]),
                                model_merge(&model[a], &cells),
                            )
                        };
                        match (got, want) {
                            (Some(id), Some(row)) => {
                                merged += 1;
                                ids.push(id);
                                model.push(row);
                            }
                            (None, None) => {
                                conflicts += 1;
                                assert_eq!(arena.len(), before, "width {width} case {case} op {op}: a failed merge leaves nothing");
                            }
                            (got, want) => panic!(
                                "width {width} case {case} op {op}: merge {got:?}, model {want:?}"
                            ),
                        }
                    }
                    _ => {
                        // The projection's in-place unbind.
                        let i = pick(&mut rng);
                        let row = arena.row_mut(ids[i]);
                        for (cell, held) in row.iter_mut().zip(&mut model[i]) {
                            if rng.gen_bool(0.4) {
                                *cell = TermId::UNBOUND;
                                *held = TermId::UNBOUND;
                                unbinds += 1;
                            }
                        }
                    }
                }
                assert_eq!(
                    arena.len(),
                    model.len(),
                    "width {width} case {case} op {op}"
                );
                if op % 97 == 0 {
                    for (id, row) in ids.iter().zip(&model) {
                        assert_eq!(
                            arena.row(*id),
                            &row[..],
                            "width {width} case {case} op {op}"
                        );
                    }
                }
            }
            // Handles are distinct and name rows in the order written.
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "width {width} case {case}"
            );
            let all: Vec<&[TermId]> = arena.rows().collect();
            assert_eq!(all.len(), model.len());
            for ((id, row), read) in ids.iter().zip(&model).zip(&all) {
                assert_eq!(arena.row(*id), &row[..]);
                assert_eq!(*read, &row[..]);
                let bound = row.iter().filter(|c| **c != TermId::UNBOUND).count();
                assert_eq!(arena.bound_count(*id), bound);
                for (s, cell) in row.iter().enumerate() {
                    assert_eq!(arena.get(*id, s), cell.bound());
                }
            }
        }
    }
    assert!(
        merged > 5_000 && conflicts > 5_000,
        "merged {merged}, conflicts {conflicts}"
    );
    assert!(
        unbinds > 5_000 && far_reads > 1_000,
        "unbinds {unbinds}, far reads {far_reads}"
    );
}
