//! The warm row path's allocation budget, and who owns an answer's terms.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`.
//! A warm execution — plan cached, every leaf and bind-join batch in the
//! lift cache — allocates for the rows it moves and the answer it returns
//! and for little else: one chunk of its row arena per few hundred ids of
//! delivered or merged rows, one vector per answer row, the join sides'
//! amortized growth. A term is never copied on the way: every term of a
//! decoded answer *is* the interner's allocation.

use fedlake::core::{FederatedEngine, PlanConfig, PlanMode};
use fedlake::datagen::{build_lake_with, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// [`System`], counting the calls the current thread makes.
struct CountingCalls;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counter never influences
// a pointer handed out, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingCalls {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingCalls = CountingCalls;

/// Allocator calls (`alloc` + `realloc`) of one warm execution at scale
/// 0.15 under Gamma1, as measured when the budget was set, in the order
/// Q1..Q5 × (unaware, aware): with the row arena, in debug and release
/// alike. With one box per row they were 700 / 620, 891 / 492, 609 / 298,
/// 1 309 / 1 116 and 1 535 / 1 363; before that — boxed join keys owning a
/// vector each, a second row per projection, a decode that cloned every
/// string — 1 874 / 1 794, 2 254 / 938, 803 / 492, 2 657 / 2 134 and
/// 2 576 / 1 847.
const MEASURED: [(&str, [u64; 2]); 5] = [
    ("Q1", [403, 385]),
    ("Q2", [418, 343]),
    ("Q3", [252, 231]),
    ("Q4", [472, 410]),
    ("Q5", [445, 384]),
];

/// What an execution may make: the measured count + 15 %.
fn budget(measured: u64) -> u64 {
    measured + measured * 15 / 100
}

#[test]
fn a_warm_execution_stays_within_its_allocation_budget_and_copies_no_term() {
    let cfg = LakeConfig { scale: 0.15, ..Default::default() };
    let mut over = Vec::new();
    for (q, (id, measured)) in workload::experiment_queries().iter().zip(MEASURED) {
        assert_eq!(q.id, id);
        let lake = build_lake_with(&cfg, q.datasets);
        for (mode, measured) in [PlanMode::Unaware, PlanMode::AWARE].into_iter().zip(measured) {
            let engine =
                FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA1));
            // Twice to warm: the first fills the caches, the second grows
            // the interner's and the caches' tables to their final size.
            for _ in 0..2 {
                engine.execute_sparql(&q.sparql).unwrap();
            }
            let before = CALLS.with(Cell::get);
            let result = engine.execute_sparql(&q.sparql).unwrap();
            let calls = CALLS.with(Cell::get) - before;
            println!("{id} {:<8} {calls:>6} calls, {} answers", mode.label(), result.rows.len());
            if calls > budget(measured) {
                over.push(format!(
                    "{id} {}: {calls} calls, budget {} (measured {measured})",
                    mode.label(),
                    budget(measured)
                ));
            }

            assert!(!result.rows.is_empty(), "{id} must have answers at scale {}", cfg.scale);
            let dict = engine.interner().lock();
            for row in &result.rows {
                for v in row.vars() {
                    let term = row.shared(v).expect("a listed variable is bound");
                    let owner = dict.id(term).and_then(|id| dict.shared(id));
                    assert!(
                        owner.is_some_and(|o| Arc::ptr_eq(o, term)),
                        "{id} {}: {v} = {term} is a copy, not the interner's term",
                        mode.label()
                    );
                }
            }
        }
    }
    assert!(over.is_empty(), "over the allocation budget:\n{}", over.join("\n"));
}
