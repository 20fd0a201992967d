//! One lake, many engines: what a source *stores* is shared between the
//! values of a lake, what anyone *caches* is not.
//!
//! Two regressions are guarded here, both by counting rather than timing.
//! The clone deepening again: a counting allocator holds `lake.clone()` to a
//! fraction of the lake's size and the first write into a clone to the size
//! of the one table it touches — and a write with its catalog refresh to a
//! few rows' worth, not a pass over the written source. And a clone going
//! warm by accident, or cold by accident: the SQL memo's own counters show
//! that a clone's memo starts empty, and pointer equality shows that a
//! fresh engine over a clone plans from the table profiles it was cloned
//! with, rebuilding none, while the original's stay as they were.
//! The last test is the multi-core precondition: engines on two threads
//! over clones of one lake answer exactly as one engine on one thread.

mod common;

use fedlake::core::{DataLake, DataSource, FedStats, FederatedEngine, PlanConfig, PlanMode};
use fedlake::datagen::{build_lake, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::relational::cache::CacheStats;
use fedlake::relational::storage::TableProfile;
use fedlake::relational::{Database, Value};
use fedlake::serve::sorted_csv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};

/// [`System`], counting per thread what the thread requests and returns, so
/// tests running side by side do not see each other's traffic.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching them from inside
    // the allocator neither allocates nor registers anything.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    static RETURNED: Cell<u64> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: usize) {
    counter.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never influence
// the pointers handed out, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(&REQUESTED, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&RETURNED, layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only the growth is newly requested, only the shrinkage returned.
        add(&REQUESTED, new_size.saturating_sub(layout.size()));
        add(&RETURNED, layout.size().saturating_sub(new_size));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread's heap did while a closure ran.
#[derive(Debug, Clone, Copy)]
struct Traffic {
    /// Bytes requested, whether or not they were returned since.
    requested: u64,
    /// Bytes requested and still held.
    live: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Traffic) {
    let (requested, returned) = (REQUESTED.get(), RETURNED.get());
    let out = f();
    let requested = REQUESTED.get() - requested;
    let live = requested.saturating_sub(RETURNED.get() - returned);
    (out, Traffic { requested, live })
}

fn relational<'a>(lake: &'a DataLake, source: &str) -> &'a Database {
    match lake.source(source) {
        Some(DataSource::Relational { db, .. }) => db,
        _ => panic!("{source} is not a relational source"),
    }
}

fn insert_row(lake: &mut DataLake, source: &str, table: &str, row: Vec<Value>) {
    match lake.source_mut(source) {
        Some(DataSource::Relational { db, .. }) => db.insert_row(table, row).unwrap(),
        _ => panic!("{source} is not a relational source"),
    }
}

#[test]
fn a_clone_copies_handles_not_rows() {
    for rdf_sources in [vec![], vec!["drugbank".to_string()]] {
        let cfg = LakeConfig { rdf_sources, ..Default::default() };
        let (lake, built) = measure(|| build_lake(&cfg));
        let (clone, cloned) = measure(|| lake.clone());
        assert!(
            cloned.requested * 100 < built.live,
            "rdf {:?}: the clone requested {} B of a {} B lake",
            cfg.rdf_sources,
            cloned.requested,
            built.live
        );
        assert_eq!(clone.len(), lake.len());
        // Registration profiled every table; the clone holds the same
        // profiles, not copies.
        for source in lake.sources().iter().filter(|s| s.is_relational()) {
            let (ours, theirs) = (relational(&lake, source.id()), relational(&clone, source.id()));
            for name in ours.table_names() {
                let (ours, theirs) = (ours.table(name).unwrap(), theirs.table(name).unwrap());
                let (_, asked) = measure(|| {
                    assert!(Arc::ptr_eq(&ours.profile(), &theirs.profile()));
                });
                assert_eq!(asked.requested, 0, "{name}: a current profile is handed out as it is");
            }
        }
    }
}

/// A write costs what it writes: one row into each of the tables fedbench's
/// `mutate_requery` writes to, with the catalog refresh that follows, asks
/// the allocator for a few rows' worth — not for the hash sets of a pass
/// over the written source (≈ 1.6 MiB before the catalog was kept from
/// table profiles).
#[test]
fn a_write_and_its_refresh_allocate_for_the_rows_written() {
    let mut lake = build_lake(&LakeConfig::default());
    for (source, table) in [
        ("chebi", "compound"),
        ("linkedct", "trial"),
        ("sider", "drug_effect"),
        ("tcga", "expression"),
    ] {
        let template = relational(&lake, source).table(table).unwrap().row(0).unwrap().to_vec();
        let mut write = |key: &str| {
            let mut row = template.clone();
            row[0] = Value::text(key);
            let (_, traffic) = measure(|| {
                insert_row(&mut lake, source, table, row);
                lake.refresh_templates();
            });
            traffic
        };
        // The second write: the first may grow the row vector.
        write("cost-1");
        let written = write("cost-2");
        assert!(
            written.requested < 64 * 1024,
            "{source}.{table}: a write and its refresh requested {} B",
            written.requested
        );
        assert!(lake.statistics_fresh());
    }
}

#[test]
fn the_first_write_into_a_clone_copies_one_table() {
    let (lake, built) = measure(|| build_lake(&LakeConfig::small()));
    let mut clone = lake.clone();

    // The written table's size: a copy built from scratch, row by row and
    // index by index, as the generator built the original.
    let original = relational(&lake, "tcga").table("expression").unwrap();
    let (copy, table) = measure(|| {
        let mut db = Database::new("copy");
        common::copy_table(&mut db, original);
        db
    });
    assert_eq!(copy.table("expression").unwrap().len(), original.len());
    assert!(table.live * 4 < built.live, "one table of many: {} of {} B", table.live, built.live);

    let row = |key: &str| {
        let mut row = original.row(0).unwrap().to_vec();
        row[0] = Value::text(key);
        row
    };
    let (_, first) = measure(|| insert_row(&mut clone, "tcga", "expression", row("share-1")));
    assert!(
        first.requested <= table.live + table.live / 10,
        "the first write requested {} B for a {} B table",
        first.requested,
        table.live
    );
    assert!(first.requested * 2 > table.live, "it did unshare the table: {first:?}");
    let (_, second) = measure(|| insert_row(&mut clone, "tcga", "expression", row("share-2")));
    assert!(second.requested < 4096, "the second write requested {} B", second.requested);

    // The rows went to the clone alone.
    let written = relational(&clone, "tcga").table("expression").unwrap();
    assert_eq!(written.len(), original.len() + 2);
    let key = [Value::text("share-2")];
    assert_eq!(written.index_on("id").unwrap().lookup(&key), [original.len() + 1]);
    assert!(original.index_on("id").unwrap().lookup(&key).is_empty());
}

/// Every table's profile, source by source and table by table.
fn profiles(lake: &DataLake) -> Vec<Arc<TableProfile>> {
    let tables = |db: &Database| -> Vec<Arc<TableProfile>> {
        db.table_names().iter().map(|t| db.table(t).unwrap().profile()).collect()
    };
    lake.sources()
        .iter()
        .flat_map(|s| match s {
            DataSource::Relational { db, .. } => tables(db),
            DataSource::Sparql { .. } => Vec::new(),
        })
        .collect()
}

#[test]
fn a_clone_starts_cold_and_stays_out_of_the_original() {
    let lake = build_lake(&LakeConfig::default());
    let built = profiles(&lake);
    assert_eq!(built.len(), 16, "one profile per table of the lake");
    let same = |a: &[Arc<TableProfile>], b: &[Arc<TableProfile>]| {
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b))
    };

    // The profiles travel with the clone: a fresh engine plans Q1–Q5 from
    // the ones the generator left, under every planner, and neither it nor
    // the original rebuilds one.
    let queries = workload::experiment_queries();
    for (label, mode, cost_based) in [
        ("unaware", PlanMode::Unaware, false),
        ("aware", PlanMode::AWARE, false),
        ("aware+cost", PlanMode::AWARE, true),
    ] {
        let mut cfg = PlanConfig::new(mode, NetworkProfile::GAMMA1);
        cfg.cost_based = cost_based;
        cfg.overlap = true;
        for round in 0..2 {
            let engine = FederatedEngine::new(lake.clone(), cfg);
            assert!(same(&profiles(engine.lake()), &built), "{label} #{round}: the clone's");
            for q in &queries {
                engine.execute_sparql(&q.sparql).unwrap();
            }
            assert!(same(&profiles(engine.lake()), &built), "{label} #{round}: after Q1-Q5");
            assert!(same(&profiles(&lake), &built), "{label} #{round}: the original's");
        }
    }

    // The SQL memo is per `Database` value: the original's holds a
    // statement, a clone's holds nothing and has counted nothing.
    let sql = "SELECT id FROM compound WHERE status = 'obsolete'";
    let chebi = relational(&lake, "chebi");
    chebi.query_cached(sql).unwrap();
    chebi.query_cached(sql).unwrap();
    assert_eq!(chebi.cache_stats().hits, 1, "the original's memo holds the statement");
    let clone = lake.clone();
    for source in clone.sources() {
        if let DataSource::Relational { db, .. } = source {
            assert_eq!(db.cache_stats(), CacheStats::default(), "{}", source.id());
        }
    }
    let cold = relational(&clone, "chebi");
    cold.query_cached(sql).unwrap();
    let memo = cold.cache_stats();
    assert_eq!((memo.lookups, memo.misses, memo.hits), (1, 1, 0), "a clone's first ask misses");
}

/// Stock Q1–Q5 on `engine` as `(FedStats, sorted CSV)`.
fn run_stock(engine: &FederatedEngine) -> Vec<(FedStats, String)> {
    workload::experiment_queries()
        .iter()
        .map(|q| {
            let r = engine.execute_sparql(&q.sparql).unwrap();
            let csv = sorted_csv(&r.vars, &r.rows);
            (r.stats, csv)
        })
        .collect()
}

#[test]
fn engines_on_two_threads_over_one_lake_answer_like_one() {
    let base = build_lake(&LakeConfig { scale: 0.05, ..Default::default() });
    common::for_each_cell(|cell| {
        let mut lake = base.clone();
        cell.replicate(&mut lake);
        let cfg = cell.config(PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1));
        let expected = run_stock(&FederatedEngine::new(lake.clone(), cfg));
        // Both engines are built and start together, so the runs overlap.
        let start = Barrier::new(2);
        let (lake, start) = (&lake, &start);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let engine = FederatedEngine::new(lake.clone(), cfg);
                        start.wait();
                        run_stock(&engine)
                    })
                })
                .collect();
            for (i, worker) in workers.into_iter().enumerate() {
                let got = worker.join().expect("the worker panicked");
                assert_eq!(got, expected, "thread {i}");
            }
        });
    });
}

/// One engine shared by two threads: its caches and delay tapes are filled
/// and read by both at once, and every answer and `FedStats` equals a fresh
/// engine's.
#[test]
fn one_engine_shared_by_two_threads_answers_like_fresh_engines() {
    let base = build_lake(&LakeConfig { scale: 0.05, ..Default::default() });
    common::for_each_cell(|cell| {
        let mut lake = base.clone();
        cell.replicate(&mut lake);
        let cfg = cell.config(PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA2));
        let expected = run_stock(&FederatedEngine::new(lake.clone(), cfg));
        let engine = FederatedEngine::new(lake, cfg);
        let start = Barrier::new(2);
        let (engine, start) = (&engine, &start);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        start.wait();
                        (run_stock(engine), run_stock(engine))
                    })
                })
                .collect();
            for (i, worker) in workers.into_iter().enumerate() {
                let (cold, warm) = worker.join().expect("the worker panicked");
                assert_eq!(cold, expected, "thread {i}, first pass");
                assert_eq!(warm, expected, "thread {i}, second pass");
            }
        });
        let caches = engine.cache_stats();
        assert!(caches.delays.draws > 0, "the runs read their delays from tapes");
        // Both threads' filters published what they decided, under one lock.
        assert!(caches.verdicts.verdicts > 0, "the runs filled the verdict memo: {caches:?}");
        assert_eq!(run_stock(engine), expected, "a third pass");
        assert_eq!(engine.cache_stats().verdicts, caches.verdicts, "a warm pass publishes nothing");
    });
}
