//! Determinism contract of the serving layer.
//!
//! A serve run is a pure function of its seeds: the same [`ServeSpec`]
//! over the same lake reproduces byte-identical per-query answers,
//! per-session statistics, latencies, the metrics rollup and the summary
//! report. A *different* seed produces a different interleaving — but
//! every query's answer set still byte-matches its solo execution,
//! because contention moves answers in time, never across queries.
//!
//! Also pins the PR 7 lift-cache regression: the engine-persistent lift
//! cache is keyed by the schema's *slot-layout fingerprint* (not the
//! schema `Arc`'s address, which the allocator may reuse after a plan is
//! dropped), so cached and uncached sessions can interleave freely — and
//! its entries are stamped with the source's data version, so a write
//! between serve runs is seen.
//!
//! Every test runs in every cell of the shared configuration matrix
//! (`tests/common/mod.rs`); the serve loop is its own scheduler, so the
//! schedule axis only reaches the solo goldens.

mod common;

use common::{for_each_cell, Cell};
use fedlake_core::obs::Metric;
use fedlake_core::{DataSource, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_serve::{run, solo_golden, sorted_csv, Mix, ServeSpec};
use fedlake_sparql::parser::parse_query;
use std::time::Duration;

fn spec(seed: u64) -> ServeSpec {
    ServeSpec {
        clients: 6,
        queries_per_client: 2,
        mix: Mix::default(),
        seed,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        deadline: None,
    }
}

fn config(cell: &Cell) -> PlanConfig {
    let mut c = cell.config(PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1));
    c.seed = 1;
    c
}

fn lake_for(cell: &Cell, scale: f64) -> fedlake_core::DataLake {
    let lake_cfg = LakeConfig { scale, ..Default::default() };
    let mut lake = build_lake_with(&lake_cfg, &Mix::default().datasets());
    cell.replicate(&mut lake);
    lake
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    for_each_cell(|cell| {
        let s = spec(21);
        let lake = lake_for(cell, 0.05);

        let a = run(&FederatedEngine::new(lake.clone(), config(cell)), &s).unwrap();
        let b = run(&FederatedEngine::new(lake.clone(), config(cell)), &s).unwrap();

        assert_eq!(a.instances, b.instances, "same seed must instantiate the same workload");
        assert_eq!(a.outcome.outcomes.len(), b.outcome.outcomes.len());
        for (x, y) in a.outcome.outcomes.iter().zip(&b.outcome.outcomes) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                sorted_csv(&x.vars, &x.rows),
                sorted_csv(&y.vars, &y.rows),
                "{}: answers must be byte-identical across reruns",
                x.label
            );
            assert_eq!(x.stats, y.stats, "{}: per-session stats must match", x.label);
            assert_eq!(
                (x.arrival, x.admitted, x.finish, x.latency, x.first_answer),
                (y.arrival, y.admitted, y.finish, y.latency, y.first_answer),
                "{}: per-session timings must match",
                x.label
            );
            assert!(x.error.is_none(), "{}: fault-free run must complete: {:?}", x.label, x.error);
        }
        assert_eq!(a.outcome.makespan, b.outcome.makespan);
        assert_eq!(
            a.outcome.metrics.render(),
            b.outcome.metrics.render(),
            "server rollup must be byte-identical"
        );
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json(), b.report.to_json());
    });
}

#[test]
fn every_seed_matches_the_solo_golden() {
    for_each_cell(|cell| {
        let lake = lake_for(cell, 0.05);
        let mut latency_sets = Vec::new();
        for seed in [3u64, 17] {
            let s = spec(seed);
            let r = run(&FederatedEngine::new(lake.clone(), config(cell)), &s).unwrap();
            for (inst, out) in r.instances.iter().zip(&r.outcome.outcomes) {
                assert!(out.completed(), "{}: fault-free serve must complete", out.label);
                let golden = solo_golden(&lake, config(cell), &inst.sparql).unwrap();
                assert_eq!(
                    sorted_csv(&out.vars, &out.rows),
                    sorted_csv(&golden.vars, &golden.rows),
                    "{}: served answers must byte-match the solo execution",
                    out.label
                );
            }
            latency_sets.push(
                r.outcome.outcomes.iter().map(|o| (o.label.clone(), o.latency)).collect::<Vec<_>>(),
            );
        }
        assert_ne!(
            latency_sets[0], latency_sets[1],
            "different seeds must produce different interleavings"
        );
    });
}

/// The lift cache must survive plans being dropped and re-created while
/// other sessions (with other schemas) run in between: its key is the
/// schema's slot-layout fingerprint, so a reused allocation can never
/// serve wrongly-slotted columns. Each engine execution is compared to a
/// fresh-engine golden, whose cache starts empty.
#[test]
fn lift_cache_sessions_interleave_safely() {
    for_each_cell(|cell| {
        let lake = lake_for(cell, 0.05);
        let mut engine = FederatedEngine::new(lake.clone(), config(cell));

        // Interleave two plan shapes that share a source (Q3 and Q5 both
        // read Diseasome) across repeated plan/execute/drop cycles, warming
        // and re-hitting the cache under allocator reuse.
        for i in 0..6 {
            let q = if i % 2 == 0 { workload::q3() } else { workload::q5() };
            let ast = parse_query(&q.sparql).unwrap();
            let planned = engine.plan(&ast).unwrap();
            let warm = engine.execute_planned(&planned).unwrap();
            let golden = solo_golden(&lake, config(cell), &q.sparql).unwrap();
            assert_eq!(
                sorted_csv(&warm.vars, &warm.rows),
                sorted_csv(&golden.vars, &golden.rows),
                "{} iteration {i}: cached session must match a cold engine",
                q.id
            );
            assert_eq!(
                warm.stats, golden.stats,
                "{} iteration {i}: a cache hit must re-charge identical simulated cost",
                q.id
            );
        }

        // A serve run on the same (warm) engine mixes cached and uncached
        // sessions; every answer still matches a cold solo run.
        let s = spec(5);
        let r = run(&engine, &s).unwrap();
        for (inst, out) in r.instances.iter().zip(&r.outcome.outcomes) {
            let golden = solo_golden(&lake, config(cell), &inst.sparql).unwrap();
            assert_eq!(
                sorted_csv(&out.vars, &out.rows),
                sorted_csv(&golden.vars, &golden.rows),
                "{}: warm-engine serve must match cold solo execution",
                out.label
            );
        }

        // One mutation between serve runs: every source is handed out (which
        // moves its version whatever the caller then does) and chebi really
        // changes. The next run finds what it cached stale, re-lifts it and
        // matches a cold engine over the mutated lake.
        let before = engine.cache_stats().lift;
        let ids: Vec<String> = lake.sources().iter().map(|s| s.id().to_string()).collect();
        for id in &ids {
            engine.lake_mut().source_mut(id).expect("listed source");
        }
        match engine.lake_mut().source_mut("chebi") {
            Some(DataSource::Relational { db, .. }) => db
                .insert_row(
                    "compound",
                    vec![
                        fedlake_relational::Value::text("late-c"),
                        fedlake_relational::Value::text("late acid"),
                        fedlake_relational::Value::text("checked"),
                        fedlake_relational::Value::Int(1),
                        fedlake_relational::Value::Double(99.5),
                    ],
                )
                .unwrap(),
            _ => panic!("chebi is relational"),
        }
        engine.lake_mut().refresh_templates();
        let mutated = engine.lake().clone();
        let r = run(&engine, &s).unwrap();
        for (inst, out) in r.instances.iter().zip(&r.outcome.outcomes) {
            let golden = solo_golden(&mutated, config(cell), &inst.sparql).unwrap();
            assert_eq!(
                sorted_csv(&out.vars, &out.rows),
                sorted_csv(&golden.vars, &golden.rows),
                "{}: serve after a write must match a cold engine on the mutated lake",
                out.label
            );
        }
        let after = engine.cache_stats().lift;
        assert!(after.stale > before.stale, "the write must be noticed: {before:?} -> {after:?}");
        assert_eq!(after.lookups, after.hits + after.misses, "{after:?}");
        let gauge = |name: &str| match r.outcome.metrics.get(name) {
            Some(Metric::Gauge { last, .. }) => last,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(gauge("serve.liftcache.lookups"), after.lookups);
        assert_eq!(gauge("serve.liftcache.hits"), after.hits);
        assert_eq!(gauge("serve.liftcache.stale"), after.stale);

        // With nothing written in between, the same run is all hits —
        // bind-join batches included — and the working set fits the bound.
        run(&engine, &s).unwrap();
        let settled = engine.cache_stats().lift;
        assert_eq!((settled.misses, settled.stale), (after.misses, after.stale), "{settled:?}");
        assert!(settled.hits > after.hits);
        assert_eq!(settled.evictions, 0, "{settled:?}");
    });
}

/// FNV-1a fold of what the serve loop decides per job: when it was
/// admitted, when it finished, when it first answered, how much it
/// answered and how it ended.
fn schedule_digest(outcomes: &[fedlake_core::serve::QueryOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in outcomes {
        fold(o.admitted.as_nanos() as u64);
        fold(o.finish.as_nanos() as u64);
        fold(o.first_answer.is_some() as u64);
        fold(o.first_answer.unwrap_or_default().as_nanos() as u64);
        fold(o.stats.answers);
        fold(o.error.is_some() as u64);
        fold(o.degraded as u64);
    }
    h
}

/// The serve loop's schedule, frozen: admission instants, completion
/// instants, first answers and deadline instants of two runs on the small
/// aware+cost / Gamma1 lake, as the values the loop printed when every
/// sweep still polled every active session. A sweep that skips a session
/// may only ever skip a poll that would have returned the `Pending` it
/// returned last time — if it skips anything else, these numbers move.
///
/// One run saturates the admission bound (jobs queue behind four busy
/// slots); the other carries a per-job deadline short enough that some
/// sessions time out while waiting on a source and others complete.
///
/// Each spec runs twice on one engine and pins the same numbers both
/// times: the rerun reads every delay from the tapes the first run drew,
/// and draws none of its own.
#[test]
fn serve_schedule_is_pinned() {
    let mut cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
    cfg.cost_based = true;
    cfg.seed = 1;
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, &Mix::default().datasets());

    let saturating = ServeSpec {
        clients: 6,
        queries_per_client: 4,
        seed: 21,
        mean_interarrival: Duration::from_millis(5),
        max_in_flight: 4,
        ..Default::default()
    };
    let engine = FederatedEngine::new(lake.clone(), cfg);
    for pass in ["cold", "warm"] {
        let drawn = engine.cache_stats().delays.draws;
        let r = run(&engine, &saturating).unwrap();
        assert!(r.outcome.outcomes.iter().all(|o| o.completed()));
        match r.outcome.metrics.get("serve.in_flight") {
            Some(Metric::Gauge { max, .. }) => assert_eq!(max, 4, "the bound must be reached"),
            other => panic!("serve.in_flight: {other:?}"),
        }
        assert!(
            r.outcome.outcomes.iter().any(|o| o.admitted > o.arrival),
            "some job must have queued for a slot"
        );
        assert_eq!(
            (r.outcome.makespan, schedule_digest(&r.outcome.outcomes)),
            (Duration::from_nanos(261_384_386), 0x224e_ee86_7382_b235),
            "saturating run, {pass}"
        );
        // How many session polls the loop made: a sweep that polls a
        // session one sweep early or late moves this count even where the
        // outcomes happen to match.
        assert_eq!(r.outcome.metrics.counter("serve.polls"), 1196, "saturating run, {pass}: polls");
        let draws = engine.cache_stats().delays.draws - drawn;
        assert_eq!(draws == 0, pass == "warm", "saturating run, {pass}: {draws} draws");
    }

    let deadline = Duration::from_millis(25);
    let with_deadline = ServeSpec { deadline: Some(deadline), ..saturating };
    let engine = FederatedEngine::new(lake, cfg);
    for pass in ["cold", "warm"] {
        let drawn = engine.cache_stats().delays.draws;
        let r = run(&engine, &with_deadline).unwrap();
        let outcomes = &r.outcome.outcomes;
        assert!(outcomes.iter().any(|o| o.completed()), "some session must complete");
        // Timed out while pending: admitted before its deadline, never
        // answered, and time passed before the loop noticed.
        assert!(
            outcomes.iter().any(|o| {
                matches!(o.error, Some(fedlake_core::FedError::Timeout(_)))
                    && o.first_answer.is_none()
                    && o.admitted < o.arrival + deadline
                    && o.finish > o.admitted
            }),
            "some session must time out while it waits on a source"
        );
        assert_eq!(
            (r.outcome.makespan, schedule_digest(outcomes)),
            (Duration::from_nanos(122_729_408), 0x095c_22bc_c6b4_8639),
            "deadline run, {pass}"
        );
        assert_eq!(r.outcome.metrics.counter("serve.polls"), 623, "deadline run, {pass}: polls");
        let draws = engine.cache_stats().delays.draws - drawn;
        assert_eq!(draws == 0, pass == "warm", "deadline run, {pass}: {draws} draws");
    }
}

/// Smoke: a fixed-seed mini-load. Small N, one pass, asserts the rollup
/// adds up — fast enough for every gate.
#[test]
fn serve_smoke() {
    for_each_cell(|cell| {
        let s = ServeSpec {
            clients: 4,
            queries_per_client: 1,
            seed: 7,
            mean_interarrival: Duration::from_millis(1),
            max_in_flight: 2,
            ..Default::default()
        };
        let r = run(&FederatedEngine::new(lake_for(cell, 0.02), config(cell)), &s).unwrap();
        assert_eq!(r.report.jobs, 4);
        assert_eq!(r.report.completed, 4);
        assert_eq!(
            r.outcome.metrics.counter("serve.admitted"),
            r.report.completed + r.report.timeouts + r.report.degraded + r.report.failed
        );
        assert!(r.report.jain > 0.0 && r.report.jain <= 1.0 + 1e-12);
    });
}
