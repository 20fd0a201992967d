//! Seeded chaos suite: the federated engine under deterministic fault
//! injection.
//!
//! For every experiment query and network profile, `CHAOS_ITERS` randomly
//! generated fault schedules (message drops, truncated result streams,
//! latency spikes, N-message outages) are injected on all wrapper links.
//! A schedule the retry policy can absorb must not change the answers:
//! the sorted SPARQL CSV serialization is byte-identical to the fault-free
//! run. A schedule it cannot absorb must fail with
//! [`FedError::SourceUnavailable`] or [`FedError::Timeout`] — never a
//! panic, never silently wrong answers. Re-running any schedule with the
//! same seed reproduces the exact same [`fedlake_core::FedStats`].
//!
//! Every test runs in every cell of the shared configuration matrix
//! (`tests/common/mod.rs`: schedule × planner × tracing × recorder ×
//! replicas, pairwise): the observers are contractually passive and the
//! chaos properties hold under either clock and either planner. Only the
//! property test takes the replica axis — the targeted tests assert exact
//! single-endpoint attempt counts that replication would legitimately
//! change, and the failover tests replicate one source themselves.
//!
//! `CHAOS_ITERS` (schedules per query/profile/cell) defaults to 32, the
//! tier-1 gate; raise it for soak runs, e.g.
//! `CHAOS_ITERS=256 cargo test --test chaos_federation`.

mod common;

use common::for_each_cell;
use fedlake_core::{
    FaultPlan, FedError, FedResult, FederatedEngine, OutageGroup, PlanConfig, PlanMode,
    RetryPolicy,
};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_prng::Prng;
use fedlake_sparql::parser::parse_query;
use std::time::Duration;

/// FNV-1a, to derive one independent meta-seed per (query, profile) cell.
fn mix(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn chaos_iters() -> u64 {
    std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Answers as sorted SPARQL CSV — the byte-comparable canonical form.
fn sorted_csv(r: &FedResult) -> String {
    let mut rows = r.rows.clone();
    rows.sort_by_cached_key(|row| row.to_string());
    fedlake_core::results::to_sparql_csv(&r.vars, &rows)
}

/// A random fault schedule the retry policy (6 attempts) can usually
/// absorb: moderate probabilities, outages shorter than the budget.
fn random_plan(rng: &mut Prng) -> FaultPlan {
    FaultPlan {
        drop_prob: rng.gen_range(0.0..0.10),
        truncate_prob: rng.gen_range(0.0..0.08),
        spike_prob: rng.gen_range(0.0..0.20),
        spike_factor: rng.gen_range(1.0..12.0),
        outage_after: (rng.gen_range(0.0f64..1.0) < 0.5)
            .then(|| rng.gen_range(0u64..200)),
        outage_len: rng.gen_range(0u64..4),
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 6, ..Default::default() }
}

/// The tentpole property: for every matrix cell × Q1–Q5 × all network
/// profiles × CHAOS_ITERS seeded fault schedules, a run that completes
/// returns byte-identical answers to the fault-free baseline, and a run
/// that fails does so with a fault error. Every 8th schedule is
/// re-executed to pin determinism.
#[test]
fn recoverable_faults_preserve_answers() {
    for_each_cell(|cell| {
        let iters = chaos_iters();
        let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
        for q in workload::experiment_queries() {
            let mut lake = build_lake_with(&lake_cfg, q.datasets);
            cell.replicate(&mut lake);
            let ast = parse_query(&q.sparql).unwrap();
            for network in NetworkProfile::ALL {
                let mut config = cell.config(PlanConfig::new(PlanMode::AWARE, network));
                config.retry = retry();
                let mut engine = FederatedEngine::new(lake.clone(), config);
                let planned = engine.plan(&ast).unwrap();
                let baseline = engine.execute_planned(&planned).unwrap();
                let label = |i| format!("{}/{}/schedule {i}", q.id, network.name);
                assert!(
                    !baseline.stats.degraded
                        && baseline.stats.retries == 0
                        && baseline.stats.source_failures.is_empty(),
                    "{}: fault-free baseline saw faults",
                    label(-1i64)
                );
                let baseline_csv = sorted_csv(&baseline);
                // One meta-stream per (query, profile) cell keeps schedules
                // independent of iteration count and of the other cells.
                let mut rng =
                    Prng::seed_from_u64(0xC4A0_5000 ^ mix(q.id) ^ mix(network.name).rotate_left(17));
                let mut recovered = 0u64;
                for i in 0..iters {
                    let mut c = config;
                    c.faults = random_plan(&mut rng);
                    c.seed = rng.next_u64();
                    engine.set_config(c);
                    match engine.execute_planned(&planned) {
                        Ok(r) => {
                            assert_eq!(
                                sorted_csv(&r),
                                baseline_csv,
                                "{}: recovered answers diverge ({c:?})",
                                label(i as i64)
                            );
                            assert!(!r.stats.degraded, "{}: degraded without opt-in", label(i as i64));
                            recovered += 1;
                            if i % 8 == 0 {
                                let again = engine.execute_planned(&planned).unwrap();
                                assert_eq!(
                                    again.stats,
                                    r.stats,
                                    "{}: same seed, different stats",
                                    label(i as i64)
                                );
                            }
                        }
                        Err(FedError::SourceUnavailable { .. }) | Err(FedError::Timeout(_)) => {}
                        Err(e) => panic!("{}: unexpected error kind: {e}", label(i as i64)),
                    }
                }
                // The schedules are tuned to be mostly absorbable; a suite
                // where most runs fail would not be testing recovery.
                assert!(
                    recovered * 2 >= iters,
                    "{}/{}: only {recovered}/{iters} schedules recovered",
                    q.id,
                    network.name
                );
            }
        }
    });
}

/// An outage longer than the whole attempt budget is unrecoverable: the
/// strict mode fails with `SourceUnavailable` naming the source and the
/// exhausted budget; degraded mode returns the partial (here: empty)
/// answer set with accurate per-source failure accounting.
#[test]
fn unrecoverable_outage_fails_cleanly_or_degrades() {
    for_each_cell(|cell| {
        let q = workload::q1(); // single source: "chebi"
        let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA1));
        config.retry = retry();
        config.faults = FaultPlan {
            outage_after: Some(0),
            outage_len: u64::MAX,
            ..FaultPlan::NONE
        };
        let engine = FederatedEngine::new(lake.clone(), config);
        let err = engine.execute_sparql(&q.sparql).unwrap_err();
        match err {
            FedError::SourceUnavailable { ref source, attempts } => {
                assert_eq!(source, "chebi");
                assert_eq!(attempts, config.retry.max_attempts);
            }
            other => panic!("expected SourceUnavailable, got {other}"),
        }

        config.degraded_ok = true;
        let engine = FederatedEngine::new(lake, config);
        let r = engine.execute_sparql(&q.sparql).unwrap();
        assert!(r.stats.degraded);
        assert!(r.rows.is_empty(), "nothing was delivered before the outage");
        // Accounting: every attempt of the one failed message hit the outage,
        // and all but the last were retries.
        assert_eq!(
            r.stats.source_failures.get("chebi").copied(),
            Some(config.retry.max_attempts as u64)
        );
        assert_eq!(r.stats.retries, (config.retry.max_attempts - 1) as u64);
    });
}

/// The per-query deadline: strict mode yields `Timeout`, degraded mode
/// keeps the answers produced before the deadline and flags the result.
#[test]
fn deadline_times_out_or_degrades() {
    for_each_cell(|cell| {
        let q = workload::q1();
        let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        let baseline =
            FederatedEngine::new(lake.clone(), PlanConfig::aware(NetworkProfile::GAMMA2))
                .execute_sparql(&q.sparql)
                .unwrap();
        assert!(baseline.stats.answers > 1, "Q1 must produce several answers");

        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA2));
        config.deadline = Some(Duration::from_micros(1));
        let engine = FederatedEngine::new(lake.clone(), config);
        match engine.execute_sparql(&q.sparql) {
            Err(FedError::Timeout(d)) => assert_eq!(d, Duration::from_micros(1)),
            other => panic!("expected Timeout, got {other:?}"),
        }

        config.degraded_ok = true;
        let engine = FederatedEngine::new(lake, config);
        let r = engine.execute_sparql(&q.sparql).unwrap();
        assert!(r.stats.degraded);
        assert!(
            r.stats.answers < baseline.stats.answers,
            "a 1µs deadline on a gamma network must cut the answer set"
        );
        assert_eq!(r.rows.len() as u64, r.stats.answers);
    });
}

/// A deadline generous enough for the whole query changes nothing.
#[test]
fn slack_deadline_is_invisible() {
    for_each_cell(|cell| {
        let q = workload::q2();
        let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        let plain = FederatedEngine::new(lake.clone(), PlanConfig::aware(NetworkProfile::GAMMA1))
            .execute_sparql(&q.sparql)
            .unwrap();
        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA1));
        config.deadline = Some(Duration::from_secs(3600));
        config.degraded_ok = true;
        let bounded = FederatedEngine::new(lake, config).execute_sparql(&q.sparql).unwrap();
        assert!(!bounded.stats.degraded);
        assert_eq!(sorted_csv(&bounded), sorted_csv(&plain));
        assert_eq!(bounded.stats.execution_time, plain.stats.execution_time);
    });
}

/// Per-source fault plans: an outage targeted at exactly one endpoint of a
/// two-source federation. A short outage the retry policy absorbs leaves
/// the answers byte-identical to the fault-free run with failures charged
/// only to the flaky source; an endless outage fails naming that source
/// (or, degraded, returns the partial answers) while the healthy source
/// keeps its link fault-free.
#[test]
fn targeted_outage_hits_only_the_flaky_source() {
    for_each_cell(|cell| {
        let q = workload::q3(); // two sources: "linkedct" + "diseasome"
        let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA1));
        config.retry = retry();

        let engine = FederatedEngine::new(lake.clone(), config);
        let planned = engine.plan(&ast).unwrap();
        let baseline = engine.execute_planned(&planned).unwrap();
        assert!(baseline.stats.answers > 0, "Q3 must produce answers");

        // Recoverable: a 3-message outage against a 6-attempt budget.
        let mut engine = FederatedEngine::new(lake.clone(), config);
        engine.set_source_faults(
            "diseasome",
            FaultPlan { outage_after: Some(0), outage_len: 3, ..FaultPlan::NONE },
        );
        let r = engine.execute_planned(&planned).unwrap();
        assert_eq!(sorted_csv(&r), sorted_csv(&baseline), "recovered answers diverge");
        assert_eq!(
            r.stats.source_failures.keys().collect::<Vec<_>>(),
            ["diseasome"],
            "only the targeted source may fail"
        );
        assert_eq!(r.stats.source_failures["diseasome"], 3);
        assert_eq!(r.stats.retries, 3);

        // Unrecoverable: the targeted source never comes back.
        let mut engine = FederatedEngine::new(lake.clone(), config);
        engine.set_source_faults(
            "diseasome",
            FaultPlan { outage_after: Some(0), outage_len: u64::MAX, ..FaultPlan::NONE },
        );
        match engine.execute_planned(&planned).unwrap_err() {
            FedError::SourceUnavailable { ref source, attempts } => {
                assert_eq!(source, "diseasome");
                assert_eq!(attempts, config.retry.max_attempts);
            }
            other => panic!("expected SourceUnavailable, got {other}"),
        }

        // Degraded: the healthy source's partial work survives.
        config.degraded_ok = true;
        let mut engine = FederatedEngine::new(lake, config);
        engine.set_source_faults(
            "diseasome",
            FaultPlan { outage_after: Some(0), outage_len: u64::MAX, ..FaultPlan::NONE },
        );
        let r = engine.execute_planned(&planned).unwrap();
        assert!(r.stats.degraded);
        assert_eq!(
            r.stats.source_failures.keys().collect::<Vec<_>>(),
            ["diseasome"],
            "the healthy source's link must stay fault-free"
        );
    });
}

/// Replica failover: one replica of a two-replica source is permanently
/// dark, yet the query completes *undegraded* with byte-identical answers
/// — the wrapper burns the retry budget on `diseasome#r0`, fails over to
/// `diseasome#r1`, and stays there. The failures feed the session health
/// registry, so the *next* plan routes to the healthy replica up front and
/// EXPLAIN says so.
#[test]
fn replica_failover_rescues_a_flaky_source() {
    for_each_cell(|cell| {
        let q = workload::q3(); // two sources: "linkedct" + "diseasome"
        let mut lake =
            build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        lake.set_replicas("diseasome", 2);
        let ast = parse_query(&q.sparql).unwrap();
        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA1));
        config.retry = retry();

        // Fault-free baseline over the same replicated lake.
        let engine = FederatedEngine::new(lake.clone(), config);
        let planned = engine.plan(&ast).unwrap();
        assert!(
            planned.skipped_sources.is_empty(),
            "nothing is degraded in a fresh session"
        );
        assert!(
            fedlake_core::explain::explain_plan(&planned.plan).contains("via diseasome#r0"),
            "a fresh session routes to the first replica in index order"
        );
        let baseline = engine.execute_planned(&planned).unwrap();
        assert!(baseline.stats.answers > 0, "Q3 must produce answers");

        // The primary replica never answers; the secondary rescues the query.
        let mut engine = FederatedEngine::new(lake.clone(), config);
        engine.set_source_faults(
            "diseasome#r0",
            FaultPlan { outage_after: Some(0), outage_len: u64::MAX, ..FaultPlan::NONE },
        );
        let r = engine.execute_planned(&planned).unwrap();
        assert!(!r.stats.degraded, "failover must rescue the query, not degrade it");
        assert_eq!(sorted_csv(&r), sorted_csv(&baseline), "failover answers diverge");
        // Replica failures are charged to the logical source: the full budget
        // on r0 (5 intra-replica retries + the failover switch), r1 clean.
        assert_eq!(
            r.stats.source_failures.keys().collect::<Vec<_>>(),
            ["diseasome"]
        );
        assert_eq!(
            r.stats.source_failures["diseasome"],
            config.retry.max_attempts as u64
        );
        assert_eq!(r.stats.retries, config.retry.max_attempts as u64);
        // Determinism: the same schedule reproduces the same stats.
        let again = engine.execute_planned(&planned).unwrap();
        assert_eq!(again.stats, r.stats, "same seed, different stats");

        // Health-aware re-planning: the recorded r0 failures reorder the
        // route, and EXPLAIN shows both the replica and the reason.
        let replanned = engine.plan(&ast).unwrap();
        assert!(
            fedlake_core::explain::explain_plan(&replanned.plan)
                .contains("via diseasome#r1 [healthiest first"),
            "the next plan must route around the dark replica"
        );
    });
}

/// A correlated outage downs *every* replica of a source over the same
/// seeded window: strict mode fails naming the logical source with the
/// summed attempt budget; degraded mode returns the healthy source's
/// partial work with all failures charged to the logical source.
#[test]
fn correlated_outage_downs_all_replicas() {
    for_each_cell(|cell| {
        let q = workload::q3();
        let mut lake =
            build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        lake.set_replicas("diseasome", 2);
        let ast = parse_query(&q.sparql).unwrap();
        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA1));
        config.retry = retry();
        let group = OutageGroup {
            members: vec!["diseasome#r0".into(), "diseasome#r1".into()],
            seed: 7,
            window: 1, // start is seeded % window: the outage begins at once
            len: u64::MAX,
        };

        let mut engine = FederatedEngine::new(lake.clone(), config);
        engine.add_outage_group(group.clone());
        let planned = engine.plan(&ast).unwrap();
        match engine.execute_planned(&planned).unwrap_err() {
            FedError::SourceUnavailable { ref source, attempts } => {
                assert_eq!(source, "diseasome", "the error names the logical source");
                assert_eq!(
                    attempts,
                    2 * config.retry.max_attempts,
                    "a full budget per replica"
                );
            }
            other => panic!("expected SourceUnavailable, got {other}"),
        }

        config.degraded_ok = true;
        let mut engine = FederatedEngine::new(lake, config);
        engine.add_outage_group(group);
        let r = engine.execute_planned(&planned).unwrap();
        assert!(r.stats.degraded);
        assert_eq!(
            r.stats.source_failures.keys().collect::<Vec<_>>(),
            ["diseasome"],
            "the healthy source's links must stay fault-free"
        );
        assert_eq!(
            r.stats.source_failures["diseasome"],
            2 * config.retry.max_attempts as u64,
            "both replicas' attempts fold into the logical id"
        );
        // Determinism across re-runs, correlated outage included.
        let again = engine.execute_planned(&planned).unwrap();
        assert_eq!(again.stats, r.stats, "same outage group, different stats");
    });
}

/// Satellite regression: the final retry backoff is clamped at the
/// per-query deadline. With a 10 s backoff and a 5 ms deadline, a failing
/// source costs at most the deadline plus the in-flight attempts' timeouts
/// — never a multi-second pause charged past the deadline.
#[test]
fn retry_backoff_is_clamped_at_the_deadline() {
    for_each_cell(|cell| {
        let q = workload::q1(); // single source: "chebi"
        let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        let deadline = Duration::from_millis(5);
        let timeout = Duration::from_millis(1);
        let mut config = cell.config(PlanConfig::aware(NetworkProfile::NO_DELAY));
        config.retry = RetryPolicy {
            max_attempts: 2,
            timeout,
            backoff: Duration::from_secs(10),
        };
        config.deadline = Some(deadline);
        config.degraded_ok = true;
        config.faults = FaultPlan {
            outage_after: Some(0),
            outage_len: u64::MAX,
            ..FaultPlan::NONE
        };
        let engine = FederatedEngine::new(lake, config);
        let r = engine.execute_sparql(&q.sparql).unwrap();
        assert!(r.stats.degraded);
        assert!(
            r.stats.execution_time <= deadline + 2 * timeout,
            "backoff must clamp at the deadline: took {:?}",
            r.stats.execution_time
        );
    });
}

/// Serve-mode chaos: 8 clients run a mixed workload concurrently while
/// seeded faults hit every shared link and a correlated outage window
/// downs both Diseasome replicas. Sessions that recover (complete,
/// undegraded) must answer byte-identically to their fault-free solo
/// runs; sessions that degrade are accounted — exactly — in the server
/// rollup; and the whole chaotic serve run is reproducible bit for bit.
#[test]
fn serve_chaos_recovers_per_query() {
    for_each_cell(|cell| {
        use fedlake_serve::{run, solo_golden, Mix, ServeSpec};

        let spec = ServeSpec {
            clients: 8,
            queries_per_client: 1,
            mix: Mix::default(),
            seed: 13,
            mean_interarrival: Duration::from_micros(500),
            max_in_flight: 4,
            deadline: None,
        };
        let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
        let mut lake = build_lake_with(&lake_cfg, &spec.mix.datasets());
        lake.set_replicas("diseasome", 2);

        let mut config = cell.config(PlanConfig::aware(NetworkProfile::GAMMA1));
        config.retry = retry();
        config.degraded_ok = true;
        config.faults = random_plan(&mut Prng::seed_from_u64(mix("serve-chaos")));
        let outage = OutageGroup {
            members: vec!["diseasome#r0".into(), "diseasome#r1".into()],
            seed: 11,
            window: 64,
            len: 8,
        };

        let serve_once = || {
            let mut engine = FederatedEngine::new(lake.clone(), config);
            engine.add_outage_group(outage.clone());
            run(&engine, &spec).unwrap()
        };
        let r = serve_once();

        // Fault-free goldens: same plan mode and network, reliable links.
        let mut clean = config;
        clean.faults = fedlake_core::FaultPlan::NONE;
        clean.degraded_ok = false;
        clean.tracing = false;

        let mut degraded_seen = 0u64;
        for (inst, out) in r.instances.iter().zip(&r.outcome.outcomes) {
            assert!(
                out.error.is_none(),
                "{}: degraded_ok sessions degrade, they never fail hard: {:?}",
                out.label,
                out.error
            );
            if out.degraded {
                degraded_seen += 1;
                continue;
            }
            let golden = solo_golden(&lake, clean, &inst.sparql).unwrap();
            assert_eq!(
                fedlake_serve::sorted_csv(&out.vars, &out.rows),
                fedlake_serve::sorted_csv(&golden.vars, &golden.rows),
                "{}: a recovered session must byte-match its fault-free solo run",
                out.label
            );
        }

        // Degraded accounting sums correctly in the rollup, and every
        // admitted session is accounted exactly once.
        let m = &r.outcome.metrics;
        assert_eq!(m.counter("serve.degraded"), degraded_seen);
        assert_eq!(
            m.counter("serve.admitted"),
            m.counter("serve.completed")
                + m.counter("serve.degraded")
                + m.counter("serve.timeouts")
                + m.counter("serve.failed"),
            "rollup: every admitted session lands in exactly one bucket"
        );
        assert_eq!(m.counter("serve.admitted"), spec.clients as u64);

        // Chaos, replicas and the outage window included, the serve run is a
        // pure function of its seeds.
        let again = serve_once();
        assert_eq!(again.outcome.metrics.render(), r.outcome.metrics.render());
        assert_eq!(again.report, r.report);
        for (x, y) in r.outcome.outcomes.iter().zip(&again.outcome.outcomes) {
            assert_eq!(
                fedlake_serve::sorted_csv(&x.vars, &x.rows),
                fedlake_serve::sorted_csv(&y.vars, &y.rows),
                "{}: chaotic serve reruns must agree",
                x.label
            );
            assert_eq!(x.stats, y.stats);
        }
    });
}

/// `rows_per_message` is a public field nothing used to validate: with `0`
/// a delivery sized its first message at zero rows, sent the empty-result
/// notification and reported the stream drained — stock queries came back
/// `Ok` with no answers and `degraded = false`. A message must carry
/// something, so a stream refuses to open: a typed
/// [`FedError::Unsupported`] on both schedules, under the hash join and
/// the bind join, through `serve`, and from a [`BindJoinOp`] built by hand.
#[test]
fn zero_rows_per_message_is_a_typed_error_not_an_empty_answer() {
    use fedlake_core::fedplan::FedPlan;
    use fedlake_core::operators::RowsOp;
    use fedlake_core::wrapper::{BindJoinOp, SourceRoute};
    use fedlake_core::{ServeConfig, ServeJob};

    // Heuristic Q1 joins its stars by hash; the cost-based planner ships
    // unaware Q3's left bindings to a bind join.
    let queries = workload::experiment_queries();
    for (id, cost_based) in [("Q1", false), ("Q3", true)] {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        for overlap in [false, true] {
            let mut config = PlanConfig::new(PlanMode::Unaware, NetworkProfile::GAMMA1);
            config.cost_based = cost_based;
            config.overlap = overlap;
            let label = format!("{id}/cost={cost_based}/overlap={overlap}");
            let sane = FederatedEngine::new(lake.clone(), config).execute(&ast).unwrap();
            assert!(sane.stats.answers > 0, "{label}: one row per message has answers");

            config.rows_per_message = 0;
            let engine = FederatedEngine::new(lake.clone(), config);
            let planned = engine.plan(&ast).unwrap();
            let solo = engine.execute_planned(&planned);
            assert!(
                matches!(solo, Err(FedError::Unsupported(_))),
                "{label}: solo gave {:?}",
                solo.map(|r| (r.stats.answers, r.stats.degraded))
            );
            let job = ServeJob {
                client: 0,
                label: id.into(),
                planned: planned.clone(),
                deadline: None,
                cached: false,
            };
            let served = engine.serve(&[job], &ServeConfig::default());
            assert!(
                matches!(served, Err(FedError::Unsupported(_))),
                "{label}: serve gave {:?}",
                served.map(|s| s.outcomes.iter().map(|o| o.rows.len()).collect::<Vec<_>>())
            );

            // The plan's first bind-join target, in pre-order.
            let mut bind_target = None;
            planned.plan.visit(0, &mut |node, _| {
                if let (None, FedPlan::BindJoin { right, .. }) = (&bind_target, node) {
                    bind_target = Some(right);
                }
            });
            if let Some(target) = bind_target {
                let link = fedlake_netsim::Link::new(
                    config.network,
                    fedlake_netsim::clock::shared_virtual(),
                    config.cost,
                    config.seed,
                )
                .shared();
                let direct = BindJoinOp::new(
                    Box::new(RowsOp::new(Vec::new())),
                    target,
                    engine.lake(),
                    SourceRoute::single(target.source_id.as_str(), link),
                    0,
                    8,
                );
                assert!(
                    matches!(direct, Err(FedError::Unsupported(_))),
                    "{label}: a hand-built bind join accepted zero rows per message"
                );
            } else {
                assert!(!cost_based, "{label}: no bind join planned");
            }
        }
    }
}
