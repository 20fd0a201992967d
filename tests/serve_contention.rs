//! Contention properties of the serving layer.
//!
//! K clients share one wrapper link under a **constant** delay model, so
//! every bound is exact: the shared link serializes all transfers on its
//! occupancy timeline, which gives
//!
//! * aggregate makespan ≥ the sum of each query's solo network delay
//!   (the link can only carry one message at a time), and
//! * every query's served latency ≥ its solo latency (queueing and the
//!   single-threaded engine core only ever delay a session's events).
//!
//! A gamma profile would break the per-query bound spuriously — shared
//! links interleave the RNG draws, so one session can draw *luckier*
//! delays than it would solo. Constant delays make the bounds
//! schedule-independent.
//!
//! Also pinned here: a deadline-exceeded session reports
//! [`FedError::Timeout`] in its own outcome without poisoning the other
//! sessions, a job without a deadline of its own keeps the engine's,
//! admission control never exceeds the in-flight bound
//! (asserted through the `serve.in_flight` gauge of the obs rollup), and
//! the loop's work per job — `serve.polls` — does not grow with the number
//! of sessions in flight.

use fedlake_core::obs::Metric;
use fedlake_core::serve::{ServeConfig, ServeJob};
use fedlake_core::{FedError, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::{DelayModel, NetworkProfile};
use fedlake_serve::sorted_csv;
use fedlake_sparql::parser::parse_query;
use std::time::Duration;

const CONST2: NetworkProfile =
    NetworkProfile { name: "const2", delay: DelayModel::Constant { ms: 2.0 } };

fn config() -> PlanConfig {
    let mut c = PlanConfig::new(PlanMode::AWARE, CONST2);
    c.seed = 5;
    c.overlap = true;
    c
}

/// K identical Q1 jobs over the single-source ChEBI lake: one shared
/// link, all arrivals at t = 0.
fn q1_jobs(engine: &FederatedEngine, k: usize) -> Vec<ServeJob> {
    let q = workload::q1();
    let ast = parse_query(&q.sparql).unwrap();
    let planned = engine.plan(&ast).unwrap();
    (0..k)
        .map(|client| ServeJob {
            client,
            label: format!("{}#{client}", q.id),
            planned: planned.clone(),
            deadline: None,
            cached: false,
        })
        .collect()
}

#[test]
fn shared_link_bounds_hold() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, workload::q1().datasets);
    let solo = FederatedEngine::new(lake.clone(), config())
        .execute_sparql(&workload::q1().sparql)
        .unwrap();

    const K: usize = 4;
    let engine = FederatedEngine::new(lake.clone(), config());
    let jobs = q1_jobs(&engine, K);
    let outcome = engine
        .serve(
            &jobs,
            &ServeConfig {
                seed: 9,
                max_in_flight: 0, // unbounded: all K contend at once
                mean_interarrival: Duration::ZERO,
            },
        )
        .unwrap();

    // The shared link serializes: the run cannot finish before it has
    // carried K queries' worth of constant-delay messages.
    let solo_sum = solo.stats.network_delay * K as u32;
    assert!(
        outcome.makespan >= solo_sum,
        "makespan {:?} < serialized link lower bound {:?}",
        outcome.makespan,
        solo_sum
    );

    for out in &outcome.outcomes {
        assert!(out.error.is_none(), "{}: {:?}", out.label, out.error);
        // Contention only ever delays a session.
        assert!(
            out.latency >= solo.stats.execution_time,
            "{}: served latency {:?} < solo latency {:?}",
            out.label,
            out.latency,
            solo.stats.execution_time
        );
        // …and never changes what it answers.
        assert_eq!(
            sorted_csv(&out.vars, &out.rows),
            sorted_csv(&solo.vars, &solo.rows),
            "{}: contention must not change the answer set",
            out.label
        );
    }

    // Sanity: with one client there is no contention, so the bound is
    // tight — the served latency equals the solo latency exactly.
    let engine1 = FederatedEngine::new(lake.clone(), config());
    let jobs1 = q1_jobs(&engine1, 1);
    let solo_outcome = engine1
        .serve(
            &jobs1,
            &ServeConfig {
                seed: 9,
                max_in_flight: 0,
                mean_interarrival: Duration::ZERO,
            },
        )
        .unwrap();
    assert_eq!(
        solo_outcome.outcomes[0].latency, solo.stats.execution_time,
        "a lone served query must match its solo execution time exactly"
    );
}

#[test]
fn deadline_timeout_does_not_poison_other_sessions() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, workload::q1().datasets);
    let solo = FederatedEngine::new(lake.clone(), config())
        .execute_sparql(&workload::q1().sparql)
        .unwrap();

    let engine = FederatedEngine::new(lake.clone(), config());
    let mut jobs = q1_jobs(&engine, 3);
    // The middle client's deadline is far below one 2 ms message delay:
    // it must time out before its first answer.
    jobs[1].deadline = Some(Duration::from_micros(100));
    let outcome = engine
        .serve(
            &jobs,
            &ServeConfig {
                seed: 9,
                max_in_flight: 0,
                mean_interarrival: Duration::ZERO,
            },
        )
        .unwrap();

    match &outcome.outcomes[1].error {
        Some(FedError::Timeout(d)) => assert_eq!(*d, Duration::from_micros(100)),
        other => panic!("deadline session must report FedError::Timeout, got {other:?}"),
    }
    assert!(outcome.outcomes[1].rows.is_empty());
    for out in [&outcome.outcomes[0], &outcome.outcomes[2]] {
        assert!(out.error.is_none(), "{}: {:?}", out.label, out.error);
        assert_eq!(
            sorted_csv(&out.vars, &out.rows),
            sorted_csv(&solo.vars, &solo.rows),
            "{}: a neighbour's timeout must not change this session's answers",
            out.label
        );
    }
    assert_eq!(outcome.metrics.counter("serve.timeouts"), 1);
    assert_eq!(outcome.metrics.counter("serve.completed"), 2);
}

/// A job without a deadline of its own keeps the engine's
/// `PlanConfig::deadline`, as the same query executed solo does; a job's
/// own deadline takes its place.
#[test]
fn a_served_job_without_a_deadline_keeps_the_engines() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, workload::q1().datasets);
    let solo = FederatedEngine::new(lake.clone(), config())
        .execute_sparql(&workload::q1().sparql)
        .unwrap();

    let tight = Duration::from_micros(1);
    let engine = FederatedEngine::new(lake, PlanConfig { deadline: Some(tight), ..config() });
    let alone = engine.execute_sparql(&workload::q1().sparql);
    assert!(matches!(alone, Err(FedError::Timeout(d)) if d == tight), "solo: {alone:?}");

    let mut jobs = q1_jobs(&engine, 2);
    jobs[1].deadline = Some(Duration::from_secs(3600));
    let outcome = engine.serve(&jobs, &ServeConfig::default()).unwrap();
    match &outcome.outcomes[0].error {
        Some(FedError::Timeout(d)) => assert_eq!(*d, tight),
        other => panic!("the engine's deadline must time the job out, got {other:?}"),
    }
    let own = &outcome.outcomes[1];
    assert!(own.error.is_none(), "{}: {:?}", own.label, own.error);
    assert_eq!(sorted_csv(&own.vars, &own.rows), sorted_csv(&solo.vars, &solo.rows));
}

#[test]
fn admission_control_never_exceeds_the_bound() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, workload::q1().datasets);

    const K: usize = 6;
    const BOUND: usize = 2;
    let engine = FederatedEngine::new(lake.clone(), config());
    let jobs = q1_jobs(&engine, K);
    let outcome = engine
        .serve(
            &jobs,
            &ServeConfig {
                seed: 9,
                max_in_flight: BOUND,
                mean_interarrival: Duration::ZERO,
            },
        )
        .unwrap();

    assert_eq!(outcome.metrics.counter("serve.admitted"), K as u64);
    assert_eq!(outcome.metrics.counter("serve.completed"), K as u64);
    match outcome.metrics.get("serve.in_flight") {
        Some(Metric::Gauge { max, .. }) => assert!(
            max <= BOUND as u64,
            "in-flight gauge max {max} exceeded the admission bound {BOUND}"
        ),
        other => panic!("serve.in_flight gauge missing: {other:?}"),
    }
    // Queued jobs were admitted strictly after the first wave.
    let mut admissions: Vec<Duration> = outcome.outcomes.iter().map(|o| o.admitted).collect();
    admissions.sort();
    assert_eq!(admissions[0], Duration::ZERO);
    assert!(
        admissions[BOUND] > Duration::ZERO,
        "job {BOUND} must have waited for an admission slot"
    );
}

/// The sweep polls a session when its event is due, not whenever any
/// session's is: the same jobs cost the same polls whether one or eight of
/// them are in flight. (A loop that re-polls every active session after
/// every event needs `max_in_flight` times as many.)
#[test]
fn polls_per_job_do_not_grow_with_the_admission_bound() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, workload::q1().datasets);

    const K: usize = 16;
    let polls = |bound: usize| {
        let engine = FederatedEngine::new(lake.clone(), config());
        let jobs = q1_jobs(&engine, K);
        let outcome = engine
            .serve(
                &jobs,
                &ServeConfig {
                    seed: 9,
                    max_in_flight: bound,
                    mean_interarrival: Duration::ZERO,
                },
            )
            .unwrap();
        assert_eq!(outcome.metrics.counter("serve.completed"), K as u64);
        outcome.metrics.counter("serve.polls")
    };
    let (alone, crowded) = (polls(1), polls(8));
    assert!(alone >= K as u64, "every job is polled at least once");
    assert_eq!(alone, polls(1), "the count repeats exactly for a spec");
    // Measured: 1296 polls at either bound (2544 before a productive poll
    // kept the event it ended on). The every-session sweep this
    // replaced made 2544 at bound 1 and 20296 at bound 8 (7.98x).
    assert!(
        crowded * 4 <= alone * 5,
        "polls grew with the bound: {alone} at 1 in flight, {crowded} at 8"
    );
}
