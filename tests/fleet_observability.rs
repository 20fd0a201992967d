//! Fleet-level observability invariants: flight recorder passivity at
//! serve scale, deterministic recordings, the SLO watchdog's typed
//! anomalies, and the golden slow-query-log snapshot.
//!
//! The recorder mirrors the PR 4 tracing contract one level up: enabling
//! it must never change answers, per-session stats, the server rollup or
//! the summary report — it only *adds* the recording. The watchdog is a
//! pure fold over that recording, so the same run always yields the same
//! windows and anomalies; the three anomaly families are each provoked
//! deliberately here (a planted cardinality mis-estimate, a
//! chaos-degraded link, an admission queue under pressure).
//!
//! The slow-query log and the serve views (`obs_serve.txt`) are pinned as
//! golden files under `tests/golden/`. Regenerate deliberately with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test fleet_observability
//! ```

use fedlake_core::obs::AnomalyKind;
use fedlake_core::{
    watch, FaultPlan, FederatedEngine, PlanConfig, PlanMode, RetryPolicy, SlowLogConfig,
    WatchdogConfig,
};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_serve::{run, sorted_csv, Mix, ServeSpec};
use fedlake_sparql::parser::parse_query;
use std::path::PathBuf;
use std::time::Duration;

fn config(recorder: bool) -> PlanConfig {
    let mut c = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
    c.seed = 1;
    c.recorder = recorder;
    c
}

fn serve_lake(spec: &ServeSpec) -> fedlake_core::DataLake {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    build_lake_with(&lake_cfg, &spec.mix.datasets())
}

/// The recorder must be invisible to everything it observes: a 32-client
/// run with it on reproduces the recorder-off run byte for byte —
/// workload instances, per-job answers, per-session stats, the metrics
/// rollup, the report JSON — and only differs by carrying a recording.
#[test]
fn recorder_is_passive_at_serve_scale() {
    let spec = ServeSpec {
        clients: 32,
        queries_per_client: 1,
        seed: 7,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 8,
        ..Default::default()
    };
    let lake = serve_lake(&spec);

    let off = run(&FederatedEngine::new(lake.clone(), config(false)), &spec).unwrap();
    let on = run(&FederatedEngine::new(lake, config(true)), &spec).unwrap();

    assert!(off.outcome.recording.is_none(), "recorder off must not record");
    let recording = on.outcome.recording.as_ref().expect("recorder on must record");
    assert_eq!(recording.jobs.len(), 32, "one job record per served query");
    assert!(recording.events.iter().any(|e| e.kind.name() == "complete"));

    assert_eq!(off.instances, on.instances, "workload instantiation diverged");
    assert_eq!(off.outcome.outcomes.len(), on.outcome.outcomes.len());
    for (x, y) in off.outcome.outcomes.iter().zip(&on.outcome.outcomes) {
        assert_eq!(x.label, y.label);
        assert_eq!(
            sorted_csv(&x.vars, &x.rows),
            sorted_csv(&y.vars, &y.rows),
            "{}: answers must be byte-identical recorder on/off",
            x.label
        );
        assert_eq!(x.stats, y.stats, "{}: per-session stats", x.label);
        assert_eq!(
            (x.arrival, x.admitted, x.finish, x.latency, x.first_answer),
            (y.arrival, y.admitted, y.finish, y.latency, y.first_answer),
            "{}: per-session timings",
            x.label
        );
    }
    assert_eq!(off.outcome.makespan, on.outcome.makespan);
    assert_eq!(
        off.outcome.metrics.render(),
        on.outcome.metrics.render(),
        "server rollup must be byte-identical recorder on/off"
    );
    assert_eq!(off.report.to_json(), on.report.to_json(), "report JSON");
}

/// The recording itself is deterministic: same seed, same lake, same
/// config — the event stream (times, sequence numbers, payloads), the
/// watchdog verdict, the slow-query log and both serve exports are
/// byte-identical across reruns.
#[test]
fn recordings_are_deterministic_across_reruns() {
    let spec = ServeSpec {
        clients: 8,
        queries_per_client: 2,
        seed: 21,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        ..Default::default()
    };
    let lake = serve_lake(&spec);
    let mut cfg = config(true);
    cfg.tracing = true;

    let a = run(&FederatedEngine::new(lake.clone(), cfg), &spec).unwrap();
    let b = run(&FederatedEngine::new(lake, cfg), &spec).unwrap();
    let (ra, rb) = (
        a.outcome.recording.as_ref().unwrap(),
        b.outcome.recording.as_ref().unwrap(),
    );
    assert_eq!(ra, rb, "recordings diverge across same-seed reruns");

    // Events are globally ordered by (time, seq) with seq strictly
    // increasing — the recorder's clock contract.
    let mut prev: Option<(Duration, u64)> = None;
    for e in &ra.events {
        if let Some((_, ps)) = prev {
            assert!(e.seq > ps, "seq must strictly increase");
        }
        prev = Some((e.time, e.seq));
    }

    let wd = WatchdogConfig::default();
    assert_eq!(a.watchdog(&wd).unwrap(), b.watchdog(&wd).unwrap());
    let slow = SlowLogConfig { latency: Some(Duration::ZERO), ..Default::default() };
    assert_eq!(
        fedlake_core::slow_log_json(&a.slow_queries(&slow)),
        fedlake_core::slow_log_json(&b.slow_queries(&slow)),
        "slow-query log diverges across reruns"
    );
    assert_eq!(
        fedlake_core::serve_chrome_trace(ra),
        fedlake_core::serve_chrome_trace(rb),
        "serve chrome trace diverges"
    );
    assert_eq!(
        fedlake_core::serve_timeline_html(ra),
        fedlake_core::serve_timeline_html(rb),
        "serve timeline diverges"
    );
}

/// A planted cardinality mis-estimate is caught as a typed anomaly: the
/// statistics catalog is scaled 1000× *after* collection (catalog drift),
/// the cost-based planner trusts the inflated estimates, and execution
/// falsifies them — the watchdog must flag the drifted source.
#[test]
fn watchdog_flags_a_planted_misestimate() {
    let q = workload::q1(); // single source: "chebi"
    let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
    let mut cfg = config(true);
    cfg.cost_based = true;

    let mut engine = FederatedEngine::new(lake, cfg);
    engine
        .lake_mut()
        .statistics_mut()
        .source_mut("chebi")
        .expect("chebi statistics")
        .scale(1000);

    let ast = parse_query(&q.sparql).unwrap();
    let planned = engine.plan(&ast).unwrap();
    engine.execute_planned(&planned).unwrap();

    let recording = engine.flight_recording().expect("recorder on");
    let report = watch(&recording, &WatchdogConfig::default());
    let found: Vec<_> = report.of_kind("misestimate").collect();
    assert!(!found.is_empty(), "drifted catalog must raise a misestimate:\n{}", report.render());
    let AnomalyKind::Misestimate { source, qerror_x100, estimated_rows, actual_rows, .. } =
        &found[0].kind
    else {
        panic!("of_kind returned a different family");
    };
    assert_eq!(source, "chebi");
    assert!(
        *qerror_x100 >= 800,
        "a 1000x stats inflation must blow the 8x q-error threshold (got {qerror_x100})"
    );
    assert!(*estimated_rows > *actual_rows as f64, "estimate must overshoot");

    // Determinism: the same recording always produces the same verdict.
    assert_eq!(report, watch(&recording, &WatchdogConfig::default()));
}

/// A chaos-degraded link is caught as a typed anomaly: a targeted outage
/// on one source of a two-source federation produces faulted transfers
/// past the threshold on exactly that link, while the healthy source
/// stays unflagged.
#[test]
fn watchdog_flags_a_chaos_degraded_link() {
    let q = workload::q3(); // two sources: "linkedct" + "diseasome"
    let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
    let mut cfg = config(true);
    cfg.retry = RetryPolicy { max_attempts: 6, ..Default::default() };

    let mut engine = FederatedEngine::new(lake, cfg);
    engine.set_source_faults(
        "diseasome",
        FaultPlan { outage_after: Some(0), outage_len: 3, ..FaultPlan::NONE },
    );
    engine.execute_sparql(&q.sparql).unwrap();

    let recording = engine.flight_recording().expect("recorder on");
    let faulted = recording
        .events
        .iter()
        .filter(|e| matches!(e.kind, fedlake_core::obs::FleetEventKind::Transfer { faulted: true, .. }))
        .count();
    assert_eq!(faulted, 3, "the outage must surface as three faulted transfers");

    let report = watch(&recording, &WatchdogConfig::default());
    let flagged: Vec<_> = report.of_kind("link-degraded").collect();
    assert_eq!(flagged.len(), 1, "exactly the outaged link is flagged:\n{}", report.render());
    let AnomalyKind::LinkDegraded { source, faulted, .. } = &flagged[0].kind else {
        panic!("of_kind returned a different family");
    };
    assert_eq!(source, "diseasome");
    assert_eq!(*faulted, 3);
}

/// One degraded replicated source is one anomaly: with `diseasome#r0`
/// dark, the faults land on the endpoint and the failover on the logical
/// source, and the watchdog reports both under the logical source —
/// `LinkDegraded::source` is documented as the logical id.
#[test]
fn watchdog_flags_a_degraded_replicated_source_once() {
    let q = workload::q3(); // two sources: "linkedct" + "diseasome"
    let mut lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
    lake.set_replicas("diseasome", 2);
    let mut engine = FederatedEngine::new(lake, config(true));
    engine.set_source_faults(
        "diseasome#r0",
        FaultPlan { outage_after: Some(0), outage_len: u64::MAX, ..FaultPlan::NONE },
    );
    engine.execute_sparql(&q.sparql).unwrap();

    let recording = engine.flight_recording().expect("recorder on");
    let report = watch(&recording, &WatchdogConfig::default());
    let flagged: Vec<_> = report.of_kind("link-degraded").map(|a| a.kind.clone()).collect();
    assert_eq!(
        flagged,
        [AnomalyKind::LinkDegraded { source: "diseasome".into(), faulted: 4, failovers: 1 }],
        "one degraded source, one anomaly:\n{}",
        report.render()
    );
}

/// Admission pressure is caught as a typed anomaly: a closed batch of
/// eight clients against a single admission slot queues everyone behind
/// the head job, breaching any small wait threshold.
#[test]
fn watchdog_flags_admission_pressure() {
    let spec = ServeSpec {
        clients: 8,
        queries_per_client: 1,
        seed: 7,
        mean_interarrival: Duration::ZERO,
        max_in_flight: 1,
        ..Default::default()
    };
    let lake = serve_lake(&spec);
    let r = run(&FederatedEngine::new(lake, config(true)), &spec).unwrap();

    let wd = WatchdogConfig {
        queue_wait: Duration::from_micros(1),
        queue_breach_threshold: 3,
        ..Default::default()
    };
    let report = r.watchdog(&wd).expect("recorder on");
    let pressure: Vec<_> = report.of_kind("admission-pressure").collect();
    assert!(!pressure.is_empty(), "serialized admission must breach:\n{}", report.render());
    let AnomalyKind::AdmissionPressure { breaches, max_queued_us } = &pressure[0].kind else {
        panic!("of_kind returned a different family");
    };
    assert!(*breaches >= 3, "seven queued jobs must breach at least thrice");
    assert!(*max_queued_us >= 1);
}

/// Compares `text` with the golden file `tests/golden/<name>`, or writes
/// it there under `BLESS_GOLDEN=1`.
fn assert_golden(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); bless with BLESS_GOLDEN=1")
    });
    assert_eq!(text, want, "{name} diverges from {path:?}");
}

/// The fixed-seed serve run the golden snapshots pin, traced and recorded.
fn golden_serve_run() -> fedlake_serve::ServeRun {
    let spec = ServeSpec {
        clients: 4,
        queries_per_client: 1,
        seed: 7,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        ..Default::default()
    };
    let lake = serve_lake(&spec);
    let mut cfg = config(true);
    cfg.tracing = true; // per-operator / per-link enrichment
    // The snapshot pins the *heuristic* plan shape: cost-ordered plans
    // have different operators.
    cfg.cost_based = false;
    run(&FederatedEngine::new(lake, cfg), &spec).unwrap()
}

/// The fleet views of the golden serve run are pinned byte for byte: the
/// serve Chrome trace, the HTML timeline, the watchdog's verdict and the
/// Prometheus exposition of the rollup.
#[test]
fn serve_views_match_golden_snapshot() {
    let r = golden_serve_run();
    let recording = r.outcome.recording.as_ref().expect("recorder on");
    let text = format!(
        "== serve chrome trace ==\n{}== serve timeline html ==\n{}== watchdog ==\n{}== prometheus ==\n{}",
        fedlake_core::serve_chrome_trace(recording),
        fedlake_core::serve_timeline_html(recording),
        watch(recording, &WatchdogConfig::default()).render(),
        r.outcome.metrics.prometheus(),
    );
    assert_golden("obs_serve.txt", &text);
}

/// The slow-query log of a fixed-seed serve run is pinned as a golden
/// JSON snapshot: any change to the recorder's event stream, the breach
/// logic, the trace enrichment or the JSON shape shows up as a readable
/// diff. A zero latency threshold makes every completed query "slow", so
/// the snapshot covers the full record shape.
#[test]
fn slow_query_log_matches_golden_snapshot() {
    let r = golden_serve_run();
    let slow = SlowLogConfig { latency: Some(Duration::ZERO), ..Default::default() };
    let records = r.slow_queries(&slow);
    assert_eq!(records.len(), 4, "zero threshold must capture every job");
    for rec in &records {
        assert!(rec.breached.contains(&"latency".to_string()));
        assert!(!rec.operators.is_empty(), "{}: trace enrichment missing", rec.label);
        // Serve links are shared across sessions, so per-query link rows
        // stay empty here — link health at serve scale is the watchdog's
        // job (fleet `transfer` events), not the slow-query record's.
        assert!(!rec.sources.is_empty(), "{}: per-service rows missing", rec.label);
    }
    assert_golden("slow_query.json", &fedlake_core::slow_log_json(&records));
}

/// The `Mix` used above must include multi-source templates so the serve
/// recordings exercise joins, failable links and per-source rows — guard
/// against the default mix silently narrowing.
#[test]
fn default_mix_spans_multiple_sources() {
    assert!(Mix::default().datasets().len() >= 2);
}
