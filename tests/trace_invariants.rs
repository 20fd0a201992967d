//! Invariants of the deterministic trace recorder.
//!
//! Tracing must be **passive** (answers, stats and the answer trace are
//! identical with it on or off), **deterministic** (the same seed and
//! config produce byte-identical trace exports), and **reconciled** (the
//! spans' row and message counts agree with `FedStats` and the per-link
//! counters, so `EXPLAIN ANALYZE` never lies about the execution it
//! annotates).
//!
//! The views themselves are pinned as a golden file,
//! `tests/golden/obs_solo.txt`. Regenerate deliberately with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test trace_invariants
//! ```

use fedlake_core::obs::{FlightRecording, Span, SpanKind, NO_JOB};
use fedlake_core::{FedResult, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::{FaultPlan, NetworkProfile};
use fedlake_sparql::parser::parse_query;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn run(q: &workload::WorkloadQuery, cfg: PlanConfig) -> FedResult {
    let lake = build_lake_with(&LakeConfig { scale: 0.1, ..Default::default() }, q.datasets);
    let engine = FederatedEngine::new(lake, cfg);
    let ast = parse_query(&q.sparql).unwrap();
    let planned = engine.plan(&ast).unwrap();
    engine.execute_planned(&planned).unwrap()
}

fn traced(q: &workload::WorkloadQuery, mut cfg: PlanConfig) -> FedResult {
    cfg.tracing = true;
    run(q, cfg)
}

fn sorted_rows(r: &FedResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows.iter().map(|row| row.to_string()).collect();
    v.sort();
    v
}

/// Flaky-but-recoverable links: every fault is retried within the budget.
fn recoverable_faults() -> FaultPlan {
    FaultPlan { drop_prob: 0.2, truncate_prob: 0.1, ..FaultPlan::NONE }
}

/// Every span is well-formed: ends after it starts, has an existing
/// parent (except the root), and lies inside its parent's envelope.
fn assert_span_tree(label: &str, spans: &[Span]) {
    assert!(!spans.is_empty(), "{label}: no spans recorded");
    assert_eq!(spans[0].kind, SpanKind::Query, "{label}: span 0 is the root");
    assert_eq!(spans[0].parent, None, "{label}: root has no parent");
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.id as usize, i, "{label}: ids are list indices");
        assert!(s.end >= s.start, "{label}: span {i} ({:?}) ends before it starts", s.kind);
        match s.parent {
            None => assert_eq!(i, 0, "{label}: only the root may be parentless"),
            Some(p) => {
                let p = &spans[p as usize];
                assert!(
                    s.start >= p.start && s.end <= p.end,
                    "{label}: span {i} ({:?} {:?}..{:?}) outside parent {:?} ({:?}..{:?})",
                    s.kind,
                    s.start,
                    s.end,
                    p.kind,
                    p.start,
                    p.end
                );
            }
        }
    }
    // Link activity on one lane happens on one timeline: transfer and
    // fault spans are recorded in non-decreasing start order per lane.
    let mut last: BTreeMap<&str, Duration> = BTreeMap::new();
    for s in spans {
        if !matches!(s.kind, SpanKind::Transfer | SpanKind::Fault) {
            continue;
        }
        let prev = last.entry(s.lane.as_str()).or_insert(Duration::ZERO);
        assert!(
            s.start >= *prev,
            "{label}: lane {} transfer at {:?} starts before previous {:?}",
            s.lane,
            s.start,
            prev
        );
        *prev = s.start;
    }
}

#[test]
fn span_trees_are_well_formed_in_both_schedules() {
    for q in &workload::experiment_queries() {
        for overlap in [false, true] {
            let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
            cfg.overlap = overlap;
            let r = traced(q, cfg);
            let obs = r.obs.as_ref().expect("tracing enabled");
            let label = format!("{}/overlap={overlap}", q.id);
            assert_span_tree(&label, &obs.spans);
            // Answer instants share the engine lane and never run backwards.
            let mut prev = Duration::ZERO;
            for s in obs.spans.iter().filter(|s| s.kind == SpanKind::Answer) {
                assert!(s.start >= prev, "{label}: answer instants regress");
                prev = s.start;
            }
        }
    }
}

#[test]
fn transfer_spans_reconcile_with_stats_and_links() {
    for q in &workload::experiment_queries() {
        for overlap in [false, true] {
            // Multi-row messages too: a transfer span then carries several rows.
            for rows_per_message in [1, 8] {
                let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
                cfg.overlap = overlap;
                cfg.rows_per_message = rows_per_message;
                let r = traced(q, cfg);
                let obs = r.obs.as_ref().expect("tracing enabled");
                let label = format!("{}/overlap={overlap}/rows_per_message={rows_per_message}", q.id);

                // Per-source successful-transfer spans sum to the link counters,
                // and the totals match FedStats.
                let mut rows_by_lane: BTreeMap<String, u64> = BTreeMap::new();
                let mut msgs_by_lane: BTreeMap<String, u64> = BTreeMap::new();
                for s in obs.spans.iter().filter(|s| s.kind == SpanKind::Transfer) {
                    *rows_by_lane.entry(s.lane.clone()).or_default() += s.rows;
                    *msgs_by_lane.entry(s.lane.clone()).or_default() += 1;
                }
                let mut rows_total = 0;
                let mut msgs_total = 0;
                for (source, report) in &obs.sources {
                    let lane = format!("src:{source}");
                    assert_eq!(
                        rows_by_lane.get(&lane).copied().unwrap_or(0),
                        report.link.rows,
                        "{label}: {source} span rows vs link rows"
                    );
                    assert_eq!(
                        msgs_by_lane.get(&lane).copied().unwrap_or(0),
                        report.link.messages,
                        "{label}: {source} span messages vs link messages"
                    );
                    rows_total += report.link.rows;
                    msgs_total += report.link.messages;
                }
                assert_eq!(rows_total, r.stats.rows_transferred, "{label}: rows_transferred");
                assert_eq!(msgs_total, r.stats.messages, "{label}: messages");

                // The metrics registry mirrors the engine stats.
                assert_eq!(obs.metrics.counter("engine.answers"), r.stats.answers, "{label}");
                assert_eq!(obs.metrics.counter("engine.messages"), r.stats.messages, "{label}");
                assert_eq!(
                    obs.metrics.counter("engine.rows_transferred"),
                    r.stats.rows_transferred,
                    "{label}"
                );
                assert_eq!(obs.metrics.counter("engine.sql_queries"), r.stats.sql_queries, "{label}");

                // The report totals are the stats totals.
                assert_eq!(obs.answers_total, r.stats.answers, "{label}");
                assert_eq!(obs.total_time, r.stats.execution_time, "{label}");
            }
        }
    }
}

#[test]
fn fault_spans_reconcile_under_chaos() {
    let q = &workload::by_id("Q1").unwrap();
    for overlap in [false, true] {
        let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
        cfg.overlap = overlap;
        cfg.faults = recoverable_faults();
        cfg.seed = 7;
        let r = traced(q, cfg);
        let obs = r.obs.as_ref().expect("tracing enabled");
        let label = format!("Q1/chaos/overlap={overlap}");

        let count = |kind: SpanKind| obs.spans.iter().filter(|s| s.kind == kind).count() as u64;
        let faults_from_links: u64 = obs
            .sources
            .values()
            .map(|s| s.link.dropped + s.link.truncated + s.link.outage_faults)
            .sum();
        assert!(faults_from_links > 0, "{label}: chaos config injected no faults");
        assert_eq!(count(SpanKind::Fault), faults_from_links, "{label}: fault spans");
        // Every faulted attempt is followed by a detection timeout; every
        // retry (all but the budget-exhausting attempt) by a backoff.
        assert_eq!(count(SpanKind::Timeout), faults_from_links, "{label}: timeout spans");
        assert_eq!(count(SpanKind::Backoff), r.stats.retries, "{label}: backoff spans");
        let retries_from_sources: u64 = obs.sources.values().map(|s| s.retries).sum();
        assert_eq!(retries_from_sources, r.stats.retries, "{label}: per-source retries");
    }
}

#[test]
fn tracing_is_passive() {
    for q in &workload::experiment_queries() {
        for mode in [PlanMode::Unaware, PlanMode::AWARE] {
            for network in NetworkProfile::ALL {
                for overlap in [false, true] {
                    let mut cfg = PlanConfig::new(mode, network);
                    cfg.overlap = overlap;
                    let off = run(q, cfg);
                    let on = traced(q, cfg);
                    let label =
                        format!("{}/{}/{}/overlap={overlap}", q.id, mode.label(), network.name);
                    assert!(off.obs.is_none(), "{label}: untraced run carries a report");
                    assert!(on.obs.is_some(), "{label}: traced run lost its report");
                    assert_eq!(sorted_rows(&off), sorted_rows(&on), "{label}: answers");
                    assert_eq!(off.stats, on.stats, "{label}: stats");
                    assert_eq!(off.trace, on.trace, "{label}: answer trace");
                }
            }
        }
    }
}

#[test]
fn same_seed_runs_export_identical_bytes() {
    let q = &workload::by_id("Q2").unwrap();
    for overlap in [false, true] {
        for faulty in [false, true] {
            let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA2);
            cfg.overlap = overlap;
            if faulty {
                cfg.faults = recoverable_faults();
            }
            let a = traced(q, cfg);
            let b = traced(q, cfg);
            let label = format!("Q2/overlap={overlap}/faulty={faulty}");
            assert_eq!(
                a.chrome_trace().unwrap(),
                b.chrome_trace().unwrap(),
                "{label}: chrome trace bytes diverge"
            );
            assert_eq!(
                a.explain_analyze().unwrap(),
                b.explain_analyze().unwrap(),
                "{label}: explain analyze diverges"
            );
        }
    }
}

/// The metrics registry's serialized forms are deterministic at serve
/// scale: two same-seed serve runs (recorder and tracing on) render
/// byte-identical Prometheus expositions and text rollups.
#[test]
fn serve_metrics_exposition_is_byte_identical_across_reruns() {
    use fedlake_serve::{run, ServeSpec};

    let spec = ServeSpec {
        clients: 8,
        queries_per_client: 2,
        seed: 21,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        ..Default::default()
    };
    let lake = build_lake_with(
        &LakeConfig { scale: 0.05, ..Default::default() },
        &spec.mix.datasets(),
    );
    let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
    cfg.seed = 1;
    cfg.tracing = true;
    cfg.recorder = true;

    let a = run(&FederatedEngine::new(lake.clone(), cfg), &spec).unwrap();
    let b = run(&FederatedEngine::new(lake, cfg), &spec).unwrap();
    let prom = a.outcome.metrics.prometheus();
    assert_eq!(prom, b.outcome.metrics.prometheus(), "prometheus bytes diverge");
    assert_eq!(a.outcome.metrics.render(), b.outcome.metrics.render(), "rollup diverges");
    assert!(prom.contains("# TYPE fedlake_serve_admitted counter"), "{prom}");
    assert!(prom.contains("fedlake_serve_latency_ns_count"), "{prom}");
}

/// Merging every session's registry into one reproduces the fleet view:
/// the merged per-session counters reconcile with the serve rollup and
/// with the sessions they came from, and merging in job order twice is
/// byte-deterministic.
#[test]
fn merged_session_registries_reconcile_with_the_serve_rollup() {
    use fedlake_core::MetricsRegistry;
    use fedlake_serve::{run, ServeSpec};

    let spec = ServeSpec {
        clients: 6,
        queries_per_client: 2,
        seed: 11,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        ..Default::default()
    };
    let lake = build_lake_with(
        &LakeConfig { scale: 0.05, ..Default::default() },
        &spec.mix.datasets(),
    );
    let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
    cfg.seed = 1;
    cfg.tracing = true;

    let r = run(&FederatedEngine::new(lake, cfg), &spec).unwrap();
    let merge_all = || {
        let mut fleet = MetricsRegistry::new();
        for o in &r.outcome.outcomes {
            fleet.merge(&o.obs.as_ref().expect("tracing on").metrics);
        }
        fleet
    };
    let fleet = merge_all();
    let answers: u64 = r.outcome.outcomes.iter().map(|o| o.stats.answers).sum();
    assert_eq!(fleet.counter("engine.answers"), answers, "merged answers");
    assert_eq!(
        fleet.counter("engine.answers"),
        r.outcome.metrics.counter("serve.answers"),
        "merged session answers must equal the serve rollup"
    );
    let sql: u64 = r.outcome.outcomes.iter().map(|o| o.stats.engine.sql_queries).sum();
    assert_eq!(fleet.counter("engine.sql_queries"), sql, "merged sql queries");
    assert_eq!(
        fleet.counter("planner.queries"),
        r.outcome.outcomes.len() as u64,
        "one planner record per session"
    );
    assert_eq!(
        fleet.prometheus(),
        merge_all().prometheus(),
        "merge is not byte-deterministic"
    );
}

/// Under chaos, the registry's per-link counters agree with the span
/// tree and the engine stats — faults, retries and messages are counted
/// once, through every pipe.
#[test]
fn chaos_counters_reconcile_with_spans() {
    let q = &workload::by_id("Q1").unwrap();
    let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
    cfg.faults = recoverable_faults();
    cfg.seed = 7;
    let r = traced(q, cfg);
    let obs = r.obs.as_ref().expect("tracing enabled");

    let count = |kind: SpanKind| obs.spans.iter().filter(|s| s.kind == kind).count() as u64;
    let mut faults = 0;
    let mut retries = 0;
    let mut messages = 0;
    for source in obs.sources.keys() {
        faults += obs.metrics.counter(&format!("link.{source}.faults"));
        retries += obs.metrics.counter(&format!("link.{source}.retries"));
        messages += obs.metrics.counter(&format!("link.{source}.messages"));
    }
    assert!(faults > 0, "chaos config injected no faults");
    assert_eq!(faults, count(SpanKind::Fault), "fault counters vs fault spans");
    assert_eq!(retries, r.stats.retries, "retry counters vs stats");
    assert_eq!(messages, count(SpanKind::Transfer), "message counters vs transfer spans");
    assert_eq!(obs.metrics.counter("engine.retries"), r.stats.retries);
}

/// One traced and recorded run's views, as the golden file holds them:
/// EXPLAIN ANALYZE, the Chrome trace, the metrics registry, and the
/// recording as one `seq time_ns job kind` line per event.
fn obs_views(title: &str, r: &FedResult, recording: &FlightRecording) -> String {
    let obs = r.obs.as_ref().expect("tracing on");
    let mut out = format!("== {title} ==\n-- explain analyze\n{}", r.explain_analyze().unwrap());
    out.push_str(&format!("-- chrome trace\n{}", r.chrome_trace().unwrap()));
    out.push_str(&format!("-- metrics\n{}-- recording\n", obs.metrics.render()));
    for e in &recording.events {
        let job = if e.job == NO_JOB { "-".to_string() } else { e.job.to_string() };
        out.push_str(&format!("{} {} {job} {}\n", e.seq, e.time.as_nanos(), e.kind.name()));
    }
    out.push_str(&format!("dropped {}\n", recording.dropped));
    out
}

/// The views of a traced and recorded solo run are pinned byte for byte:
/// Q3 under Gamma2 with `diseasome#r0` dark (faults, timeouts, backoffs,
/// retries and a failover) on both schedules, plus unaware Q3 under the
/// cost-based planner, which binds its join (bind-batch spans).
#[test]
fn solo_views_match_golden_snapshot() {
    let q = workload::q3();
    let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, q.datasets);
    let engine = |mut cfg: PlanConfig, lake: &fedlake_core::DataLake| {
        cfg.tracing = true;
        cfg.recorder = true;
        FederatedEngine::new(lake.clone(), cfg)
    };
    let mut replicated = lake.clone();
    replicated.set_replicas("diseasome", 2);
    let dark = FaultPlan { outage_after: Some(0), outage_len: u64::MAX, ..FaultPlan::NONE };

    let mut out = String::new();
    for (title, overlap) in [
        ("Q3 aware Gamma2 diseasome#r0 dark, serialized", false),
        ("Q3 aware Gamma2 diseasome#r0 dark, overlapped", true),
    ] {
        let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA2);
        cfg.overlap = overlap;
        let mut e = engine(cfg, &replicated);
        e.set_source_faults("diseasome#r0", dark);
        let planned = e.plan(&parse_query(&q.sparql).unwrap()).unwrap();
        let r = e.execute_planned(&planned).unwrap();
        out.push_str(&obs_views(title, &r, &e.flight_recording().unwrap()));
    }
    let mut cfg = PlanConfig::unaware(NetworkProfile::GAMMA1);
    cfg.cost_based = true;
    let e = engine(cfg, &lake);
    let r = e.execute_sparql(&q.sparql).unwrap();
    assert!(r.explain.contains("BindJoin"), "the cost-based plan binds: {}", r.explain);
    out.push_str(&obs_views("Q3 unaware Gamma1 bind join", &r, &e.flight_recording().unwrap()));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_solo.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); bless with BLESS_GOLDEN=1")
    });
    assert_eq!(out, want, "solo observability views diverge from {path:?}");
}

#[test]
fn explain_analyze_reports_the_stats() {
    let q = &workload::by_id("Q1").unwrap();
    let r = traced(q, PlanConfig::aware(NetworkProfile::GAMMA1));
    let text = r.explain_analyze().unwrap();
    assert!(text.contains(&format!("answers={}", r.stats.answers)), "{text}");
    assert!(text.contains(&format!("messages={}", r.stats.messages)), "{text}");
    assert!(
        text.contains(&format!("rows transferred={}", r.stats.rows_transferred)),
        "{text}"
    );
    // One annotated line per plan node, plus a link sub-line per source.
    let obs = r.obs.as_ref().unwrap();
    for node in &obs.nodes {
        assert!(text.contains(&node.label), "missing node {:?} in:\n{text}", node.label);
    }
    for source in obs.sources.keys() {
        assert!(text.contains(&format!("link[{source}]")), "{text}");
    }
}

#[test]
fn chrome_trace_has_a_lane_per_source() {
    let q = &workload::by_id("Q4").unwrap();
    let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
    cfg.overlap = true;
    let r = traced(q, cfg);
    let json = r.chrome_trace().unwrap();
    assert!(json.starts_with("{\"traceEvents\":[\n"), "header: {json:.40}");
    assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"), "footer");
    // Cheap structural sanity: every line inside the array is an object,
    // and braces/brackets balance.
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "unbalanced braces");
    assert_eq!(json.matches('[').count(), json.matches(']').count(), "unbalanced brackets");
    let obs = r.obs.as_ref().unwrap();
    assert!(!obs.sources.is_empty());
    for source in obs.sources.keys() {
        let lane = format!("\"name\":\"src:{source}\"");
        assert!(json.contains(&lane), "missing thread_name for {source}");
        // …and that lane carries at least one complete event.
        assert!(
            obs.spans
                .iter()
                .any(|s| s.kind == SpanKind::Transfer && s.lane == format!("src:{source}")),
            "no transfer span for {source}"
        );
    }
    // Complete events and instants both made it out.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"i\""));
}
