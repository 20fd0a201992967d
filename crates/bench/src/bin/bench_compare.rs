//! Compares the interned slot-row representation against the reference
//! term-row (`Row`: variable → term, by value) representation on the
//! operations the row currency dominates: symmetric-hash-join probing,
//! DISTINCT insertion, projection, and the end-to-end Q2 federated
//! execution.
//!
//! Emits `BENCH_rows.json` (in the current directory) with median ns/op
//! per case and the reference/interned speedup factor. Before measuring,
//! it asserts both representations produce identical answers on the
//! synthetic inputs and on Q2. Follow-up sections emit
//! `BENCH_overlap.json` (serialized vs overlapped schedule),
//! `BENCH_cost.json` (heuristic vs cost-based planning),
//! `BENCH_obs.json` (tracing overhead) and `BENCH_serve.json`
//! (concurrent serving: simulated throughput, p50/p95/p99 latency and
//! Jain fairness at 1/8/32 clients, asserted bit-identical across two
//! reruns with every served answer byte-equal to its solo execution).

use fedlake_bench::harness::{format_ns, Bench, Measurement};
use fedlake_core::operators::{
    DistinctOp, ExecCtx, ProjectOp, RowsOp, SymHashJoin,
};
use fedlake_core::reference::{
    drain_ref, DistinctRefOp, ProjectRefOp, RowsRefOp, SymHashJoinRef,
};
use fedlake_core::wrapper::drain;
use fedlake_core::{FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::{CostModel, NetworkProfile};
use fedlake_rdf::{SharedInterner, Term};
use fedlake_sparql::binding::{encode_row, Row, RowSchema, SlotRow, Var};
use std::sync::Arc;

const N_ROWS: usize = 2_000;
const N_KEYS: usize = 400;

struct Fixture {
    schema: Arc<RowSchema>,
    interner: SharedInterner,
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    left_slots: Vec<SlotRow>,
    right_slots: Vec<SlotRow>,
}

fn fixture() -> Fixture {
    let schema = Arc::new(RowSchema::new(
        ["j", "a", "b"].into_iter().map(Var::new),
    ));
    let interner = SharedInterner::new();
    let mk = |side: &str, i: usize, payload_var: &str| {
        Row::new()
            .with("j", Term::iri(format!("http://x/key{}", i % N_KEYS)))
            .with(payload_var, Term::iri(format!("http://x/{side}{i}")))
    };
    let left_rows: Vec<Row> = (0..N_ROWS).map(|i| mk("l", i, "a")).collect();
    let right_rows: Vec<Row> = (0..N_ROWS).map(|i| mk("r", i, "b")).collect();
    let enc = |rows: &[Row]| -> Vec<SlotRow> {
        let mut dict = interner.lock();
        rows.iter().map(|r| encode_row(r, &schema, &mut dict)).collect()
    };
    let left_slots = enc(&left_rows);
    let right_slots = enc(&right_rows);
    Fixture { schema, interner, left_rows, right_rows, left_slots, right_slots }
}

fn ctx(f: &Fixture) -> ExecCtx {
    ExecCtx::new(
        shared_virtual(),
        CostModel::default(),
        Arc::clone(&f.schema),
        f.interner.clone(),
    )
}

fn join_slots(f: &Fixture) -> usize {
    let mut c = ctx(f);
    let mut j = SymHashJoin::new(
        Box::new(RowsOp::new(f.left_slots.clone())),
        Box::new(RowsOp::new(f.right_slots.clone())),
        vec![f.schema.slot(&Var::new("j")).unwrap()],
    );
    std::hint::black_box(drain(&mut j, &mut c).unwrap()).len()
}

fn join_ref(f: &Fixture) -> usize {
    let mut c = ctx(f);
    let mut j = SymHashJoinRef::new(
        Box::new(RowsRefOp::new(f.left_rows.clone())),
        Box::new(RowsRefOp::new(f.right_rows.clone())),
        vec![Var::new("j")],
    );
    std::hint::black_box(drain_ref(&mut j, &mut c).unwrap()).len()
}

fn distinct_slots(f: &Fixture) -> usize {
    let mut c = ctx(f);
    let mut d = DistinctOp::new(Box::new(RowsOp::new(f.left_slots.clone())));
    std::hint::black_box(drain(&mut d, &mut c).unwrap()).len()
}

fn distinct_ref(f: &Fixture) -> usize {
    let mut c = ctx(f);
    let mut d = DistinctRefOp::new(Box::new(RowsRefOp::new(f.left_rows.clone())));
    std::hint::black_box(drain_ref(&mut d, &mut c).unwrap()).len()
}

fn project_slots(f: &Fixture) -> usize {
    let mut c = ctx(f);
    let keep = f.schema.slots_of(&[Var::new("j")]);
    let mut p = ProjectOp::new(Box::new(RowsOp::new(f.left_slots.clone())), keep);
    std::hint::black_box(drain(&mut p, &mut c).unwrap()).len()
}

fn project_ref(f: &Fixture) -> usize {
    let mut c = ctx(f);
    let mut p =
        ProjectRefOp::new(Box::new(RowsRefOp::new(f.left_rows.clone())), vec![Var::new("j")]);
    std::hint::black_box(drain_ref(&mut p, &mut c).unwrap()).len()
}

struct Case {
    name: &'static str,
    reference_ns: f64,
    interned_ns: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.interned_ns
    }
}

fn per_op(m: &Measurement, ops: usize) -> f64 {
    m.median_ns / ops as f64
}

fn main() {
    let f = fixture();

    // Representation equivalence on the synthetic inputs.
    assert_eq!(join_slots(&f), join_ref(&f), "join answers diverge");
    assert_eq!(distinct_slots(&f), distinct_ref(&f), "distinct answers diverge");
    assert_eq!(project_slots(&f), project_ref(&f), "project answers diverge");

    // End-to-end Q2: plan once, execute through both engines. Unaware mode
    // keeps the join in the engine (AWARE merges it into one SQL query, so
    // the row representation would barely matter).
    let q2 = workload::q2();
    let lake = build_lake_with(&LakeConfig { scale: 0.3, ..Default::default() }, q2.datasets);
    let engine = FederatedEngine::new(
        lake,
        PlanConfig::new(PlanMode::Unaware, NetworkProfile::NO_DELAY),
    );
    let planned = engine
        .plan(&fedlake_sparql::parser::parse_query(&q2.sparql).unwrap())
        .unwrap();
    {
        let a = engine.execute_planned(&planned).unwrap();
        let b = engine.execute_planned_reference(&planned).unwrap();
        let sorted = |rows: &[Row]| {
            let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&a.rows), sorted(&b.rows), "Q2 answers diverge");
    }

    let probes = 2 * N_ROWS; // both join inputs are probed once per row

    let mut b = Bench::new("rows_interned");
    b.bench("join_probe", || join_slots(&f));
    b.bench("distinct_insert", || distinct_slots(&f));
    b.bench("project", || project_slots(&f));
    b.bench("q2_end_to_end", || engine.execute_planned(&planned).unwrap());
    let interned = b.finish();

    let mut b = Bench::new("rows_reference");
    b.bench("join_probe", || join_ref(&f));
    b.bench("distinct_insert", || distinct_ref(&f));
    b.bench("project", || project_ref(&f));
    b.bench("q2_end_to_end", || engine.execute_planned_reference(&planned).unwrap());
    let reference = b.finish();

    let ops = [probes, N_ROWS, N_ROWS, 1];
    let cases: Vec<Case> = ["join_probe", "distinct_insert", "project", "q2_end_to_end"]
        .iter()
        .enumerate()
        .map(|(i, name)| Case {
            name,
            reference_ns: per_op(&reference[i], ops[i]),
            interned_ns: per_op(&interned[i], ops[i]),
        })
        .collect();

    println!("\n== speedup (reference BTreeMap rows / interned slot rows) ==");
    let mut json = String::from(
        "{\n  \"benchmark\": \"row_representation\",\n  \"units\": \"median ns per operation\",\n  \"cases\": [\n",
    );
    for (i, c) in cases.iter().enumerate() {
        println!(
            "{:<24} reference {:>12}  interned {:>12}  speedup {:>6.2}x",
            c.name,
            format_ns(c.reference_ns),
            format_ns(c.interned_ns),
            c.speedup()
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"reference_btreemap_ns\": {:.1}, \"interned_slots_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
            c.name,
            c.reference_ns,
            c.interned_ns,
            c.speedup(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_rows.json", &json).expect("write BENCH_rows.json");
    println!("\nwrote BENCH_rows.json");

    overlap_section();
    cost_section();
    obs_section();
    serve_section();
}

/// Heuristic vs cost-based planning: simulated `execution_time` and
/// intermediate-result traffic per workload query under the delayed
/// profiles. Both plans run to completion and their sorted answer sets
/// are asserted byte-identical before timings are reported; on the
/// cross-source join queries (Q3–Q5) under the slow profiles the
/// cost-based plan must be strictly faster. Emits `BENCH_cost.json`.
fn cost_section() {
    let lake_cfg = LakeConfig { scale: 0.2, ..Default::default() };
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let sorted = |rows: &[Row]| {
        let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        v.sort();
        v
    };

    println!("\n== cost-based planning (simulated ms, heuristic vs cost-based) ==");
    let mut json = String::from(
        "{\n  \"benchmark\": \"cost_based_planning\",\n  \"units\": \"simulated ms\",\n  \"cases\": [\n",
    );
    let mut first_case = true;
    let mut cost_wins = 0usize;
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = fedlake_sparql::parser::parse_query(&q.sparql).unwrap();
        for network in [
            NetworkProfile::GAMMA1,
            NetworkProfile::GAMMA2,
            NetworkProfile::GAMMA3,
        ] {
            let mut heur_cfg = PlanConfig::new(PlanMode::AWARE, network);
            heur_cfg.cost_based = false;
            let mut cost_cfg = heur_cfg;
            cost_cfg.cost_based = true;
            let heur_engine = FederatedEngine::new(lake.clone(), heur_cfg);
            let cost_engine = FederatedEngine::new(lake.clone(), cost_cfg);
            let heur_planned = heur_engine.plan(&ast).unwrap();
            let cost_planned = cost_engine.plan(&ast).unwrap();
            let heur = heur_engine.execute_planned(&heur_planned).unwrap();
            let cost = cost_engine.execute_planned(&cost_planned).unwrap();
            assert_eq!(
                sorted(&heur.rows),
                sorted(&cost.rows),
                "{}/{}: planners must agree on answers",
                q.id,
                network.name
            );
            let (ht, ct) = (ms(heur.stats.execution_time), ms(cost.stats.execution_time));
            if ct < ht && network.delay.mean_ms() >= 1.0 {
                cost_wins += 1;
            }
            let report = &cost_planned.report;
            println!(
                "{:<4} {:<8} {:<11} exec {:>9.3} -> {:>9.3}  rows {:>6} -> {:>6}  \
                 costed {:>2}  binds {}  speedup {:>5.2}x",
                q.id,
                network.name,
                report.strategy.label(),
                ht,
                ct,
                heur.stats.rows_transferred,
                cost.stats.rows_transferred,
                report.plans_costed,
                report.bind_joins,
                if ct > 0.0 { ht / ct } else { 1.0 }
            );
            if !first_case {
                json.push_str(",\n");
            }
            first_case = false;
            json.push_str(&format!(
                "    {{\"query\": \"{}\", \"network\": \"{}\", \"strategy\": \"{}\", \
                 \"heuristic_ms\": {:.6}, \"cost_ms\": {:.6}, \
                 \"heuristic_rows_transferred\": {}, \"cost_rows_transferred\": {}, \
                 \"plans_costed\": {}, \"bind_joins\": {}, \"speedup\": {:.3}}}",
                q.id,
                network.name,
                report.strategy.label(),
                ht,
                ct,
                heur.stats.rows_transferred,
                cost.stats.rows_transferred,
                report.plans_costed,
                report.bind_joins,
                if ct > 0.0 { ht / ct } else { 1.0 }
            ));
        }
    }
    assert!(
        cost_wins >= 2,
        "cost-based planning must beat the heuristics on at least two \
         delayed-network cells (got {cost_wins})"
    );
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_cost.json", &json).expect("write BENCH_cost.json");
    println!("\nwrote BENCH_cost.json");
}

/// Observability overhead. With tracing off the sink is a `None` and every
/// hook is a single branch, so the disabled path must cost nothing
/// measurable. The pre-instrumentation binary no longer exists to compare
/// against, so the honest in-binary check is two interleaved series of the
/// same disabled-sink execution per query: their floors (minimum samples)
/// must agree within 2% — any real per-hook cost would be deterministic
/// and shift the floor, while scheduler noise only inflates samples. The
/// enabled-recorder overhead is reported alongside as information.
///
/// A serve-scale section applies the same contract to the fleet flight
/// recorder: an 8-client serve run with the recorder off is A/B-floored
/// within 2%, the recorder-on run is informational, and before timing,
/// the recorder-on and recorder-off runs are asserted byte-identical in
/// answers, report JSON and metrics — the passivity proof at fleet scale.
/// Emits `BENCH_obs.json`.
fn obs_section() {
    const MAX_DELTA: f64 = 0.02;
    let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };

    let mut json = String::from(
        "{\n  \"benchmark\": \"tracing_overhead\",\n  \"units\": \"floor ns per end-to-end execution\",\n  \"max_disabled_ab_delta\": 0.02,\n  \"cases\": [\n",
    );
    let mut first = true;
    println!("\n== tracing overhead (disabled A/B must agree within 2%; enabled is informational) ==");
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = fedlake_sparql::parser::parse_query(&q.sparql).unwrap();
        let off_cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY);
        let mut on_cfg = off_cfg;
        on_cfg.tracing = true;
        let off_engine = FederatedEngine::new(lake.clone(), off_cfg);
        let planned = off_engine.plan(&ast).unwrap();
        let on_engine = FederatedEngine::new(lake.clone(), on_cfg);

        // The 2% bound needs samples interleaved round-robin (A, B,
        // enabled, A, B, …): sequential series pick up clock-frequency and
        // cache drift that dwarfs the bound, while interleaving exposes
        // both disabled series to the same drift. The harness measures one
        // case at a time, so this section samples by hand.
        let sample = |f: &mut dyn FnMut(), iters: u64| -> f64 {
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        };
        let mut run_off = || std::mem::drop(off_engine.execute_planned(&planned).unwrap());
        let mut run_on = || std::mem::drop(on_engine.execute_planned(&planned).unwrap());
        let once = sample(&mut run_off, 1).max(1.0);
        let iters = ((50.0 * 1e6 / once) as u64).clamp(1, 100_000);
        sample(&mut run_on, iters.min(20)); // warm both paths
        // The two disabled series strictly alternate with nothing else in
        // between: both are the same code, so any drift (frequency,
        // allocator, scheduler) lands on both symmetrically. Each series
        // is summarized by its *floor* (minimum sample): CPU contention
        // only ever inflates a sample, so the floor tracks the uncontended
        // cost and a real per-hook cost would still shift it. A round of
        // sustained contention can nonetheless spoil a whole attempt, so
        // the measurement retries (fresh sample sets) before declaring a
        // divergence real. The enabled series is measured afterwards —
        // interleaving it would tax whichever series runs next with the
        // allocator state its recording leaves behind.
        let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let mut result = None;
        for attempt in 1..=5 {
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            for round in 0..51 {
                if round % 2 == 0 {
                    sa.push(sample(&mut run_off, iters));
                    sb.push(sample(&mut run_off, iters));
                } else {
                    sb.push(sample(&mut run_off, iters));
                    sa.push(sample(&mut run_off, iters));
                }
            }
            let (a, bb) = (floor(&sa), floor(&sb));
            let delta = (a - bb).abs() / a.min(bb);
            if delta < MAX_DELTA {
                result = Some((a, bb, delta));
                break;
            }
            eprintln!(
                "{}: attempt {attempt}: disabled-sink floors diverge by {:.2}% ({} vs {}), resampling",
                q.id,
                delta * 100.0,
                format_ns(a),
                format_ns(bb)
            );
        }
        let (a, bb, delta) = result.unwrap_or_else(|| {
            panic!(
                "{}: disabled-sink A/B floors still diverge by more than {:.0}% after 5 attempts",
                q.id,
                MAX_DELTA * 100.0
            )
        });
        let mut se = Vec::new();
        for _ in 0..9 {
            se.push(sample(&mut run_on, iters));
        }
        let on = floor(&se);
        println!(
            "{:<4} disabled {:>12} / {:>12} (delta {:>5.2}%)  enabled {:>12} ({:+.1}%)",
            q.id,
            format_ns(a),
            format_ns(bb),
            delta * 100.0,
            format_ns(on),
            (on / a.min(bb) - 1.0) * 100.0
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"disabled_a_ns\": {:.1}, \"disabled_b_ns\": {:.1}, \
             \"disabled_ab_delta\": {:.5}, \"enabled_ns\": {:.1}, \"enabled_overhead\": {:.5}}}",
            q.id,
            a,
            bb,
            delta,
            on,
            on / a.min(bb) - 1.0
        ));
    }
    json.push_str("\n  ],\n");
    json.push_str(&serve_obs_section());
    json.push('}');
    json.push('\n');
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("\nwrote BENCH_obs.json");
}

/// The serve-scale half of the observability contract: recorder
/// passivity (byte-identity on vs off) asserted first, then the
/// disabled-path floor A/B within 2% and the recorder-on floor as
/// information. Returns the `"serve": {…}` JSON fragment of
/// `BENCH_obs.json`.
fn serve_obs_section() -> String {
    use fedlake_serve::{run, sorted_csv, ServeSpec};
    use std::time::Duration;
    const MAX_DELTA: f64 = 0.02;

    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, &ServeSpec::default().mix.datasets());
    let spec = ServeSpec {
        clients: 8,
        queries_per_client: 2,
        seed: 7,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 8,
        ..Default::default()
    };
    let config = |recorder: bool| {
        let mut c = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
        c.seed = 1;
        c.recorder = recorder;
        c
    };

    // Passivity: the recorder must change nothing observable.
    let off = run(&FederatedEngine::new(lake.clone(), config(false)), &spec).expect("serve off");
    let on = run(&FederatedEngine::new(lake.clone(), config(true)), &spec).expect("serve on");
    assert_eq!(
        off.report.to_json(),
        on.report.to_json(),
        "recorder on/off must produce byte-identical serve reports"
    );
    assert_eq!(
        off.outcome.metrics.render(),
        on.outcome.metrics.render(),
        "recorder on/off must produce byte-identical serve metrics"
    );
    for (x, y) in off.outcome.outcomes.iter().zip(&on.outcome.outcomes) {
        assert_eq!(
            sorted_csv(&x.vars, &x.rows),
            sorted_csv(&y.vars, &y.rows),
            "{}: recorder on/off answers diverge",
            x.label
        );
    }
    assert!(off.outcome.recording.is_none() && on.outcome.recording.is_some());
    let events = on.outcome.recording.as_ref().map_or(0, |r| r.events.len());

    // Same floor-A/B methodology as the per-query section, over the whole
    // serve run (jobs are prebuilt once so only `serve` itself is timed).
    let off_engine = FederatedEngine::new(lake.clone(), config(false));
    let on_engine = FederatedEngine::new(lake.clone(), config(true));
    let (jobs_off, _) = fedlake_serve::build_jobs(&off_engine, &spec).expect("jobs");
    let serve_cfg = spec.serve_config();
    let sample = |engine: &FederatedEngine, iters: u64| -> f64 {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(engine.serve(&jobs_off, &serve_cfg).expect("serve"));
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let once = sample(&off_engine, 1).max(1.0);
    let iters = ((50.0 * 1e6 / once) as u64).clamp(1, 1_000);
    sample(&on_engine, iters.min(5)); // warm both paths
    let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let mut result = None;
    for attempt in 1..=5 {
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        for round in 0..21 {
            if round % 2 == 0 {
                sa.push(sample(&off_engine, iters));
                sb.push(sample(&off_engine, iters));
            } else {
                sb.push(sample(&off_engine, iters));
                sa.push(sample(&off_engine, iters));
            }
        }
        let (a, bb) = (floor(&sa), floor(&sb));
        let delta = (a - bb).abs() / a.min(bb);
        if delta < MAX_DELTA {
            result = Some((a, bb, delta));
            break;
        }
        eprintln!(
            "serve: attempt {attempt}: disabled-recorder floors diverge by {:.2}% ({} vs {}), resampling",
            delta * 100.0,
            format_ns(a),
            format_ns(bb)
        );
    }
    let (a, bb, delta) = result.unwrap_or_else(|| {
        panic!(
            "serve: disabled-recorder A/B floors still diverge by more than {:.0}% after 5 attempts",
            MAX_DELTA * 100.0
        )
    });
    let mut se = Vec::new();
    for _ in 0..9 {
        se.push(sample(&on_engine, iters));
    }
    let on_ns = floor(&se);
    println!(
        "serve disabled {:>12} / {:>12} (delta {:>5.2}%)  recorder {:>12} ({:+.1}%)  {events} events",
        format_ns(a),
        format_ns(bb),
        delta * 100.0,
        format_ns(on_ns),
        (on_ns / a.min(bb) - 1.0) * 100.0
    );
    format!(
        "  \"serve\": {{\"clients\": {}, \"jobs\": {}, \"recorded_events\": {events}, \
         \"disabled_a_ns\": {:.1}, \"disabled_b_ns\": {:.1}, \"disabled_ab_delta\": {:.5}, \
         \"recorder_ns\": {:.1}, \"recorder_overhead\": {:.5}}}\n",
        spec.clients,
        spec.clients * spec.queries_per_client,
        a,
        bb,
        delta,
        on_ns,
        on_ns / a.min(bb) - 1.0
    )
}

/// Serialized vs overlapped schedule: simulated `execution_time` /
/// `first_answer` per workload query under every network profile. The
/// simulated clock is deterministic, so each cell is a single run, and the
/// answer sets are asserted byte-identical before timings are reported.
/// Emits `BENCH_overlap.json`.
fn overlap_section() {
    let lake_cfg = LakeConfig { scale: 0.2, ..Default::default() };
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let sorted = |rows: &[Row]| {
        let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        v.sort();
        v
    };

    println!("\n== overlapped source I/O (simulated ms, serialized vs overlapped) ==");
    let mut json = String::from(
        "{\n  \"benchmark\": \"overlapped_source_io\",\n  \"units\": \"simulated ms\",\n  \"cases\": [\n",
    );
    let mut first_case = true;
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = fedlake_sparql::parser::parse_query(&q.sparql).unwrap();
        for network in NetworkProfile::ALL {
            let ser_cfg = PlanConfig::new(PlanMode::Unaware, network);
            let mut ovl_cfg = ser_cfg;
            ovl_cfg.overlap = true;
            let ser_engine = FederatedEngine::new(lake.clone(), ser_cfg);
            let planned = ser_engine.plan(&ast).unwrap();
            let ser = ser_engine.execute_planned(&planned).unwrap();
            let ovl = FederatedEngine::new(lake.clone(), ovl_cfg)
                .execute_planned(&planned)
                .unwrap();
            assert_eq!(
                sorted(&ser.rows),
                sorted(&ovl.rows),
                "{}/{}: schedules must agree on answers",
                q.id,
                network.name
            );
            let services = planned.plan.service_count();
            if planned.plan.independent_service_count() > 1 && network.delay.mean_ms() > 0.0 {
                assert!(
                    ovl.stats.execution_time < ser.stats.execution_time,
                    "{}/{}: {services} services must overlap",
                    q.id,
                    network.name
                );
            }
            let (st, ot) = (ms(ser.stats.execution_time), ms(ovl.stats.execution_time));
            let (sf, of) = (
                ser.stats.first_answer.map(ms).unwrap_or(0.0),
                ovl.stats.first_answer.map(ms).unwrap_or(0.0),
            );
            println!(
                "{:<4} {:<8} services {:>2}  exec {:>9.3} -> {:>9.3}  first {:>9.3} -> {:>9.3}  speedup {:>5.2}x",
                q.id, network.name, services, st, ot, sf, of,
                if ot > 0.0 { st / ot } else { 1.0 }
            );
            if !first_case {
                json.push_str(",\n");
            }
            first_case = false;
            json.push_str(&format!(
                "    {{\"query\": \"{}\", \"network\": \"{}\", \"services\": {}, \
                 \"serialized_ms\": {:.6}, \"overlapped_ms\": {:.6}, \
                 \"serialized_first_ms\": {:.6}, \"overlapped_first_ms\": {:.6}, \
                 \"speedup\": {:.3}}}",
                q.id,
                network.name,
                services,
                st,
                ot,
                sf,
                of,
                if ot > 0.0 { st / ot } else { 1.0 }
            ));
        }
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    println!("\nwrote BENCH_overlap.json");
}

/// Concurrent serving: the default Q1–Q5 mix offered by 1, 8 and 32
/// seeded clients against one engine on one shared clock and link map.
/// Everything is simulated time, so each cell is one run; determinism is
/// enforced by re-running each client count and asserting the outcomes
/// are bit-identical, and correctness by byte-comparing every served
/// answer set against a solo execution of the same instantiated query.
/// Emits `BENCH_serve.json`.
fn serve_section() {
    use fedlake_serve::{run, solo_golden, sorted_csv, ServeSpec};
    use std::time::Duration;

    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let config = || {
        let mut c = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
        c.seed = 1;
        c
    };
    let lake = build_lake_with(&lake_cfg, &ServeSpec::default().mix.datasets());

    println!("\n== concurrent serving (simulated time, seeded workload mix) ==");
    let mut json = String::from(
        "{\n  \"benchmark\": \"serve\",\n  \"units\": \"simulated ns\",\n  \"reports\": [\n",
    );
    for (i, clients) in [1usize, 8, 32].into_iter().enumerate() {
        let spec = ServeSpec {
            clients,
            queries_per_client: 2,
            seed: 7,
            mean_interarrival: Duration::from_micros(500),
            max_in_flight: 8,
            ..Default::default()
        };
        let a = run(&FederatedEngine::new(lake.clone(), config()), &spec)
            .expect("serve run");
        let b = run(&FederatedEngine::new(lake.clone(), config()), &spec)
            .expect("serve rerun");
        assert_eq!(
            a.report, b.report,
            "{clients} clients: serve reruns must be bit-identical"
        );
        assert_eq!(a.outcome.metrics.render(), b.outcome.metrics.render());
        for ((inst, x), y) in a.instances.iter().zip(&a.outcome.outcomes).zip(&b.outcome.outcomes)
        {
            let served = sorted_csv(&x.vars, &x.rows);
            assert_eq!(
                served,
                sorted_csv(&y.vars, &y.rows),
                "{}: answers must be byte-identical across reruns",
                x.label
            );
            let golden = solo_golden(&lake, config(), &inst.sparql).expect("solo golden");
            assert_eq!(
                served,
                sorted_csv(&golden.vars, &golden.rows),
                "{}: served answers must byte-match the solo execution",
                x.label
            );
        }
        let r = &a.report;
        println!(
            "clients {:>2}  jobs {:>3}  qps {:>10.3}  p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms  jain {:.3}",
            r.clients,
            r.jobs,
            r.qps_sim,
            r.p50_ns as f64 / 1e6,
            r.p95_ns as f64 / 1e6,
            r.p99_ns as f64 / 1e6,
            r.jain
        );
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!("    {}", r.to_json()));
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}

