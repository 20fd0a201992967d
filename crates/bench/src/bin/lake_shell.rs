//! An interactive SPARQL shell over the synthetic data lake.
//!
//! ```text
//! lake_shell [--scale S] [--seed N] [--mode unaware|aware|h2]
//!            [--network NoDelay|Gamma1|Gamma2|Gamma3]
//!            [--format table|json|csv] [--query SPARQL]
//!            [--analyze] [--trace-out FILE.json]
//!            [--replicas N] [--outage ENDPOINT]
//!            [--cost-based] [--recorder]
//!            [--slow-log FILE.json] [--watchdog] [--prom-out FILE]
//!            [--serve-trace FILE.json] [--serve-html FILE.html]
//! ```
//!
//! A serve mode (`--serve`) replaces the REPL
//! with a seeded concurrent load: `--clients N` sessions draw from a
//! weighted `--mix` of the paper's Q1–Q5 templates, arrive by an
//! exponential process (`--arrival MS`), queue behind `--in-flight N`
//! admission slots and optional `--deadline MS` budgets, and share one
//! simulated clock and link map — so concurrent queries contend for the
//! same wrapper links. Prints a per-job outcome table, the server
//! metrics rollup, and the summary report JSON (throughput in simulated
//! time, p50/p95/p99 latency, Jain fairness).
//!
//! `--analyze` turns tracing on and prints an `EXPLAIN ANALYZE` view of
//! every executed query (the plan tree annotated with actual rows, times
//! and per-link fault counts). `--trace-out FILE.json` records a Chrome
//! trace-event file of the last executed query — load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The observability flags ride on the fleet flight recorder
//! (`--recorder`): `--slow-log FILE` writes
//! the stable-JSON slow-query log of the run (queries past a latency or
//! q-error threshold, with plan, per-operator and per-link actuals — it
//! implies tracing), `--watchdog` prints the windowed SLO rollup and any
//! typed anomalies (misestimates, degraded links, admission pressure),
//! `--prom-out FILE` writes the serve metrics registry as Prometheus
//! text, and `--serve-trace` / `--serve-html` export the fleet timeline
//! (one lane per client and per link) as a Chrome trace / an HTML page.
//! All five summarize a `--serve` run: passing any of them without
//! `--serve` is rejected with exit code 2 instead of silently
//! producing nothing.
//!
//! Repeat queries replay byte-identical plans from the normalized plan
//! cache; a serve run (and `.caches`) prints its counters next to the lift
//! cache's.
//!
//! `--replicas N` replicates every source N ways (endpoints `id#r0` …),
//! and `--outage ENDPOINT` (repeatable) puts an endless outage on one
//! endpoint — together with `.explain on` they demonstrate replica
//! failover and health-aware routing: the first query burns its retry
//! budget on the dark replica and fails over; re-running it shows the
//! planner routing to the healthy replica up front.
//!
//! With `--query`, runs that one query and exits 1 when it fails (a parse
//! error, a query no source can answer), as `--serve` does on an error. A
//! flag value that does not parse, or `--replicas 0`, exits 2.
//!
//! Without `--query`, reads queries from stdin: each query is terminated
//! by a blank line (or EOF). Meta-commands: `.explain on|off`,
//! `.mode <m>`, `.network <n>`, `.workload <id>` (run a predefined
//! workload query), `.quit`.

use fedlake_core::{FaultPlan, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_serve::{Mix, ServeSpec};
use std::io::{BufRead, Write};
use std::num::NonZeroU32;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Table,
    Json,
    Csv,
}

struct Shell {
    engine: FederatedEngine,
    format: Format,
    explain: bool,
    analyze: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_mode(s: &str) -> Option<PlanMode> {
    match s.to_ascii_lowercase().as_str() {
        "unaware" => Some(PlanMode::Unaware),
        "aware" => Some(PlanMode::AWARE),
        "h2" => Some(PlanMode::AWARE_H2),
        _ => None,
    }
}

fn parse_network(s: &str) -> Option<NetworkProfile> {
    NetworkProfile::ALL
        .into_iter()
        .find(|n| n.name.eq_ignore_ascii_case(s))
}

impl Shell {
    /// Runs one query and prints its answers; false when it failed.
    fn run_query(&self, sparql: &str) -> bool {
        match self.engine.execute_sparql(sparql) {
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
            Ok(result) => {
                if self.explain {
                    println!("{}", result.explain);
                }
                if self.analyze {
                    match result.explain_analyze() {
                        Some(report) => println!("{report}"),
                        None => eprintln!("--analyze: no trace recorded"),
                    }
                }
                if let Some(path) = &self.trace_out {
                    match result.chrome_trace() {
                        Some(json) => match std::fs::write(path, json) {
                            Ok(()) => eprintln!("trace written to {}", path.display()),
                            Err(e) => eprintln!("--trace-out {}: {e}", path.display()),
                        },
                        None => eprintln!("--trace-out: no trace recorded"),
                    }
                }
                match self.format {
                    Format::Json => println!("{}", result.to_json()),
                    Format::Csv => print!("{}", result.to_csv()),
                    Format::Table => {
                        for row in &result.rows {
                            println!("{row}");
                        }
                    }
                }
                println!(
                    "-- {} answer(s) in {:.3} ms simulated ({} / {}, {} messages)",
                    result.rows.len(),
                    result.stats.execution_time.as_secs_f64() * 1000.0,
                    result.stats.plan_label,
                    result.stats.network,
                    result.stats.messages
                );
                if result.stats.degraded || result.stats.retries > 0 {
                    println!(
                        "-- faults: {} retries, degraded: {}, per-source failures: {:?}",
                        result.stats.retries,
                        result.stats.degraded,
                        result.stats.source_failures
                    );
                }
                true
            }
        }
    }

    fn meta(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(".quit") | Some(".exit") => return false,
            Some(".explain") => match parts.next() {
                Some("on") => self.explain = true,
                Some("off") => self.explain = false,
                _ => eprintln!("usage: .explain on|off"),
            },
            Some(".mode") => match parts.next().and_then(parse_mode) {
                Some(mode) => {
                    let mut cfg = *self.engine.config();
                    cfg.mode = mode;
                    self.engine.set_config(cfg);
                    println!("mode: {}", mode.label());
                }
                None => eprintln!("usage: .mode unaware|aware|h2"),
            },
            Some(".network") => match parts.next().and_then(parse_network) {
                Some(net) => {
                    let mut cfg = *self.engine.config();
                    cfg.network = net;
                    self.engine.set_config(cfg);
                    println!("network: {net}");
                }
                None => eprintln!("usage: .network NoDelay|Gamma1|Gamma2|Gamma3"),
            },
            Some(".workload") => match parts.next().and_then(workload::by_id) {
                Some(q) => {
                    println!("-- {}: {}", q.id, q.description);
                    println!("{}", q.sparql);
                    self.run_query(&q.sparql);
                }
                None => {
                    eprintln!("available: QM, Q1, Q2, Q3, Q4, Q5");
                }
            },
            Some(".caches") => print_caches(&self.engine),
            _ => eprintln!("meta-commands: .explain, .mode, .network, .workload, .caches, .quit"),
        }
        true
    }
}

/// The engine's two caches, one line each, then its delay tapes and its
/// verdict memo.
fn print_caches(engine: &FederatedEngine) {
    let stats = engine.cache_stats();
    println!("== caches ==");
    for (name, s) in [("plan", stats.plan), ("lift", stats.lift)] {
        println!(
            "{name:<8} lookups {} hits {} misses {} stale {} evictions {}",
            s.lookups, s.hits, s.misses, s.stale, s.evictions
        );
    }
    println!("{:<8} tapes {} draws {}", "delays", stats.delays.tapes, stats.delays.draws);
    let v = stats.verdicts;
    println!("{:<8} keys {} verdicts {} publishes {}", "verdicts", v.keys, v.verdicts, v.publishes);
}

/// Observability outputs of one run (all optional).
#[derive(Default)]
struct ObsOut {
    slow_log: Option<std::path::PathBuf>,
    watchdog: bool,
    prom_out: Option<std::path::PathBuf>,
    serve_trace: Option<std::path::PathBuf>,
    serve_html: Option<std::path::PathBuf>,
}

impl ObsOut {
    fn wants_recorder(&self) -> bool {
        self.slow_log.is_some()
            || self.watchdog
            || self.serve_trace.is_some()
            || self.serve_html.is_some()
    }
}

/// Rejects observability flags that would silently no-op.
///
/// `--slow-log`, `--watchdog`, `--prom-out`, `--serve-trace` and
/// `--serve-html` all summarize a `--serve` run; in REPL / one-shot
/// mode they produce nothing, which historically degraded to a note on
/// stderr that was easy to miss. Make the mismatch a hard,
/// deterministic error instead so scripts fail fast.
fn validate_obs_flags(serve: bool, obs: &ObsOut) -> Result<(), String> {
    if serve {
        return Ok(());
    }
    let mut offenders = Vec::new();
    if obs.slow_log.is_some() {
        offenders.push("--slow-log");
    }
    if obs.watchdog {
        offenders.push("--watchdog");
    }
    if obs.prom_out.is_some() {
        offenders.push("--prom-out");
    }
    if obs.serve_trace.is_some() {
        offenders.push("--serve-trace");
    }
    if obs.serve_html.is_some() {
        offenders.push("--serve-html");
    }
    if offenders.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} only summarize(s) a --serve run and would silently no-op \
             here; add --serve",
            offenders.join(", ")
        ))
    }
}

/// Parses a flag's value. One that does not parse is a hard error (exit
/// code 2 naming the flag), never a silent fall-back to the default.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad {flag}: {value:?}");
        std::process::exit(2);
    })
}

fn write_file(what: &str, path: &std::path::Path, bytes: &str) {
    match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => eprintln!("{what} {}: {e}", path.display()),
    }
}

/// Runs the seeded concurrent load and prints the outcome table, the
/// server metrics rollup and the report JSON.
fn run_serve(engine: &FederatedEngine, spec: &ServeSpec, obs: &ObsOut) -> ExitCode {
    let r = match fedlake_serve::run(engine, spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "{:<8} {:<18} {:>12} {:>12} {:>8}  status",
        "client", "query", "arrival ms", "latency ms", "rows"
    );
    for out in &r.outcome.outcomes {
        let status = match &out.error {
            Some(e) => format!("error: {e}"),
            None if out.degraded => "degraded".to_string(),
            None => "ok".to_string(),
        };
        println!(
            "{:<8} {:<18} {:>12.3} {:>12.3} {:>8}  {status}",
            out.client,
            out.label,
            ms(out.arrival),
            ms(out.latency),
            out.rows.len()
        );
    }
    println!("\n== server rollup ==\n{}", r.outcome.metrics.render());
    println!("== report ==\n{}", r.report.to_json());
    print_caches(engine);
    if let Some(path) = &obs.prom_out {
        write_file("prometheus exposition", path, &r.outcome.metrics.prometheus());
    }
    if let Some(path) = &obs.slow_log {
        let records = r.slow_queries(&fedlake_core::SlowLogConfig::default());
        eprintln!("slow-query log: {} record(s)", records.len());
        write_file("slow-query log", path, &fedlake_core::slow_log_json(&records));
    }
    if obs.watchdog {
        match r.watchdog(&fedlake_core::WatchdogConfig::default()) {
            Some(report) => println!("== watchdog ==\n{}", report.render()),
            None => eprintln!("--watchdog: recorder was off"),
        }
    }
    if let Some(recording) = &r.outcome.recording {
        if let Some(path) = &obs.serve_trace {
            write_file("serve trace", path, &fedlake_core::serve_chrome_trace(recording));
        }
        if let Some(path) = &obs.serve_html {
            write_file("serve timeline", path, &fedlake_core::serve_timeline_html(recording));
        }
    } else if obs.serve_trace.is_some() || obs.serve_html.is_some() {
        eprintln!("--serve-trace/--serve-html: recorder was off");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut scale = 0.3;
    let mut seed = LakeConfig::default().seed;
    let mut mode = PlanMode::AWARE;
    let mut network = NetworkProfile::GAMMA1;
    let mut format = Format::Table;
    let mut one_shot: Option<String> = None;
    let mut analyze = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut replicas = NonZeroU32::MIN;
    let mut outages: Vec<String> = Vec::new();
    let mut cost_based = false;
    let mut recorder = false;
    let mut obs = ObsOut::default();
    let mut serve = false;
    let mut serve_spec = ServeSpec::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut next = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => scale = parsed("--scale", &next("--scale")),
            "--seed" => seed = parsed("--seed", &next("--seed")),
            "--mode" => {
                mode = parse_mode(&next("--mode")).unwrap_or_else(|| {
                    eprintln!("bad --mode");
                    std::process::exit(2);
                })
            }
            "--network" => {
                network = parse_network(&next("--network")).unwrap_or_else(|| {
                    eprintln!("bad --network");
                    std::process::exit(2);
                })
            }
            "--format" => {
                format = match next("--format").as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => {
                        eprintln!("bad --format: {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--query" => one_shot = Some(next("--query")),
            "--analyze" => analyze = true,
            "--trace-out" => trace_out = Some(next("--trace-out").into()),
            "--replicas" => replicas = parsed("--replicas", &next("--replicas")),
            "--outage" => outages.push(next("--outage")),
            "--cost-based" => cost_based = true,
            "--recorder" => recorder = true,
            "--slow-log" => obs.slow_log = Some(next("--slow-log").into()),
            "--watchdog" => obs.watchdog = true,
            "--prom-out" => obs.prom_out = Some(next("--prom-out").into()),
            "--serve-trace" => obs.serve_trace = Some(next("--serve-trace").into()),
            "--serve-html" => obs.serve_html = Some(next("--serve-html").into()),
            "--serve" => serve = true,
            "--clients" => serve_spec.clients = parsed("--clients", &next("--clients")),
            "--queries-per-client" => {
                serve_spec.queries_per_client =
                    parsed("--queries-per-client", &next("--queries-per-client"))
            }
            "--mix" => {
                serve_spec.mix = Mix::parse(&next("--mix")).unwrap_or_else(|e| {
                    eprintln!("bad --mix: {e}");
                    std::process::exit(2);
                })
            }
            "--arrival" => {
                let ms: f64 = parsed("--arrival", &next("--arrival"));
                serve_spec.mean_interarrival = Duration::from_secs_f64(ms / 1e3);
            }
            "--in-flight" => {
                serve_spec.max_in_flight = parsed("--in-flight", &next("--in-flight"))
            }
            "--deadline" => {
                let ms: f64 = parsed("--deadline", &next("--deadline"));
                serve_spec.deadline = Some(Duration::from_secs_f64(ms / 1e3));
            }
            "--help" | "-h" => {
                println!(
                    "lake_shell [--scale S] [--seed N] [--mode unaware|aware|h2] \
                     [--network NoDelay|Gamma1|Gamma2|Gamma3] [--format table|json|csv] \
                     [--query SPARQL] [--analyze] [--trace-out FILE.json] \
                     [--replicas N] [--outage ENDPOINT] [--cost-based] \
                     [--serve --clients N --queries-per-client N --mix SPEC \
                     --arrival MS --in-flight N --deadline MS]\n\n\
                     --analyze            print EXPLAIN ANALYZE (plan tree with actual rows,\n\
                     \x20                    times, messages and per-link fault counts)\n\
                     --trace-out FILE     write a Chrome trace-event JSON of the executed\n\
                     \x20                    query (chrome://tracing or ui.perfetto.dev)\n\
                     --replicas N         replicate every source N ways (endpoints id#r0 …)\n\
                     --outage ENDPOINT    endless outage on one endpoint (repeatable);\n\
                     \x20                    with --replicas, queries fail over and the\n\
                     \x20                    planner learns to route around it\n\
                     --cost-based         statistics-driven cost-based join ordering;\n\
                     \x20                    EXPLAIN ANALYZE then shows estimated vs. actual\n\
                     \x20                    rows per operator\n\
                     --serve              serve a seeded concurrent load instead of the REPL;\n\
                     \x20                    prints per-job outcomes, the server rollup, the\n\
                     \x20                    report JSON and the cache counters\n\
                     --recorder           fleet flight recorder: structured lifecycle events\n\
                     \x20                    behind every flag below\n\
                     --slow-log FILE      write the slow-query log of a --serve run as stable\n\
                     \x20                    JSON (implies --recorder and tracing)\n\
                     --watchdog           print windowed SLO rollups and typed anomalies\n\
                     \x20                    (misestimate, link-degraded, admission-pressure)\n\
                     --prom-out FILE      write the serve metrics registry as Prometheus text\n\
                     --serve-trace FILE   write the fleet timeline as Chrome trace-event JSON\n\
                     \x20                    (one lane per client and per link)\n\
                     --serve-html FILE    write the fleet timeline as a static HTML/SVG page\n\
                     --clients N          concurrent client sessions (default 8)\n\
                     --queries-per-client N  queries each client issues (default 2)\n\
                     --mix SPEC           weighted template mix, e.g. Q1=2,Q3,Q5 (default\n\
                     \x20                    Q1..Q5 at weight 1)\n\
                     --arrival MS         mean exponential inter-arrival gap (0 = batch at t=0)\n\
                     --in-flight N        admission bound (0 = unbounded, default 8)\n\
                     --deadline MS        per-query deadline relative to arrival"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Err(msg) = validate_obs_flags(serve, &obs) {
        eprintln!("error: {msg}");
        return ExitCode::from(2);
    }

    eprintln!("building the ten-dataset lake (scale {scale}) …");
    let mut lake = build_lake(&LakeConfig { scale, seed, ..Default::default() });
    if replicas.get() > 1 {
        let ids: Vec<String> = lake.sources().iter().map(|s| s.id().to_string()).collect();
        for id in ids {
            lake.set_replicas(id, replicas.get());
        }
        eprintln!("every source replicated {replicas} ways");
    }
    let mut cfg = PlanConfig::new(mode, network);
    cfg.tracing = analyze || trace_out.is_some();
    if recorder || obs.wants_recorder() {
        cfg.recorder = true;
        // The slow-query log's per-operator/per-link sections come from
        // per-session traces.
        if obs.slow_log.is_some() {
            cfg.tracing = true;
        }
        eprintln!("flight recorder: on");
    }
    if cost_based {
        cfg.cost_based = true;
        eprintln!("cost-based planning: statistics-driven join ordering");
    }
    let mut engine = FederatedEngine::new(lake, cfg);
    for endpoint in &outages {
        engine.set_source_faults(
            endpoint.clone(),
            FaultPlan {
                outage_after: Some(0),
                outage_len: u64::MAX,
                ..FaultPlan::NONE
            },
        );
        eprintln!("endless outage injected on {endpoint}");
    }
    let engine = engine;

    if serve {
        serve_spec.seed = seed;
        eprintln!(
            "serving {} client(s) x {} query(ies), mix {:?}, seed {seed}",
            serve_spec.clients,
            serve_spec.queries_per_client,
            serve_spec.mix.0.iter().map(|(id, w)| format!("{id}={w}")).collect::<Vec<_>>()
        );
        return run_serve(&engine, &serve_spec, &obs);
    }

    let mut shell = Shell { engine, format, explain: false, analyze, trace_out };

    if let Some(q) = one_shot {
        return if shell.run_query(&q) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    eprintln!(
        "enter SPARQL terminated by a blank line; .workload QM|Q1..Q5 runs the paper's \
         queries; .quit exits"
    );
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            eprint!("fedlake> ");
        } else {
            eprint!("     ...> ");
        }
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => {
                if !buffer.trim().is_empty() {
                    shell.run_query(&buffer);
                }
                break;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !shell.meta(trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() {
            if !buffer.trim().is_empty() {
                shell.run_query(&buffer);
                buffer.clear();
            }
            continue;
        }
        buffer.push_str(&line);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_flags_require_serve() {
        let mut obs = ObsOut::default();
        assert!(validate_obs_flags(false, &obs).is_ok());
        assert!(validate_obs_flags(true, &obs).is_ok());

        obs.watchdog = true;
        let err = validate_obs_flags(false, &obs).unwrap_err();
        assert!(err.contains("--watchdog"), "{err}");
        assert!(validate_obs_flags(true, &obs).is_ok());
    }

    #[test]
    fn obs_flag_errors_name_every_offender() {
        let obs = ObsOut {
            slow_log: Some("slow.json".into()),
            watchdog: true,
            prom_out: Some("metrics.prom".into()),
            serve_trace: Some("trace.json".into()),
            serve_html: Some("timeline.html".into()),
        };
        let err = validate_obs_flags(false, &obs).unwrap_err();
        for flag in
            ["--slow-log", "--watchdog", "--prom-out", "--serve-trace", "--serve-html"]
        {
            assert!(err.contains(flag), "missing {flag} in {err}");
        }
    }
}
