//! `fedbench`: the repo's benchmark. One process, one thread, measuring
//! from outside by timing calls into the engine's public functions, on two
//! clocks: host wall-clock and the engine's simulated time. README.md has
//! the workloads, every metric's definition, and how to run it.

mod alloc;
mod api;
mod compare;
mod json;
mod layers;
mod reference;
mod spans;
mod stats;
mod workloads;

use compare::Contract;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Params, Sizing, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: fedbench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
       fedbench trace   [--workload NAME] [--seed N] [--quick]        (= run --trace 1)
       fedbench compare BASE.json NEW.json

run      measures the end-to-end metrics (--trace 0), the per-layer metrics
         (--trace 1), or both (no --trace); all four workloads unless one is
         named. The last line printed for a workload is its JSON result.
--quick  smoke mode: scale 0.05, tiny laps, 1 second.
--out    also writes every result to FILE, for `compare`.
compare  applies BENCHMARK.json's bounds; exits 1 on any breach.";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// `Some(false)`: end to end only; `Some(true)`: traced only; `None`: both.
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String], trace: Option<bool>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: None,
        trace,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.chars().take(12).collect(),
    }
}

/// One workload's result in the contract's shape.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn to_json(&self, contract: &Contract) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                // JSON has no NaN or infinity; neither is a measurement.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", contract.unit(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A failed answer check is reported in the result (`correct`, `failed`),
/// not by the exit code.
fn run(args: Args) -> Result<ExitCode, api::Error> {
    let contract = Contract::embedded();
    let sizing = if args.quick { Sizing::QUICK } else { Sizing::FULL };
    let seconds = args.seconds.unwrap_or(if args.quick { 1.0 } else { contract.run_seconds });
    let params = Params { seed: args.seed, seconds, sizing };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let meta = format!(
        "seed={} scale={} seconds={} nproc={} commit={}",
        args.seed,
        sizing.scale,
        seconds,
        nproc,
        commit()
    );
    let mut results: BTreeMap<&'static str, String> = BTreeMap::new();
    for workload in args.workloads {
        println!("== fedbench {}  {meta}", workload.name());
        let mut outcome = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
        if args.trace != Some(true) {
            let e2e = workloads::run(workload, &params)?;
            println!(
                "end to end: {} laps, {} ops attempted, {} failed, {} µs-samples",
                e2e.laps,
                e2e.attempted,
                e2e.failures.count,
                e2e.op_us.len()
            );
            for failure in &e2e.failures.named {
                println!("  FAILED {failure}");
            }
            for (name, value) in e2e.raw() {
                println!("  ({name:<38} {value:>16.4})");
            }
            outcome.attempted += e2e.attempted;
            outcome.failed += e2e.failures.count;
            outcome.metrics.extend(e2e.metrics());
        }
        if args.trace != Some(false) {
            let traced = layers::run(workload, &params)?;
            println!(
                "traced: {} ops attempted, {} failed, {} spans in {}",
                traced.attempted,
                traced.failures.count,
                traced.spans,
                traced.span_file.display()
            );
            for failure in &traced.failures.named {
                println!("  FAILED {failure}");
            }
            outcome.attempted += traced.attempted;
            outcome.failed += traced.failures.count;
            outcome.metrics.extend(traced.metrics);
        }
        for (name, value) in &outcome.metrics {
            println!("  {name:<40} {value:>16.4} {}", contract.unit(name));
        }
        let line = outcome.to_json(&contract);
        println!("{line}");
        results.insert(workload.name(), line);
    }
    if let Some(path) = args.out {
        let results: Vec<String> =
            results.iter().map(|(name, line)| format!("\"{name}\": {line}")).collect();
        let doc = format!(
            "{{\"meta\": \"{}\",\n\"results\": {{\n{}\n}}}}\n",
            json::escape(&meta),
            results.join(",\n")
        );
        std::fs::write(&path, doc)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(base: &str, new: &str) -> Result<ExitCode, api::Error> {
    let read = |path: &str| -> Result<json::Value, api::Error> {
        Ok(json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?)
    };
    let (report, ok) = compare::compare(&Contract::embedded(), &read(base)?, &read(new)?);
    print!("{report}");
    println!("{}", if ok { "compare: within bounds" } else { "compare: BREACH" });
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    // Hermetic: no FEDLAKE_* switch may reach a `PlanConfig` default. Nothing
    // else runs yet, so the environment can be edited safely.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FEDLAKE_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_args(rest, None).map(run),
        Some((cmd, rest)) if cmd == "trace" => parse_args(rest, Some(true)).map(run),
        Some((cmd, [base, new])) if cmd == "compare" => Ok(compare_files(base, new)),
        _ => Err("expected run, trace or compare".to_string()),
    };
    match done {
        Err(usage) => {
            eprintln!("fedbench: {usage}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Err(e)) => {
            eprintln!("fedbench: {e}");
            ExitCode::from(2)
        }
        Ok(Ok(code)) => code,
    }
}
