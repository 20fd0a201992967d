//! The experiment harness binary: regenerates every table and figure of
//! the paper's evaluation against the synthetic lake.
//!
//! ```text
//! experiments [--figure1] [--figure2] [--table1] … [--all]
//!             [--scale S] [--seed N] [--out DIR]
//! ```
//!
//! One flag per study; `--help` lists them all. Without selection flags,
//! `--all` is assumed. With `--out DIR`, CSV artifacts are written there.

use fedlake_bench::experiments::{
    ablation, batching_study, decomposition_study, figure1, figure2, h2_study,
    join_strategy_study, normalization_study, q2_pushdown, rdb_variants, table1,
    ExperimentReport,
};
use fedlake_bench::ExperimentSetup;
use fedlake_datagen::LakeConfig;
use std::path::PathBuf;
use std::process::ExitCode;

/// A study's selector (its flag without the leading `--`) and the study.
type Experiment = (&'static str, fn(&ExperimentSetup) -> ExperimentReport);

/// Every study, in the order `--all` runs them.
const EXPERIMENTS: [Experiment; 11] = [
    ("figure1", figure1),
    ("figure2", figure2),
    ("table1", table1),
    ("q2-pushdown", q2_pushdown),
    ("h2-study", h2_study),
    ("ablation", ablation),
    ("decomposition-study", decomposition_study),
    ("rdb-variants", rdb_variants),
    ("normalization-study", normalization_study),
    ("batching-study", batching_study),
    ("join-strategy-study", join_strategy_study),
];

fn usage() -> String {
    let flags: Vec<String> = EXPERIMENTS.iter().map(|(name, _)| format!("--{name}")).collect();
    format!(
        "usage: experiments [{}|--all] [--scale S] [--seed N] [--out DIR]\n\
         Without selection flags, --all is assumed.",
        flags.join("|")
    )
}

struct Args {
    which: Vec<&'static Experiment>,
    scale: f64,
    seed: u64,
    out: Option<PathBuf>,
}

/// The parsed arguments, or `None` when `--help` asked for the usage.
fn parse_args() -> Result<Option<Args>, String> {
    let mut which = Vec::new();
    let mut scale = 1.0;
    let mut seed = LakeConfig::default().seed;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--all" => which.extend(&EXPERIMENTS),
            "--scale" => {
                scale = argv
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(argv.next().ok_or("--out needs a value")?));
            }
            "--help" | "-h" => return Ok(None),
            other => {
                let selected = other
                    .strip_prefix("--")
                    .and_then(|flag| EXPERIMENTS.iter().find(|(name, _)| *name == flag));
                which.push(selected.ok_or_else(|| format!("unknown argument {other:?}"))?);
            }
        }
    }
    if which.is_empty() {
        which.extend(&EXPERIMENTS);
    }
    Ok(Some(Args { which, scale, seed, out }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let setup = ExperimentSetup {
        lake: LakeConfig { scale: args.scale, seed: args.seed, ..Default::default() },
        run_seed: 7,
    };
    println!(
        "FedLake experiment harness — scale {}, generator seed {:#x}\n",
        args.scale, args.seed
    );
    for (_, study) in &args.which {
        let report = study(&setup);
        println!("{}", report.text);
        if let Some(dir) = &args.out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            for (name, content) in &report.csv {
                let path = dir.join(name);
                if let Err(e) = std::fs::write(&path, content) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
        }
    }
    ExitCode::SUCCESS
}
