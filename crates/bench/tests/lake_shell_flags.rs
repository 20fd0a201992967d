//! `lake_shell` exit codes: a flag value that does not parse is a hard
//! error (exit code 2, message naming the flag), never a silent fall-back
//! to the default, and a one-shot `--query` that fails exits 1.

use std::process::{Command, Output};

/// A query the lake answers.
const ANSWERED: &str = "SELECT ?c ?n WHERE { \
    ?c a <http://lake.example/vocab/chebi/Compound> . \
    ?c <http://lake.example/vocab/chebi/name> ?n } LIMIT 1";

fn lake_shell(args: &[&str], query: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lake_shell"))
        .args(args)
        .args(["--query", query])
        .output()
        .expect("lake_shell runs")
}

#[test]
fn unparsable_flag_values_exit_2_naming_the_flag() {
    for (flag, bad) in [
        ("--scale", "x"),
        ("--seed", "x"),
        ("--format", "xml"),
        ("--replicas", "0"),
    ] {
        // A tiny valid scale first, so a shell that ignores the bad value
        // still answers quickly (a later --scale overrides it).
        let out = lake_shell(&["--scale", "0.02", flag, bad], ANSWERED);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{flag} {bad}: stderr does not name the flag: {stderr}"
        );
    }
}

#[test]
fn a_failing_one_shot_query_exits_1() {
    let answered = lake_shell(&["--scale", "0.02"], ANSWERED);
    let stderr = String::from_utf8_lossy(&answered.stderr);
    assert_eq!(answered.status.code(), Some(0), "{ANSWERED}: {stderr}");
    assert!(
        String::from_utf8_lossy(&answered.stdout).contains("-- 1 answer(s)"),
        "{stderr}"
    );
    // A parse error, and a query no source can answer.
    for query in ["SELEKT x", "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"] {
        let out = lake_shell(&["--scale", "0.02"], query);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{query}: {stderr}");
        assert!(stderr.contains("error: "), "{query}: {stderr}");
    }
}
