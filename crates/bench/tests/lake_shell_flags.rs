//! `lake_shell` flag values: a value that does not parse is a hard error
//! (exit code 2, message naming the flag), never a silent fall-back to the
//! default.

use std::process::Command;

fn lake_shell(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lake_shell"))
        .args(args)
        .args(["--query", "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"])
        .output()
        .expect("lake_shell runs")
}

#[test]
fn unparsable_flag_values_exit_2_naming_the_flag() {
    for (flag, bad) in [("--scale", "x"), ("--seed", "x"), ("--format", "xml")] {
        // A tiny valid scale first, so a shell that ignores the bad value
        // still answers quickly (a later --scale overrides it).
        let out = lake_shell(&["--scale", "0.02", flag, bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{flag} {bad}: stderr does not name the flag: {stderr}"
        );
    }
}
