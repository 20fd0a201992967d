//! Byte-level fuzzing of the two parsers: no input may make either panic.
//! A panic there is what the crates' panic lints cannot see — a byte slice
//! cut off a char boundary, an index past the end, an overflow in a debug
//! build — so each parser gets a fixed number of seeded mutants of a small
//! corpus: the workload's SPARQL queries for `parse_query`, and for the
//! SQL parser the statement shapes the lake and the engine write (DDL,
//! inserts with `''` escapes and non-ASCII text, SELECTs with JOIN, LIKE,
//! IN, ORDER BY and LIMIT). A mutant either parses or returns an error.

use fedlake_datagen::workload;
use fedlake_prng::Prng;
use fedlake_relational::sql;
use fedlake_sparql::parser::parse_query;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per parser.
const ITERATIONS: usize = 20_000;

/// Fragments a mutation may insert: quotes, escapes, brackets, operators,
/// keywords of both languages, numbers past every integer width, and
/// characters of two, three and four UTF-8 bytes.
const FRAGMENTS: &[&str] = &[
    "'",
    "''",
    "\"",
    "\\",
    "\\u",
    "<",
    ">",
    "<=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "?",
    "$",
    "^^",
    "@",
    "#",
    ":",
    "_:",
    ".",
    ",",
    ";",
    "*",
    "-",
    "--",
    "+",
    "=",
    "!=",
    "&&",
    "||",
    "%",
    "0",
    "-0.0",
    "1e999",
    "9223372036854775808",
    "99999999999999999999999",
    "SELECT",
    "WHERE",
    "FILTER",
    "OPTIONAL",
    "UNION",
    "REGEX",
    "PREFIX",
    "LIMIT",
    "OFFSET",
    "ORDER BY",
    "JOIN",
    "ON",
    "IN",
    "LIKE",
    "IS NOT NULL",
    "NULL",
    "INSERT INTO",
    "VALUES",
    "CREATE",
    "INDEX",
    "PRIMARY KEY",
    "é",
    "€",
    "𝄞",
    "\u{0}",
    "\n",
    "\t",
];

const SQL_CORPUS: &[&str] = &[
    "CREATE TABLE drug (id TEXT PRIMARY KEY, name VARCHAR(255) NOT NULL, mass DOUBLE, ok BOOL)",
    "CREATE TABLE gd (gene TEXT, disease TEXT, PRIMARY KEY (gene, disease), \
     FOREIGN KEY (gene) REFERENCES gene (id))",
    "CREATE UNIQUE INDEX idx_name ON drug (name)",
    "CREATE INDEX idx_gd ON gd (disease, gene)",
    "INSERT INTO drug VALUES ('d1', 'O''Brien''s acid', 1.5, TRUE), ('d2', 'Café ü €', -2, NULL)",
    "INSERT INTO gd VALUES ('g1', 'd''1')",
    "SELECT g.id, d.name FROM gene g JOIN gene_disease gd ON g.id = gd.gene \
     JOIN disease d ON gd.disease = d.id WHERE d.class = 'cancer' ORDER BY d.name DESC LIMIT 10",
    "SELECT * FROM t WHERE name LIKE '%sapiens%' AND id IN (1, 2, 3) AND x IS NOT NULL",
    "SELECT DISTINCT x, y AS z FROM t AS a WHERE a.m >= 2.5 AND a.n <> 'ü' ORDER BY x LIMIT 5;",
];

/// One mutant of `input`: up to four edits, each a byte overwritten, a
/// fragment or a slice of another corpus entry inserted, a range deleted
/// or duplicated, or the tail cut off. Invalid UTF-8 is replaced lossily,
/// so the parser still meets multi-byte characters.
fn mutate(rng: &mut Prng, input: &str, corpus: &[String]) -> String {
    let mut b = input.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5u32) {
        let len = b.len();
        let at = rng.gen_range(0..len + 1);
        let end = (at + rng.gen_range(0..24usize)).min(len);
        match rng.gen_range(0..6u32) {
            0 if at < len => b[at] = rng.next_u64() as u8,
            1 => {
                let f = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
                b.splice(at..at, f.bytes());
            }
            2 => {
                b.drain(at..end);
            }
            3 => {
                let piece = b[at..end].to_vec();
                let to = rng.gen_range(0..len + 1);
                b.splice(to..to, piece);
            }
            4 => {
                let other = corpus[rng.gen_range(0..corpus.len())].as_bytes();
                let from = rng.gen_range(0..other.len() + 1);
                let to = (from + rng.gen_range(0..32usize)).min(other.len());
                b.splice(at..at, other[from..to].iter().copied());
            }
            _ => b.truncate(at),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Runs `parse` over `ITERATIONS` mutants of `corpus` and returns every
/// input it panicked on, with the iteration.
fn panics(seed: u64, corpus: &[String], parse: impl Fn(&str)) -> Vec<(usize, String)> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut found = Vec::new();
    for i in 0..ITERATIONS {
        let input = mutate(&mut rng, &corpus[i % corpus.len()], corpus);
        if catch_unwind(AssertUnwindSafe(|| parse(&input))).is_err() {
            found.push((i, input));
        }
    }
    found
}

#[test]
fn the_sparql_parser_never_panics() {
    let corpus: Vec<String> = workload::all().into_iter().map(|q| q.sparql).collect();
    for q in &corpus {
        parse_query(q).expect("the corpus parses unmutated");
    }
    let found = panics(0x5A9A, &corpus, |s| {
        let _ = parse_query(s);
    });
    assert!(
        found.is_empty(),
        "{} of {ITERATIONS} mutants panicked: {found:#?}",
        found.len()
    );
}

#[test]
fn the_sql_parser_never_panics() {
    let corpus: Vec<String> = SQL_CORPUS.iter().map(|s| s.to_string()).collect();
    for q in &corpus {
        sql::parse(q).expect("the corpus parses unmutated");
    }
    let found = panics(0x5E1, &corpus, |s| {
        let _ = sql::parse(s);
    });
    assert!(
        found.is_empty(),
        "{} of {ITERATIONS} mutants panicked: {found:#?}",
        found.len()
    );
}
