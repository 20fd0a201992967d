//! The row arena's ownership rule, end to end. A handle an operator passes
//! up is moved — the projection unbinds slots in the row it was handed — so
//! no operator may hand up a row it keeps while something could still read
//! it. Three operators keep rows: a join's build side (it hands up merged
//! rows, new ones), DISTINCT (it hands up the row it keeps; above it only
//! the session reads) and the left join, which hands up its unmatched left
//! rows themselves in its final flush. One query meets all three: an
//! OPTIONAL whose unmatched left rows flush last, under DISTINCT, with a
//! projection that drops the join variable. Had a kept row been unbound in
//! place while still probed, answers would be lost or duplicated.

use fedlake::core::{FederatedEngine, PlanConfig, PlanMode};
use fedlake::datagen::vocab::{class, pred};
use fedlake::datagen::{build_lake_with, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use fedlake::sparql::{Row, Var};
use std::collections::BTreeSet;

/// Trials by category, with the name of their condition when it names a
/// disease whose name holds a "1": the OPTIONAL leaves most trials
/// unmatched, and DISTINCT folds the many trials of one category.
fn query() -> String {
    format!(
        "SELECT DISTINCT ?cat ?dn WHERE {{\n\
           ?t a <{trial}> .\n\
           ?t <{category}> ?cat .\n\
           ?t <{condition}> ?d .\n\
           OPTIONAL {{ ?d a <{disease}> . ?d <{name}> ?dn . FILTER(CONTAINS(?dn, \"1\")) }}\n\
         }}",
        trial = class("linkedct", "Trial"),
        category = pred("linkedct", "category"),
        condition = pred("linkedct", "condition"),
        disease = class("diseasome", "Disease"),
        name = pred("diseasome", "name"),
    )
}

fn answer_set(rows: &[Row]) -> BTreeSet<String> {
    rows.iter().map(|r| r.to_string()).collect()
}

/// What the engine answered before rows moved into the arena, at this
/// scale: the answers, and how many of them leave `?dn` unbound.
const PARENT_ANSWERS: (usize, usize) = (128, 50);

#[test]
fn optional_flush_distinct_and_projection_answer_as_the_oracle() {
    let lake = build_lake_with(
        &LakeConfig {
            scale: 0.15,
            ..Default::default()
        },
        &["linkedct", "diseasome"],
    );
    let sparql = query();
    let want = answer_set(&evaluate(&parse_query(&sparql).unwrap(), &lake.oracle_graph()).unwrap());
    // DISTINCT has work to do: without it, categories repeat.
    let all = evaluate(
        &parse_query(&sparql.replace("DISTINCT ", "")).unwrap(),
        &lake.oracle_graph(),
    )
    .unwrap();
    assert!(
        all.len() > 2 * want.len(),
        "{} rows, {} distinct",
        all.len(),
        want.len()
    );
    let dn = Var::new("dn");
    let planners = [
        (PlanMode::Unaware, false),
        (PlanMode::AWARE, false),
        (PlanMode::AWARE, true),
    ];
    for (mode, cost_based) in planners {
        for overlap in [false, true] {
            for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
                let mut cfg = PlanConfig::new(mode, network);
                cfg.cost_based = cost_based;
                cfg.overlap = overlap;
                let label = format!(
                    "{} cost={cost_based} overlap={overlap} {}",
                    mode.label(),
                    network.name
                );
                let result = FederatedEngine::new(lake.clone(), cfg)
                    .execute_sparql(&sparql)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    result.rows.len(),
                    want.len(),
                    "{label}: DISTINCT left a duplicate\n{}",
                    result.explain
                );
                assert_eq!(
                    answer_set(&result.rows),
                    want,
                    "{label}\n{}",
                    result.explain
                );
                let unbound = result.rows.iter().filter(|r| !r.is_bound(&dn)).count();
                assert_eq!((result.rows.len(), unbound), PARENT_ANSWERS, "{label}");
                assert!(
                    result.explain.contains("LeftJoin") || result.explain.contains("Optional"),
                    "{}",
                    result.explain
                );
            }
        }
    }
}
