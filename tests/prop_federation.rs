//! Randomized federation tests: random lakes, random star queries, every
//! plan mode and network — federated answers must always equal the
//! lifted-graph oracle. Deterministically seeded via the in-repo PRNG.

mod common;

use common::CELLS;
use fedlake::core::{
    DataLake, DataSource, FederatedEngine, FilterPlacement, PlanConfig, PlanMode,
};
use fedlake::mapping::{DatasetMapping, IriTemplate, TableMapping};
use fedlake::netsim::NetworkProfile;
use fedlake::relational::{Database, Value};
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use fedlake_prng::Prng;
use std::collections::BTreeSet;

const V: &str = "http://p/v/";

/// Random content for a two-table, one-source lake with an FK link.
#[derive(Debug, Clone)]
struct LakeSpec {
    genes: Vec<(u8, Option<u8>, Option<u8>)>, // (id, label idx, disease ref)
    diseases: Vec<(u8, Option<u8>)>,          // (id, name idx)
    fk_indexed: bool,
}

fn arb_lake(rng: &mut Prng) -> LakeSpec {
    let opt = |rng: &mut Prng, range: std::ops::Range<u8>| {
        rng.gen_bool(0.8).then(|| rng.gen_range(range))
    };
    let n_genes = rng.gen_range(0usize..30);
    let genes = (0..n_genes)
        .map(|_| (rng.gen_range(0u8..40), opt(rng, 0..6), opt(rng, 0..8)))
        .collect();
    let n_diseases = rng.gen_range(0usize..10);
    let diseases = (0..n_diseases)
        .map(|_| (rng.gen_range(0u8..8), opt(rng, 0..5)))
        .collect();
    LakeSpec { genes, diseases, fk_indexed: rng.gen_bool(0.5) }
}

fn build(spec: &LakeSpec) -> DataLake {
    let mut db = Database::new("src");
    db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)")
        .unwrap();
    db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
    let mut seen = BTreeSet::new();
    for (id, label, dref) in &spec.genes {
        if !seen.insert(*id) {
            continue;
        }
        db.insert_row(
            "gene",
            vec![
                Value::text(format!("g{id}")),
                label.map(|l| Value::text(format!("label-{l}"))).unwrap_or(Value::Null),
                dref.map(|d| Value::text(format!("d{d}"))).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    let mut seen_d = BTreeSet::new();
    for (id, name) in &spec.diseases {
        if !seen_d.insert(*id) {
            continue;
        }
        db.insert_row(
            "disease",
            vec![
                Value::text(format!("d{id}")),
                name.map(|n| Value::text(format!("name-{n}"))).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    if spec.fk_indexed {
        db.create_index("gene", "idx_fk", &["disease".to_string()], false).unwrap();
    }
    let mapping = DatasetMapping::new("src")
        .with_table(
            TableMapping::new("gene", format!("{V}Gene"), IriTemplate::new("http://p/gene/", ""), "id")
                .with_literal("label", &format!("{V}label"))
                .with_reference(
                    "disease",
                    &format!("{V}disease"),
                    IriTemplate::new("http://p/disease/", ""),
                ),
        )
        .with_table(
            TableMapping::new(
                "disease",
                format!("{V}Disease"),
                IriTemplate::new("http://p/disease/", ""),
                "id",
            )
            .with_literal("name", &format!("{V}name")),
        );
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("src", db, mapping));
    lake
}

/// A small family of query shapes over the lake.
fn query_text(shape: u8, filter_val: u8) -> String {
    match shape % 7 {
        0 => format!("SELECT ?g ?l WHERE {{ ?g a <{V}Gene> . ?g <{V}label> ?l }}"),
        1 => format!(
            "SELECT ?g ?l ?n WHERE {{ ?g <{V}label> ?l . ?g <{V}disease> ?d . ?d <{V}name> ?n }}"
        ),
        2 => format!(
            "SELECT ?g WHERE {{ ?g <{V}label> ?l . FILTER(?l = \"label-{}\") }}",
            filter_val % 6
        ),
        3 => format!(
            "SELECT ?g ?n WHERE {{ ?g <{V}disease> ?d . ?d <{V}name> ?n . \
             FILTER(CONTAINS(?n, \"{}\")) }}",
            filter_val % 5
        ),
        4 => format!(
            "SELECT DISTINCT ?n WHERE {{ ?g <{V}disease> ?d . ?d <{V}name> ?n }}"
        ),
        5 => format!(
            "SELECT ?g ?n WHERE {{ ?g <{V}label> ?l . \
             OPTIONAL {{ ?g <{V}disease> ?d . ?d <{V}name> ?n }} }}"
        ),
        _ => format!(
            "SELECT ?g WHERE {{ {{ ?g <{V}label> \"label-{}\" }} UNION \
             {{ ?g <{V}label> \"label-{}\" }} }}",
            filter_val % 6,
            (filter_val + 1) % 6
        ),
    }
}

fn answers(rows: &[fedlake::sparql::Row]) -> BTreeSet<String> {
    rows.iter().map(|r| r.to_string()).collect()
}

/// The federation invariant: any plan mode, any network, any lake — the
/// answers equal the local evaluation over the lifted graph. The cost-based
/// cells of the shared matrix plan bind joins, so the cases reach both
/// join operators.
#[test]
fn federated_answers_equal_oracle() {
    let mut rng = Prng::seed_from_u64(0xfed0_0001);
    let mut bind_joins = 0;
    for case in 0..64 {
        let spec = arb_lake(&mut rng);
        let shape = rng.gen_range(0u8..7);
        let filter_val = rng.gen_range(0u8..8);
        let mode_pick = rng.gen_range(0u8..5);
        let net_pick = rng.gen_range(0u8..4);

        // The shared matrix, cycled by case number so the draws above
        // generate the cases they always did.
        let cell = &CELLS[case % CELLS.len()];

        let mut lake = build(&spec);
        cell.replicate(&mut lake);
        let sparql = query_text(shape, filter_val);
        let parsed = parse_query(&sparql).unwrap();
        let oracle = lake.oracle_graph();
        let expected = answers(&evaluate(&parsed, &oracle).unwrap());

        let mode = match mode_pick {
            0 => PlanMode::Unaware,
            1 => PlanMode::AWARE,
            2 => PlanMode::AWARE_H2,
            3 => PlanMode::Aware { h1_join_pushdown: false, filters: FilterPlacement::PushAll },
            _ => PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::Engine },
        };
        let network = NetworkProfile::ALL[net_pick as usize % 4];
        let cfg = cell.config(PlanConfig::new(mode, network));
        let engine = FederatedEngine::new(lake, cfg);
        let result = engine.execute_sparql(&sparql).unwrap();
        assert_eq!(
            answers(&result.rows),
            expected,
            "shape {} mode {} network {} {cell:?}\nplan:\n{}",
            shape,
            mode.label(),
            network.name,
            result.explain
        );
        bind_joins += result.explain.matches("BindJoin").count();
    }
    assert!(bind_joins > 0, "no case planned a bind join");
}

/// Execution-time monotonicity: a slower network never makes a plan
/// faster (same plan, same data, same seed).
#[test]
fn slower_network_never_speeds_up() {
    let mut rng = Prng::seed_from_u64(0xfed0_0002);
    for _ in 0..32 {
        let spec = arb_lake(&mut rng);
        let shape = rng.gen_range(0u8..5);
        let mode_pick = rng.gen_range(0u8..2);
        let lake = build(&spec);
        let sparql = query_text(shape, 1);
        let mode = if mode_pick == 0 { PlanMode::Unaware } else { PlanMode::AWARE };
        let time_at = |network| {
            let engine = FederatedEngine::new(lake.clone(), PlanConfig::new(mode, network));
            engine.execute_sparql(&sparql).unwrap().stats.execution_time
        };
        // NoDelay injects zero network latency, so every delayed profile
        // must be at least as slow. (Two gamma profiles are NOT pairwise
        // comparable on few messages — a low Γ(3,1.5) draw can undercut a
        // Γ(1,0.3) draw — so only the zero baseline is asserted.)
        let baseline = time_at(NetworkProfile::NO_DELAY);
        for network in [NetworkProfile::GAMMA1, NetworkProfile::GAMMA2, NetworkProfile::GAMMA3] {
            let t = time_at(network);
            assert!(
                t >= baseline,
                "{} at {} took {t:?}, under the NoDelay baseline {baseline:?}",
                mode.label(),
                network.name
            );
        }
    }
}
