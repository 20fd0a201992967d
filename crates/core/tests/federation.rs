//! End-to-end federation tests over a two-source lake, checked against the
//! lifted-graph oracle: whatever plan mode and network the engine runs
//! with, its answers must equal a local SPARQL evaluation over the RDF
//! lifting of all sources.

use fedlake_core::config::FilterPlacement;
use fedlake_core::{
    DataLake, DataSource, FederatedEngine, MergeTranslation, PlanConfig, PlanMode,
};
use fedlake_mapping::{lift_database, DatasetMapping, IriTemplate, TableMapping};
use fedlake_netsim::NetworkProfile;
use fedlake_rdf::{vocab, Graph, Term};
use fedlake_relational::{Database, Value};
use fedlake_sparql::binding::Row;
use fedlake_sparql::eval::evaluate;
use fedlake_sparql::parser::parse_query;
use std::collections::BTreeSet;

const V: &str = "http://lake.example/vocab/";

/// Builds a small two-dataset relational lake:
///  * `affymetrix`: gene(id, label, species, disease_ref) — species is
///    skewed (not indexable), disease_ref is an indexed FK-like column.
///  * `diseasome`: disease(id, name, class).
fn build_lake(index_join_attr: bool) -> (DataLake, Graph) {
    let mut affy = Database::new("affymetrix");
    affy.execute(
        "CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, species TEXT, disease TEXT)",
    )
    .unwrap();
    for i in 0..40 {
        let species = if i % 4 == 0 { "Homo sapiens" } else { "Mus musculus" };
        affy.execute(&format!(
            "INSERT INTO gene VALUES ('g{i}', 'gene {i}', '{species}', 'd{}')",
            i % 10
        ))
        .unwrap();
    }
    if index_join_attr {
        affy.execute("CREATE INDEX idx_gene_disease ON gene (disease)").unwrap();
    }
    let affy_mapping = DatasetMapping::new("affymetrix").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://lake.example/affymetrix/gene/{}"),
            "id",
        )
        .with_literal("label", &format!("{V}label"))
        .with_literal("species", &format!("{V}species"))
        .with_reference(
            "disease",
            &format!("{V}associatedDisease"),
            IriTemplate::new("http://lake.example/diseasome/disease/{}"),
        ),
    );

    let mut dis = Database::new("diseasome");
    dis.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT, class TEXT)")
        .unwrap();
    for i in 0..10 {
        dis.execute(&format!(
            "INSERT INTO disease VALUES ('d{i}', 'disease {i}', 'class{}')",
            i % 3
        ))
        .unwrap();
    }
    let dis_mapping = DatasetMapping::new("diseasome").with_table(
        TableMapping::new(
            "disease",
            format!("{V}Disease"),
            IriTemplate::new("http://lake.example/diseasome/disease/{}"),
            "id",
        )
        .with_literal("name", &format!("{V}name"))
        .with_literal("class", &format!("{V}class")),
    );

    // The oracle: a single graph lifting every source.
    let mut oracle = lift_database(&affy, &affy_mapping);
    let dis_graph = lift_database(&dis, &dis_mapping);
    for t in dis_graph.iter() {
        oracle.insert_terms(
            dis_graph.term(t.s).unwrap().clone(),
            dis_graph.term(t.p).unwrap().clone(),
            dis_graph.term(t.o).unwrap().clone(),
        );
    }

    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("affymetrix", affy, affy_mapping));
    lake.add_source(DataSource::relational("diseasome", dis, dis_mapping));
    (lake, oracle)
}

fn q_join_filter() -> String {
    format!(
        r#"SELECT ?g ?n WHERE {{
            ?g a <{V}Gene> .
            ?g <{V}species> ?sp .
            ?g <{V}associatedDisease> ?d .
            ?d <{V}name> ?n .
            FILTER(CONTAINS(?sp, "sapiens"))
        }}"#
    )
}

fn answers(rows: &[Row]) -> BTreeSet<String> {
    rows.iter().map(|r| r.to_string()).collect()
}

fn oracle_answers(oracle: &Graph, sparql: &str) -> BTreeSet<String> {
    let q = parse_query(sparql).unwrap();
    answers(&evaluate(&q, oracle).unwrap())
}

#[test]
fn all_configurations_agree_with_oracle() {
    let (lake, oracle) = build_lake(true);
    let sparql = q_join_filter();
    let expected = oracle_answers(&oracle, &sparql);
    assert_eq!(expected.len(), 10, "10 sapiens genes with diseases");

    let modes = [
        PlanMode::Unaware,
        PlanMode::AWARE,
        PlanMode::AWARE_H2,
        PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll },
        PlanMode::Aware { h1_join_pushdown: false, filters: FilterPlacement::Heuristic2 },
        PlanMode::Aware { h1_join_pushdown: false, filters: FilterPlacement::Engine },
    ];
    for mode in modes {
        for network in NetworkProfile::ALL {
            let engine = FederatedEngine::new(lake.clone(), PlanConfig::new(mode, network));
            let result = engine.execute_sparql(&sparql).unwrap();
            assert_eq!(
                answers(&result.rows),
                expected,
                "mode {} network {}",
                mode.label(),
                network.name
            );
        }
    }
}

#[test]
fn unaware_plan_keeps_work_at_engine() {
    let (lake, _) = build_lake(true);
    let engine = FederatedEngine::new(
        lake,
        PlanConfig::unaware(NetworkProfile::GAMMA3),
    );
    let result = engine.execute_sparql(&q_join_filter()).unwrap();
    // Two services (one per star), an engine join and an engine filter.
    assert_eq!(result.stats.services, 2);
    assert_eq!(result.stats.merged_services, 0);
    assert!(result.stats.engine_operators >= 2, "{}", result.explain);
    assert!(result.stats.engine_filter_evals > 0);
    assert!(result.stats.engine_join_probes > 0);
}

#[test]
fn h2_pushes_indexed_filter_only_on_slow_networks() {
    // A lake whose species column is indexed, so H2's index condition
    // holds and only the network speed decides the filter placement.
    let mut affy = Database::new("affymetrix");
    affy.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, species TEXT)")
        .unwrap();
    for i in 0..20 {
        affy.execute(&format!("INSERT INTO gene VALUES ('g{i}', 'l{i}', 'sp{i}')"))
            .unwrap();
    }
    affy.execute("CREATE INDEX idx_species ON gene (species)").unwrap();
    let mapping = DatasetMapping::new("affymetrix").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://lake.example/affymetrix/gene/{}"),
            "id",
        )
        .with_literal("species", &format!("{V}species")),
    );
    let mut lake2 = DataLake::new();
    lake2.add_source(DataSource::relational("affymetrix", affy, mapping));
    let sparql = format!(
        r#"SELECT ?g WHERE {{ ?g <{V}species> ?sp . FILTER(?sp = "sp3") }}"#
    );

    // Fast network: filter stays at the engine.
    let fast = FederatedEngine::new(
        lake2.clone(),
        PlanConfig::new(PlanMode::AWARE_H2, NetworkProfile::GAMMA1),
    );
    let r_fast = fast.execute_sparql(&sparql).unwrap();
    assert!(r_fast.stats.engine_filter_evals > 0, "{}", r_fast.explain);
    assert!(!r_fast.explain.contains("sp3' "), "{}", r_fast.explain);

    // Slow network: indexed filter is pushed into the SQL.
    let slow = FederatedEngine::new(
        lake2.clone(),
        PlanConfig::new(PlanMode::AWARE_H2, NetworkProfile::GAMMA3),
    );
    let r_slow = slow.execute_sparql(&sparql).unwrap();
    assert_eq!(r_slow.stats.engine_filter_evals, 0, "{}", r_slow.explain);
    assert!(r_slow.explain.contains("= 'sp3'"), "{}", r_slow.explain);

    // Same single answer either way.
    assert_eq!(r_fast.rows.len(), 1);
    assert_eq!(answers(&r_fast.rows), answers(&r_slow.rows));
    // The pushed filter shrinks the transferred intermediate result.
    assert!(r_slow.stats.rows_transferred < r_fast.stats.rows_transferred);
}

/// The aware and the unaware plan must not disagree on the answer: a
/// filter on an integer column compares exactly whether Heuristic 2 pushes
/// it into the SQL (`Int` against `Int`) or leaves it at the engine — also
/// past 2^53, where the two values below are one `f64`.
#[test]
fn an_integer_filter_answers_the_same_pushed_or_kept() {
    const P53: i64 = 1 << 53;
    let mut db = Database::new("counts");
    db.execute("CREATE TABLE reading (id TEXT PRIMARY KEY, v INT)").unwrap();
    db.execute(&format!("INSERT INTO reading VALUES ('r0', {P53}), ('r1', {})", P53 + 1))
        .unwrap();
    db.execute("CREATE INDEX idx_reading_v ON reading (v)").unwrap();
    let mapping = DatasetMapping::new("counts").with_table(
        TableMapping::new(
            "reading",
            format!("{V}Reading"),
            IriTemplate::new("http://lake.example/counts/reading/{}"),
            "id",
        )
        .with_literal("v", &format!("{V}value")),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("counts", db, mapping));

    for (op, want) in [("=", 1), ("!=", 1), (">=", 1), ("<", 1), ("<=", 2), (">", 0)] {
        let sparql =
            format!("SELECT ?r WHERE {{ ?r <{V}value> ?v . FILTER(?v {op} {}) }}", P53 + 1);
        let expected = oracle_answers(&oracle, &sparql);
        assert_eq!(expected.len(), want, "oracle, ?v {op} 2^53 + 1");
        for filters in [FilterPlacement::Engine, FilterPlacement::PushAll] {
            let mode = PlanMode::Aware { h1_join_pushdown: true, filters };
            let engine =
                FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA3));
            let result = engine.execute_sparql(&sparql).unwrap();
            let pushed = result.stats.engine_filter_evals == 0;
            assert_eq!(pushed, filters == FilterPlacement::PushAll, "{}", result.explain);
            assert_eq!(answers(&result.rows), expected, "?v {op} 2^53 + 1, pushed: {pushed}");
        }
    }
}

/// A double constant reaches the source as SQL it can parse, or not at all:
/// a finite one is written with a decimal point (`1e21` prints without one,
/// and the SQL lexer has no exponent syntax), and NaN or ±INF has no SQL
/// literal, so Heuristic 2 keeps that filter at the engine. An
/// `xsd:integer` past `i64` takes the double's path. Either way the aware
/// plans answer what the unaware plan answers.
#[test]
fn a_double_filter_answers_the_same_pushed_or_kept() {
    let mut db = Database::new("levels");
    db.execute("CREATE TABLE reading (id TEXT PRIMARY KEY, x DOUBLE)").unwrap();
    db.execute("INSERT INTO reading VALUES ('r0', 1.5), ('r1', 3.0)").unwrap();
    db.execute("CREATE INDEX idx_reading_x ON reading (x)").unwrap();
    let mapping = DatasetMapping::new("levels").with_table(
        TableMapping::new(
            "reading",
            format!("{V}Reading"),
            IriTemplate::new("http://lake.example/levels/reading/{}"),
            "id",
        )
        .with_literal("x", &format!("{V}level")),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("levels", db, mapping));

    let xsd = |lex: &str, dt: &str| format!("\"{lex}\"^^<http://www.w3.org/2001/XMLSchema#{dt}>");
    // (filter, answers, whether a filter Heuristic 2 may push is pushable)
    let cases = [
        ("?x < 1.0E21".to_string(), 2, true),
        (format!("?x > {}", xsd("-1.0E21", "double")), 2, true),
        ("?x >= 2.0".to_string(), 1, true),
        (format!("?x < {}", xsd("100000000000000000000", "integer")), 2, true),
        (format!("?x < {}", xsd("INF", "double")), 2, false),
        (format!("?x > {}", xsd("-INF", "double")), 2, false),
        (format!("?x = {}", xsd("NaN", "double")), 0, false),
    ];
    for (filter, want, pushable) in cases {
        let sparql = format!("SELECT ?r WHERE {{ ?r <{V}level> ?x . FILTER({filter}) }}");
        let expected = oracle_answers(&oracle, &sparql);
        assert_eq!(expected.len(), want, "oracle, {filter}");
        let push_all =
            PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll };
        for mode in [PlanMode::Unaware, PlanMode::AWARE, push_all] {
            let engine =
                FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA3));
            let result = engine
                .execute_sparql(&sparql)
                .unwrap_or_else(|e| panic!("{filter} under {mode:?}: {e}"));
            assert_eq!(answers(&result.rows), expected, "{filter} under {mode:?}");
            let pushed = result.stats.engine_filter_evals == 0;
            assert_eq!(pushed, pushable && mode != PlanMode::Unaware, "{}", result.explain);
        }
    }
}

/// A stored NaN differs from every double: SPARQL's `!=` is true on it,
/// while SQL's `<>` is unknown and would drop the row. So `!=` on a DOUBLE
/// column stays at the engine under every aware placement, and all plans
/// return the oracle's two answers.
#[test]
fn a_not_equal_filter_keeps_a_stored_nan() {
    let mut db = Database::new("levels");
    db.execute("CREATE TABLE reading (id TEXT PRIMARY KEY, x DOUBLE)").unwrap();
    db.execute("INSERT INTO reading VALUES ('r0', 1.5), ('r1', 3.0)").unwrap();
    db.insert_row("reading", vec![Value::Text("r2".into()), Value::Double(f64::NAN)]).unwrap();
    db.execute("CREATE INDEX idx_reading_x ON reading (x)").unwrap();
    let mapping = DatasetMapping::new("levels").with_table(
        TableMapping::new(
            "reading",
            format!("{V}Reading"),
            IriTemplate::new("http://lake.example/levels/reading/{}"),
            "id",
        )
        .with_literal("x", &format!("{V}level")),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("levels", db, mapping));

    let sparql = format!("SELECT ?r WHERE {{ ?r <{V}level> ?x . FILTER(?x != 1.5) }}");
    let expected = oracle_answers(&oracle, &sparql);
    assert_eq!(expected.len(), 2, "oracle: r1 and the NaN row r2");
    let push_all = PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll };
    for mode in [PlanMode::Unaware, PlanMode::AWARE, push_all] {
        let engine =
            FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA3));
        let result = engine.execute_sparql(&sparql).unwrap();
        assert_eq!(answers(&result.rows), expected, "under {mode:?}: {}", result.explain);
    }
}

#[test]
fn h1_merges_only_when_join_attribute_indexed() {
    let sparql = q_join_filter();

    // H1 needs both stars at the *same* source: both tables in one DB.
    let mut db = Database::new("diseasome");
    db.execute(
        "CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, species TEXT, disease TEXT)",
    )
    .unwrap();
    db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT, class TEXT)")
        .unwrap();
    for i in 0..30 {
        let species = if i % 3 == 0 { "Homo sapiens" } else { "Mus musculus" };
        db.execute(&format!(
            "INSERT INTO gene VALUES ('g{i}', 'gene {i}', '{species}', 'd{}')",
            i % 6
        ))
        .unwrap();
    }
    for i in 0..6 {
        db.execute(&format!(
            "INSERT INTO disease VALUES ('d{i}', 'disease {i}', 'c{}')",
            i % 2
        ))
        .unwrap();
    }
    let mapping = DatasetMapping::new("diseasome")
        .with_table(
            TableMapping::new(
                "gene",
                format!("{V}Gene"),
                IriTemplate::new("http://lake.example/diseasome/gene/{}"),
                "id",
            )
            .with_literal("label", &format!("{V}label"))
            .with_literal("species", &format!("{V}species"))
            .with_reference(
                "disease",
                &format!("{V}associatedDisease"),
                IriTemplate::new("http://lake.example/diseasome/disease/{}"),
            ),
        )
        .with_table(
            TableMapping::new(
                "disease",
                format!("{V}Disease"),
                IriTemplate::new("http://lake.example/diseasome/disease/{}"),
                "id",
            )
            .with_literal("name", &format!("{V}name"))
            .with_literal("class", &format!("{V}class")),
        );

    // Without an index on the FK column, H1 must NOT merge.
    let mut lake_noidx = DataLake::new();
    lake_noidx.add_source(DataSource::relational("diseasome", db.clone(), mapping.clone()));
    let engine = FederatedEngine::new(
        lake_noidx,
        PlanConfig::aware(NetworkProfile::NO_DELAY),
    );
    let r = engine.execute_sparql(&sparql).unwrap();
    assert_eq!(r.stats.merged_services, 0, "{}", r.explain);
    assert_eq!(r.stats.services, 2);

    // With the index, H1 merges the stars into one SQL join.
    let mut db_idx = db.clone();
    db_idx.execute("CREATE INDEX idx_gene_disease ON gene (disease)").unwrap();
    let mut lake_idx = DataLake::new();
    lake_idx.add_source(DataSource::relational("diseasome", db_idx, mapping));
    let engine = FederatedEngine::new(
        lake_idx.clone(),
        PlanConfig::aware(NetworkProfile::NO_DELAY),
    );
    let r_merged = engine.execute_sparql(&sparql).unwrap();
    assert_eq!(r_merged.stats.merged_services, 1, "{}", r_merged.explain);
    assert_eq!(r_merged.stats.services, 1);
    assert!(r_merged.explain.contains("JOIN"), "{}", r_merged.explain);

    // Same answers, fewer transferred rows than the unaware plan.
    let unaware = FederatedEngine::new(
        lake_idx,
        PlanConfig::unaware(NetworkProfile::NO_DELAY),
    );
    let r_unaware = unaware.execute_sparql(&sparql).unwrap();
    assert_eq!(answers(&r_merged.rows), answers(&r_unaware.rows));
    assert!(r_merged.stats.rows_transferred <= r_unaware.stats.rows_transferred);
}

/// Two stars over one table read one row only when they join on one
/// star's subject column (the denormalized design). Two genes that share a
/// disease are two rows, so Heuristic 1 must join the table with itself.
#[test]
fn two_stars_sharing_a_column_of_one_table_are_two_rows() {
    let (lake, oracle) = build_lake(true);
    let sparql = format!(
        "SELECT ?g1 ?g2 WHERE {{ ?g1 <{V}associatedDisease> ?d . ?g2 <{V}associatedDisease> ?d }}"
    );
    let expected = oracle_answers(&oracle, &sparql);
    assert_eq!(expected.len(), 160, "4 genes per disease, 10 diseases: 16 pairs each");
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        let engine =
            FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA1));
        let result = engine.execute_sparql(&sparql).unwrap();
        assert_eq!(answers(&result.rows), expected, "{}", result.explain);
    }
}

#[test]
fn slow_networks_hurt_unaware_plans_more() {
    // The paper's headline observation: "the impact of network delays is
    // higher in the case of physical-design-unaware query execution plans."
    let (lake, _) = build_lake(true);
    let sparql = q_join_filter();
    let time = |mode: PlanMode, net: NetworkProfile| {
        let engine = FederatedEngine::new(lake.clone(), PlanConfig::new(mode, net));
        engine.execute_sparql(&sparql).unwrap().stats.execution_time
    };
    let unaware_fast = time(PlanMode::Unaware, NetworkProfile::NO_DELAY);
    let unaware_slow = time(PlanMode::Unaware, NetworkProfile::GAMMA3);
    let aware_fast = time(PlanMode::AWARE, NetworkProfile::NO_DELAY);
    let aware_slow = time(PlanMode::AWARE, NetworkProfile::GAMMA3);
    let unaware_slowdown = unaware_slow.as_secs_f64() / unaware_fast.as_secs_f64();
    let aware_slowdown = aware_slow.as_secs_f64() / aware_fast.as_secs_f64();
    assert!(
        unaware_slow >= aware_slow,
        "aware must not be slower under Gamma3: unaware={unaware_slow:?} aware={aware_slow:?}"
    );
    assert!(
        unaware_slowdown >= aware_slowdown * 0.9,
        "network delay should hit the unaware plan at least as hard: \
         unaware {unaware_slowdown:.2}x vs aware {aware_slowdown:.2}x"
    );
}

#[test]
fn naive_merge_translation_is_slower_than_optimized() {
    // §3: Ontario's unoptimized merged translation increases execution
    // time; the forced optimized SQL roughly halves it vs. unaware.
    let mut db = Database::new("d");
    db.execute("CREATE TABLE a (id TEXT PRIMARY KEY, b_ref TEXT, v TEXT)").unwrap();
    db.execute("CREATE TABLE b (id TEXT PRIMARY KEY, w TEXT)").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO a VALUES ('a{i}', 'b{}', 'v{i}')", i % 25))
            .unwrap();
    }
    for i in 0..25 {
        db.execute(&format!("INSERT INTO b VALUES ('b{i}', 'w{i}')")).unwrap();
    }
    db.execute("CREATE INDEX idx_a_bref ON a (b_ref)").unwrap();
    let mapping = DatasetMapping::new("d")
        .with_table(
            TableMapping::new("a", format!("{V}A"), IriTemplate::new("http://d/a/{}"), "id")
                .with_literal("v", &format!("{V}v"))
                .with_reference("b_ref", &format!("{V}toB"), IriTemplate::new("http://d/b/{}")),
        )
        .with_table(
            TableMapping::new("b", format!("{V}B"), IriTemplate::new("http://d/b/{}"), "id")
                .with_literal("w", &format!("{V}w")),
        );
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("d", db, mapping));
    let sparql = format!(
        "SELECT ?v ?w WHERE {{ ?a <{V}v> ?v . ?a <{V}toB> ?b . ?b <{V}w> ?w }}"
    );

    let run = |mode: PlanMode, mt: MergeTranslation| {
        let mut cfg = PlanConfig::new(mode, NetworkProfile::GAMMA2);
        cfg.merge_translation = mt;
        let engine = FederatedEngine::new(lake.clone(), cfg);
        engine.execute_sparql(&sparql).unwrap()
    };
    let unaware = run(PlanMode::Unaware, MergeTranslation::Optimized);
    let optimized = run(PlanMode::AWARE, MergeTranslation::Optimized);
    let naive = run(PlanMode::AWARE, MergeTranslation::Naive);

    // All three agree on answers.
    assert_eq!(answers(&optimized.rows), answers(&unaware.rows));
    assert_eq!(answers(&naive.rows), answers(&unaware.rows));
    assert_eq!(naive.stats.sql_queries, 51, "N+1 behaviour");
    // Qualitative ordering of §3: naive merged > unaware > optimized.
    assert!(
        optimized.stats.execution_time < unaware.stats.execution_time,
        "optimized {:?} vs unaware {:?}",
        optimized.stats.execution_time,
        unaware.stats.execution_time
    );
    assert!(
        naive.stats.execution_time > optimized.stats.execution_time,
        "naive {:?} vs optimized {:?}",
        naive.stats.execution_time,
        optimized.stats.execution_time
    );
}

#[test]
fn heterogeneous_lake_rdf_plus_relational() {
    // One star answered by a native RDF source, one by a relational one.
    let mut g = Graph::new();
    for i in 0..10 {
        let s = fedlake_rdf::Term::iri(format!("http://lake.example/drugbank/drug/dr{i}"));
        g.insert_terms(
            s.clone(),
            fedlake_rdf::Term::iri(fedlake_rdf::vocab::rdf::TYPE),
            fedlake_rdf::Term::iri(format!("{V}Drug")),
        );
        g.insert_terms(
            s.clone(),
            fedlake_rdf::Term::iri(format!("{V}treats")),
            fedlake_rdf::Term::iri(format!(
                "http://lake.example/diseasome/disease/d{}",
                i % 10
            )),
        );
        g.insert_terms(
            s,
            fedlake_rdf::Term::iri(format!("{V}drugName")),
            fedlake_rdf::Term::literal(format!("drug {i}")),
        );
    }
    let (mut lake, _) = build_lake(true);
    lake.add_source(DataSource::sparql("drugbank", g));

    let sparql = format!(
        "SELECT ?dn ?n WHERE {{ \
           ?dr a <{V}Drug> . ?dr <{V}drugName> ?dn . ?dr <{V}treats> ?d . \
           ?d <{V}name> ?n }}"
    );
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        let engine =
            FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA1));
        let result = engine.execute_sparql(&sparql).unwrap();
        assert_eq!(result.rows.len(), 10, "mode {}: {}", mode.label(), result.explain);
    }
}

#[test]
fn traces_are_monotone_and_deterministic() {
    let (lake, _) = build_lake(true);
    let engine = FederatedEngine::new(
        lake.clone(),
        PlanConfig::unaware(NetworkProfile::GAMMA2),
    );
    let a = engine.execute_sparql(&q_join_filter()).unwrap();
    let b = engine.execute_sparql(&q_join_filter()).unwrap();
    assert_eq!(a.trace, b.trace, "virtual-clock runs are deterministic");
    let pts = a.trace.points();
    assert!(!pts.is_empty());
    for w in pts.windows(2) {
        assert!(w[0].0 <= w[1].0, "time is monotone");
        assert!(w[0].1 < w[1].1, "answer count strictly increases");
    }
    assert!(a.trace.total_time() >= pts.last().unwrap().0);
}

#[test]
fn limit_stops_streaming_early() {
    let (lake, _) = build_lake(true);
    let no_limit = FederatedEngine::new(
        lake.clone(),
        PlanConfig::unaware(NetworkProfile::GAMMA2),
    )
    .execute_sparql(&q_join_filter())
    .unwrap();
    let limited = FederatedEngine::new(
        lake,
        PlanConfig::unaware(NetworkProfile::GAMMA2),
    )
    .execute_sparql(&format!("{} LIMIT 2", q_join_filter()))
    .unwrap();
    assert_eq!(limited.rows.len(), 2);
    assert!(
        limited.stats.execution_time < no_limit.stats.execution_time,
        "early termination must save simulated time"
    );
}

#[test]
fn union_when_multiple_sources_offer_a_class() {
    // Two relational sources expose the same class: the star becomes a
    // Union of two services, and answers accumulate from both.
    let make_source = |id: &str, offset: usize| {
        let mut db = Database::new(id);
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT)").unwrap();
        for i in 0..5 {
            db.execute(&format!(
                "INSERT INTO gene VALUES ('g{}', 'label {}')",
                i + offset,
                i + offset
            ))
            .unwrap();
        }
        let mapping = DatasetMapping::new(id).with_table(
            TableMapping::new(
                "gene",
                format!("{V}Gene"),
                IriTemplate::new(format!("http://lake.example/{id}/gene/{{}}")),
                "id",
            )
            .with_literal("label", &format!("{V}label")),
        );
        DataSource::relational(id, db, mapping)
    };
    let mut lake = DataLake::new();
    lake.add_source(make_source("left", 0));
    lake.add_source(make_source("right", 100));
    let sparql = format!("SELECT ?g ?l WHERE {{ ?g a <{V}Gene> . ?g <{V}label> ?l }}");
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        let engine =
            FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA1));
        let r = engine.execute_sparql(&sparql).unwrap();
        assert_eq!(r.rows.len(), 10, "mode {}:\n{}", mode.label(), r.explain);
        assert!(r.explain.contains("Union"), "{}", r.explain);
        assert_eq!(r.stats.services, 2);
    }
}

#[test]
fn federated_solution_modifiers() {
    let (lake, _) = build_lake(true);
    let base = format!(
        "SELECT ?n WHERE {{ ?g <{V}associatedDisease> ?d . ?d <{V}name> ?n }}"
    );
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::NO_DELAY));

    // DISTINCT collapses the 40 gene–disease pairs to 10 disease names.
    let distinct = engine
        .execute_sparql(&base.replace("SELECT ?n", "SELECT DISTINCT ?n"))
        .unwrap();
    assert_eq!(distinct.rows.len(), 10);

    // ORDER BY + LIMIT + OFFSET paginate deterministically.
    let page = engine
        .execute_sparql(&format!(
            "{} ORDER BY ?n LIMIT 3 OFFSET 2",
            base.replace("SELECT ?n", "SELECT DISTINCT ?n")
        ))
        .unwrap();
    assert_eq!(page.rows.len(), 3);
    let names: Vec<String> = page
        .rows
        .iter()
        .map(|r| {
            r.get(&fedlake_sparql::binding::Var::new("n"))
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical
                .clone()
        })
        .collect();
    assert_eq!(names, vec!["disease 2", "disease 3", "disease 4"]);
}

#[test]
fn empty_lake_and_unanswerable_queries_error_cleanly() {
    let lake = DataLake::new();
    let engine = FederatedEngine::new(lake, PlanConfig::default());
    let err = engine
        .execute_sparql("SELECT ?x WHERE { ?x <http://nope/p> ?y }")
        .unwrap_err();
    assert!(matches!(err, fedlake_core::FedError::NoSourceFor(_)), "{err}");

    // Empty BGP is rejected by the federated planner.
    let (lake, _) = build_lake(true);
    let engine = FederatedEngine::new(lake, PlanConfig::default());
    let err = engine.execute_sparql("SELECT * WHERE { }").unwrap_err();
    assert!(matches!(err, fedlake_core::FedError::Unsupported(_)), "{err}");
}

#[test]
fn query_with_no_answers_completes_with_clean_trace() {
    let (lake, _) = build_lake(true);
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::GAMMA2));
    let r = engine
        .execute_sparql(&format!(
            r#"SELECT ?g WHERE {{ ?g <{V}species> ?sp . FILTER(?sp = "No such species") }}"#
        ))
        .unwrap();
    assert!(r.rows.is_empty());
    assert_eq!(r.trace.count(), 0);
    assert!(r.trace.first_answer().is_none());
    // Completion time is still recorded (sources were contacted).
    assert!(r.trace.total_time() > std::time::Duration::ZERO);
    assert!(r.stats.messages > 0);
}

#[test]
fn optional_federation_matches_oracle() {
    // OPTIONAL across sources: every gene row survives; names only where
    // the disease exists. Verified against the local OPTIONAL-capable
    // evaluator over the lifted lake.
    let (lake, oracle) = build_lake(true);
    let sparql = format!(
        "SELECT ?g ?sp ?n WHERE {{\n\
           ?g a <{V}Gene> . ?g <{V}species> ?sp .\n\
           OPTIONAL {{ ?g <{V}associatedDisease> ?d . ?d <{V}name> ?n }}\n\
         }}"
    );
    let expected = oracle_answers(&oracle, &sparql);
    assert_eq!(expected.len(), 40, "one row per gene");
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
            let engine = FederatedEngine::new(lake.clone(), PlanConfig::new(mode, network));
            let r = engine.execute_sparql(&sparql).unwrap();
            assert_eq!(
                answers(&r.rows),
                expected,
                "mode {} network {}\n{}",
                mode.label(),
                network.name,
                r.explain
            );
            assert!(r.explain.contains("LeftJoin (OPTIONAL)"), "{}", r.explain);
        }
    }
}

#[test]
fn optional_with_unmatched_rows() {
    // A lake where some genes reference a disease that does not exist:
    // those rows must survive the OPTIONAL with ?n unbound.
    let mut affy = Database::new("affymetrix");
    affy.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)")
        .unwrap();
    for i in 0..6 {
        // Even genes point at existing diseases, odd ones at missing ones.
        affy.execute(&format!(
            "INSERT INTO gene VALUES ('g{i}', 'gene {i}', 'd{}')",
            if i % 2 == 0 { i.to_string() } else { format!("missing{i}") }
        ))
        .unwrap();
    }
    let affy_mapping = DatasetMapping::new("affymetrix").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://lake.example/affymetrix/gene/{}"),
            "id",
        )
        .with_literal("label", &format!("{V}label"))
        .with_reference(
            "disease",
            &format!("{V}associatedDisease"),
            IriTemplate::new("http://lake.example/diseasome/disease/{}"),
        ),
    );
    let mut dis = Database::new("diseasome");
    dis.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
    for i in [0, 2, 4] {
        dis.execute(&format!("INSERT INTO disease VALUES ('d{i}', 'disease {i}')"))
            .unwrap();
    }
    let dis_mapping = DatasetMapping::new("diseasome").with_table(
        TableMapping::new(
            "disease",
            format!("{V}Disease"),
            IriTemplate::new("http://lake.example/diseasome/disease/{}"),
            "id",
        )
        .with_literal("name", &format!("{V}name")),
    );
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("affymetrix", affy, affy_mapping));
    lake.add_source(DataSource::relational("diseasome", dis, dis_mapping));

    let sparql = format!(
        "SELECT ?g ?n WHERE {{ ?g <{V}label> ?l . \
         OPTIONAL {{ ?g <{V}associatedDisease> ?d . ?d <{V}name> ?n }} }}"
    );
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::GAMMA1));
    let r = engine.execute_sparql(&sparql).unwrap();
    assert_eq!(r.rows.len(), 6, "{}", r.explain);
    let bound = r
        .rows
        .iter()
        .filter(|row| row.is_bound(&fedlake_sparql::binding::Var::new("n")))
        .count();
    assert_eq!(bound, 3, "only genes with existing diseases bind ?n");
}

#[test]
fn correlated_optionals_are_rejected() {
    let (lake, _) = build_lake(true);
    // ?x is bound only inside OPTIONALs but shared between two of them.
    let sparql = format!(
        "SELECT * WHERE {{ ?g a <{V}Gene> . \
         OPTIONAL {{ ?g <{V}label> ?x }} . \
         OPTIONAL {{ ?d <{V}name> ?x }} }}"
    );
    let engine = FederatedEngine::new(lake, PlanConfig::default());
    let err = engine.execute_sparql(&sparql).unwrap_err();
    assert!(matches!(err, fedlake_core::FedError::Unsupported(_)), "{err}");
}

#[test]
fn union_pattern_federates_and_matches_oracle() {
    // { sapiens genes } UNION { musculus genes }, joined with the disease
    // star outside the union — exercises Union + Join over the block.
    let (lake, oracle) = build_lake(true);
    let sparql = format!(
        "SELECT ?g ?n WHERE {{\n\
           {{ ?g <{V}species> \"Homo sapiens\" }} UNION {{ ?g <{V}species> \"Mus musculus\" }}\n\
           ?g <{V}associatedDisease> ?d .\n\
           ?d <{V}name> ?n .\n\
         }}"
    );
    let expected = oracle_answers(&oracle, &sparql);
    assert_eq!(expected.len(), 40, "every gene is one of the two species");
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        let engine =
            FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA1));
        let r = engine.execute_sparql(&sparql).unwrap();
        assert_eq!(
            answers(&r.rows),
            expected,
            "mode {}\n{}",
            mode.label(),
            r.explain
        );
        assert!(r.explain.contains("Union"), "{}", r.explain);
    }
}

#[test]
fn pure_union_query_without_required_part() {
    let (lake, oracle) = build_lake(true);
    let sparql = format!(
        "SELECT ?x WHERE {{ {{ ?x a <{V}Gene> }} UNION {{ ?x a <{V}Disease> }} }}"
    );
    let expected = oracle_answers(&oracle, &sparql);
    assert_eq!(expected.len(), 50, "40 genes + 10 diseases");
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::NO_DELAY));
    let r = engine.execute_sparql(&sparql).unwrap();
    assert_eq!(answers(&r.rows), expected, "{}", r.explain);
}

#[test]
fn union_with_filter_and_optional_composes() {
    let (lake, oracle) = build_lake(true);
    // A filter over the union variable plus an optional extension.
    let sparql = format!(
        "SELECT ?g ?sp ?n WHERE {{\n\
           {{ ?g <{V}species> ?sp . FILTER(CONTAINS(?sp, \"sapiens\")) }}\n\
           UNION\n\
           {{ ?g <{V}species> ?sp . FILTER(CONTAINS(?sp, \"musculus\")) }}\n\
           OPTIONAL {{ ?g <{V}associatedDisease> ?d . ?d <{V}name> ?n }}\n\
         }}"
    );
    let expected = oracle_answers(&oracle, &sparql);
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::GAMMA1));
    let r = engine.execute_sparql(&sparql).unwrap();
    assert_eq!(answers(&r.rows), expected, "{}", r.explain);
    assert!(r.explain.contains("Union"), "{}", r.explain);
    assert!(r.explain.contains("LeftJoin"), "{}", r.explain);
}

#[test]
fn bind_join_agrees_with_hash_join_and_ships_fewer_rows() {
    use fedlake_core::EngineJoin;
    // A selective left (4 sapiens genes out of 40) against a large right
    // (200 diseases): the bind join ships only the 4 needed keys instead
    // of fetching the whole disease table.
    let mut affy = Database::new("affymetrix");
    affy.execute(
        "CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, species TEXT, disease TEXT)",
    )
    .unwrap();
    for i in 0..40 {
        let species = if i % 10 == 0 { "Homo sapiens" } else { "Mus musculus" };
        affy.execute(&format!(
            "INSERT INTO gene VALUES ('g{i}', 'gene {i}', '{species}', 'd{}')",
            i * 5
        ))
        .unwrap();
    }
    let affy_mapping = DatasetMapping::new("affymetrix").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://lake.example/affymetrix/gene/{}"),
            "id",
        )
        .with_literal("label", &format!("{V}label"))
        .with_literal("species", &format!("{V}species"))
        .with_reference(
            "disease",
            &format!("{V}associatedDisease"),
            IriTemplate::new("http://lake.example/diseasome/disease/{}"),
        ),
    );
    let mut dis = Database::new("diseasome");
    dis.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
    for i in 0..200 {
        dis.execute(&format!("INSERT INTO disease VALUES ('d{i}', 'disease {i}')"))
            .unwrap();
    }
    let dis_mapping = DatasetMapping::new("diseasome").with_table(
        TableMapping::new(
            "disease",
            format!("{V}Disease"),
            IriTemplate::new("http://lake.example/diseasome/disease/{}"),
            "id",
        )
        .with_literal("name", &format!("{V}name")),
    );
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("affymetrix", affy, affy_mapping));
    lake.add_source(DataSource::relational("diseasome", dis, dis_mapping));

    let sparql = q_join_filter();
    // This test exercises the *heuristic* EngineJoin knob: the cost-based
    // planner picks bind joins itself and would blur the contrast.
    let mut hash_cfg = PlanConfig::unaware(NetworkProfile::GAMMA2);
    hash_cfg.cost_based = false;
    let hash = FederatedEngine::new(lake.clone(), hash_cfg)
        .execute_sparql(&sparql)
        .unwrap();
    let mut cfg = PlanConfig::unaware(NetworkProfile::GAMMA2);
    cfg.cost_based = false;
    cfg.engine_join = EngineJoin::Bind { batch_size: 8 };
    let bind = FederatedEngine::new(lake, cfg)
        .execute_sparql(&sparql)
        .unwrap();
    assert_eq!(answers(&bind.rows), answers(&hash.rows), "{}", bind.explain);
    assert_eq!(bind.rows.len(), 4);
    assert!(bind.explain.contains("BindJoin"), "{}", bind.explain);
    assert!(
        bind.stats.rows_transferred < hash.stats.rows_transferred,
        "bind {} vs hash {}",
        bind.stats.rows_transferred,
        hash.stats.rows_transferred
    );
    // And under this (selective, slow-network) regime it is faster.
    assert!(
        bind.stats.execution_time < hash.stats.execution_time,
        "bind {:?} vs hash {:?}",
        bind.stats.execution_time,
        hash.stats.execution_time
    );
}

#[test]
fn bind_join_composes_with_optional_and_union() {
    use fedlake_core::EngineJoin;
    let (lake, oracle) = build_lake(true);
    let sparql = format!(
        "SELECT ?g ?n WHERE {{\n\
           {{ ?g <{V}species> \"Homo sapiens\" }} UNION {{ ?g <{V}species> \"Mus musculus\" }}\n\
           OPTIONAL {{ ?g <{V}associatedDisease> ?d . ?d <{V}name> ?n }}\n\
         }}"
    );
    let expected = oracle_answers(&oracle, &sparql);
    let mut cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
    cfg.engine_join = EngineJoin::Bind { batch_size: 4 };
    let r = FederatedEngine::new(lake, cfg).execute_sparql(&sparql).unwrap();
    assert_eq!(answers(&r.rows), expected, "{}", r.explain);
}

#[test]
fn fed_result_serializes_to_w3c_formats() {
    let (lake, _) = build_lake(true);
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::NO_DELAY));
    let r = engine
        .execute_sparql(&format!(
            "SELECT ?g ?n WHERE {{ ?g <{V}associatedDisease> ?d . ?d <{V}name> ?n }} \
             ORDER BY ?g LIMIT 2"
        ))
        .unwrap();
    let json = r.to_json();
    assert!(json.starts_with("{\"head\":{\"vars\":[\"g\",\"n\"]}"), "{json}");
    assert!(json.contains("\"type\":\"uri\""), "{json}");
    assert!(json.contains("\"type\":\"literal\""), "{json}");
    assert_eq!(json.matches("\"g\":").count(), 2, "{json}");
    let csv = r.to_csv();
    let lines: Vec<&str> = csv.trim_end().split("\r\n").collect();
    assert_eq!(lines[0], "g,n");
    assert_eq!(lines.len(), 3);
    assert!(lines[1].starts_with("http://lake.example/affymetrix/gene/"), "{csv}");
}

#[test]
fn batched_messages_reduce_simulated_time_but_not_answers() {
    let (lake, _) = build_lake(true);
    let run = |rows_per_message: usize| {
        let mut cfg = PlanConfig::unaware(NetworkProfile::GAMMA2);
        cfg.rows_per_message = rows_per_message;
        FederatedEngine::new(lake.clone(), cfg)
            .execute_sparql(&q_join_filter())
            .unwrap()
    };
    let per_row = run(1);
    let batched = run(32);
    assert_eq!(answers(&per_row.rows), answers(&batched.rows));
    assert!(batched.stats.messages < per_row.stats.messages);
    assert!(batched.stats.execution_time < per_row.stats.execution_time);
    // Rows transferred are identical — only the framing changes.
    assert_eq!(batched.stats.rows_transferred, per_row.stats.rows_transferred);
}

// ---------------------------------------------------------------------------
// The SPARQL↔SQL boundary, one regression per class of `sql_boundary.rs`:
// each minimal query answers what the oracle answers under every plan.
// ---------------------------------------------------------------------------

/// Where the boundary probe mints its keys.
const T: &str = "http://lake.example/t/";

/// The boundary probe: `t(id TEXT PRIMARY KEY, i INT, d DOUBLE, s TEXT)`
/// with every column indexed and the rows (`a/b`, 5, 3.0, "5"), (`a.c`, 123,
/// 1.5, "Homo") and (`x`, 2^53 + 1, −0.0, "abc").
fn boundary_lake() -> (DataLake, Graph) {
    let mut db = Database::new("probe");
    db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, i INT, d DOUBLE, s TEXT)").unwrap();
    let rows = [("a/b", 5, 3.0, "5"), ("a.c", 123, 1.5, "Homo"), ("x", (1 << 53) + 1, -0.0, "abc")];
    for (id, i, d, s) in rows {
        db.insert_row("t", vec![Value::text(id), Value::Int(i), Value::Double(d), Value::text(s)])
            .unwrap();
    }
    for c in ["i", "d", "s"] {
        db.execute(&format!("CREATE INDEX idx_t_{c} ON t ({c})")).unwrap();
    }
    let mut tm = TableMapping::new("t", format!("{V}T"), IriTemplate::new(format!("{T}{{}}")), "id");
    for c in ["i", "d", "s"] {
        tm = tm.with_literal(c, &format!("{V}{c}"));
    }
    let mapping = DatasetMapping::new("probe").with_table(tm);
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("probe", db, mapping));
    (lake, oracle)
}

/// Each `WHERE` body answers what the oracle answers under the unaware
/// plan, the paper's aware plan and `PushAll`, on a slow network.
fn each_matches_the_oracle(bodies: &[String]) {
    let (lake, oracle) = boundary_lake();
    let push_all = PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll };
    for body in bodies {
        let sparql = format!("SELECT * WHERE {{ {body} }}");
        let want = oracle_answers(&oracle, &sparql);
        for mode in [PlanMode::Unaware, PlanMode::AWARE, push_all] {
            let engine =
                FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA3));
            let label = mode.label();
            let result =
                engine.execute_sparql(&sparql).unwrap_or_else(|e| panic!("{body} under {label}: {e}"));
            assert_eq!(answers(&result.rows), want, "{body} under {label}: {}", result.explain);
        }
    }
}

/// A string function reads an integer's lexical form; SQL's LIKE reads no
/// INT column.
#[test]
fn boundary_a_string_function_on_an_int_column_reads_its_lexical_form() {
    each_matches_the_oracle(&[
        format!(r#"?r <{V}i> ?i . FILTER(CONTAINS(?i, "2"))"#),
        format!(r#"?r <{V}i> ?i . FILTER(STRSTARTS(STR(?i), "12"))"#),
        format!(r#"?r <{V}i> ?i . FILTER(REGEX(?i, "^12"))"#),
        format!(r#"?r <{V}i> ?i . FILTER(STR(?i) = "5")"#),
    ]);
}

/// A constant of another class than the column's compares as SPARQL
/// compares it — term identity for `=` / `!=`, lexical order for the rest —
/// where SQL finds the two incomparable.
#[test]
fn boundary_a_constant_of_another_class_compares_as_sparql_does() {
    each_matches_the_oracle(&[
        format!(r#"?r <{V}i> ?i . FILTER(?i != "abc")"#),
        format!(r#"?r <{V}i> ?i . FILTER(?i < "b")"#),
        format!("?r <{V}s> ?s . FILTER(?s > 5)"),
        format!("?r <{V}s> ?s . FILTER(?s != 5)"),
    ]);
}

/// A language-tagged or `xsd:string` literal is another term than the
/// plain literal a TEXT column lifts to.
#[test]
fn boundary_a_tagged_or_typed_string_is_not_a_plain_literal() {
    each_matches_the_oracle(&[
        format!(r#"?r <{V}s> ?s . FILTER(?s = "Homo"@en)"#),
        format!(
            r#"?r <{V}s> ?s . FILTER(?s = "Homo"^^<http://www.w3.org/2001/XMLSchema#string>)"#
        ),
    ]);
}

/// An integer against a double compares as doubles in SPARQL: 2^53 + 1 is
/// 2^53 there, and not in SQL.
#[test]
fn boundary_an_int_column_against_a_double_compares_as_sparql_does() {
    each_matches_the_oracle(&[format!("?r <{V}i> ?i . FILTER(?i = 9007199254740992.0)")]);
}

/// IRIs order by their text, percent-escapes included; keys order by theirs.
#[test]
fn boundary_iri_order_is_not_key_order() {
    each_matches_the_oracle(&[format!("?r <{V}s> ?s . FILTER(?r < <{T}a.d>)")]);
}

/// An IRI the template would write differently names no row, though the
/// template reads the row's key back from it.
#[test]
fn boundary_a_non_canonical_iri_is_another_term() {
    each_matches_the_oracle(&[format!("?r <{V}s> ?s . FILTER(?r = <{T}a%2fb>)")]);
}

/// SQL's `=` holds between −0.0 and 0.0, and an index seek must find what a
/// scan finds.
#[test]
fn boundary_an_index_seek_equals_a_scan_on_negative_zero() {
    each_matches_the_oracle(&[
        format!("?r <{V}d> ?d . FILTER(?d = 0)"),
        format!("?r <{V}d> ?d . FILTER(?d = 0.0)"),
    ]);
}

/// A ground pattern matches a row only where the row's lifted term is the
/// ground term itself.
#[test]
fn boundary_a_ground_term_matches_its_lift_only() {
    each_matches_the_oracle(&[
        format!("<{T}a%2fb> <{V}s> ?x"),
        format!(r#"?r <{V}i> "05"^^<http://www.w3.org/2001/XMLSchema#integer>"#),
        format!("?r <{V}d> 3"),
        format!(r#"?r <{V}s> "5"@en"#),
    ]);
}

/// A ground IRI no template minted names no row: an empty answer, not an
/// internal error.
#[test]
fn boundary_a_ground_iri_no_template_minted_answers_nothing() {
    each_matches_the_oracle(&[format!("<http://elsewhere.example/t/x> <{V}s> ?x")]);
}


/// A lake that stores the empty key: `e(id TEXT PRIMARY KEY, s TEXT, r
/// TEXT)` with the rows ("", "empty", "a") and ("a", "full", ""), `r` a
/// reference to `e` itself. The empty key's IRI is the template's bare
/// prefix, `<{E}>`.
fn empty_key_lake() -> (DataLake, Graph) {
    let mut db = Database::new("empty");
    db.execute("CREATE TABLE e (id TEXT PRIMARY KEY, s TEXT, r TEXT)").unwrap();
    for (id, s, r) in [("", "empty", "a"), ("a", "full", "")] {
        db.insert_row("e", vec![Value::text(id), Value::text(s), Value::text(r)]).unwrap();
    }
    db.execute("CREATE INDEX idx_e_r ON e (r)").unwrap();
    let template = || IriTemplate::new(format!("{E}{{}}"));
    let mapping = DatasetMapping::new("empty").with_table(
        TableMapping::new("e", format!("{V}E"), template(), "id")
            .with_literal("s", &format!("{V}s"))
            .with_reference("r", &format!("{V}r"), template()),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("empty", db, mapping));
    (lake, oracle)
}

const E: &str = "http://lake.example/e/";

/// A stored empty key is named by the IRI it lifts to, the template's bare
/// prefix: a ground subject or object, a FILTER on the key and a bind-join
/// key all find its row, under every plan mode and under a bind join.
#[test]
fn boundary_a_stored_empty_key_is_named_by_its_bare_iri() {
    let (lake, oracle) = empty_key_lake();
    let push_all = PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll };
    let bodies = [
        format!("?x <{V}s> ?s"),
        format!("<{E}> <{V}s> ?s"),
        format!("?x <{V}r> <{E}>"),
        format!("?x <{V}s> ?s . FILTER(?x = <{E}>)"),
        format!("?x <{V}r> ?y . ?y <{V}s> ?s"),
    ];
    let mut bind = PlanConfig::unaware(NetworkProfile::GAMMA2);
    bind.engine_join = fedlake_core::EngineJoin::Bind { batch_size: 8 };
    for body in &bodies {
        let sparql = format!("SELECT * WHERE {{ {body} }}");
        let want = oracle_answers(&oracle, &sparql);
        assert!(!want.is_empty(), "{body}: the oracle answers");
        let configs = [PlanMode::Unaware, PlanMode::AWARE, push_all]
            .map(|mode| PlanConfig::new(mode, NetworkProfile::GAMMA3));
        for cfg in configs.into_iter().chain([bind]) {
            let label = format!("{} {:?}", cfg.mode.label(), cfg.engine_join);
            let result = FederatedEngine::new(lake.clone(), cfg)
                .execute_sparql(&sparql)
                .unwrap_or_else(|e| panic!("{body} under {label}: {e}"));
            assert_eq!(answers(&result.rows), want, "{body} under {label}: {}", result.explain);
        }
    }
}

/// A bind join under `EngineJoin::Bind` answers what the oracle answers.
fn bind_join_result(lake: DataLake, oracle: &Graph, sparql: &str) -> fedlake_core::FedResult {
    let mut cfg = PlanConfig::unaware(NetworkProfile::GAMMA2);
    cfg.engine_join = fedlake_core::EngineJoin::Bind { batch_size: 8 };
    let result = FederatedEngine::new(lake, cfg).execute_sparql(sparql).unwrap();
    assert_eq!(answers(&result.rows), oracle_answers(oracle, sparql), "{}", result.explain);
    result
}

/// A join term no stored value lifts to — an IRI the template would write
/// differently, one it did not mint — is not asked about: a batch of only
/// such terms sends nothing.
#[test]
fn a_bind_batch_with_no_stored_key_asks_nothing() {
    let (mut lake, mut oracle) = boundary_lake();
    // A SPARQL source of links to IRIs of the probe's template.
    let mut links = Graph::new();
    for (i, target) in [format!("{T}a%2fb"), "http://elsewhere.example/t/x".into()].into_iter().enumerate() {
        let link = Term::iri(format!("http://lake.example/link/{i}"));
        let triples = [
            (Term::iri(vocab::rdf::TYPE), Term::iri(format!("{V}Link"))),
            (Term::iri(format!("{V}ref")), Term::iri(target)),
        ];
        for (p, o) in triples {
            links.insert_terms(link.clone(), p.clone(), o.clone());
            oracle.insert_terms(link.clone(), p, o);
        }
    }
    lake.add_source(DataSource::sparql("links", links));
    let sparql = format!("SELECT * WHERE {{ ?x a <{V}Link> . ?x <{V}ref> ?r . ?r <{V}s> ?s }}");
    let result = bind_join_result(lake, &oracle, &sparql);
    assert!(result.explain.contains("BindJoin"), "{}", result.explain);
    assert_eq!(result.stats.sql_queries, 0, "{}", result.explain);
}

/// A NaN or −INF join term is the lift of a stored one, and no `IN` list can
/// carry either, so the planner joins a DOUBLE column by hash, never by
/// binding (a batch of only such keys used to be an internal error).
#[test]
fn a_double_column_is_joined_by_hash_not_bound() {
    let mut db = Database::new("levels");
    db.execute("CREATE TABLE reading (id TEXT PRIMARY KEY, x DOUBLE)").unwrap();
    for (id, x) in [("r0", f64::NAN), ("r1", f64::NEG_INFINITY)] {
        db.insert_row("reading", vec![Value::text(id), Value::Double(x)]).unwrap();
    }
    let mapping = DatasetMapping::new("levels").with_table(
        TableMapping::new(
            "reading",
            format!("{V}Reading"),
            IriTemplate::new("http://lake.example/levels/reading/{}"),
            "id",
        )
        .with_literal("x", &format!("{V}level")),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("levels", db, mapping));
    let sparql = format!("SELECT * WHERE {{ ?x <{V}level> ?v . ?r <{V}level> ?v }}");
    let result = bind_join_result(lake, &oracle, &sparql);
    assert_eq!(result.rows.len(), 2, "each reading joins itself: {}", result.explain);
    assert!(!result.explain.contains("BindJoin"), "{}", result.explain);
}

/// A ground NaN object is the lift of a stored NaN, which SQL cannot
/// select: the documented `Unsupported`, under every plan.
#[test]
fn a_ground_nan_object_is_unsupported() {
    let (lake, _) = boundary_lake();
    let nan = r#""NaN"^^<http://www.w3.org/2001/XMLSchema#double>"#;
    let sparql = format!("SELECT * WHERE {{ ?r <{V}d> {nan} }}");
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        let engine = FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA3));
        let err = engine.execute_sparql(&sparql).unwrap_err();
        assert_eq!(
            err,
            fedlake_core::FedError::Unsupported(format!("object {nan} has no SQL literal")),
            "{}",
            mode.label()
        );
    }
}

/// Heuristic 1 joins two stars inside SQL only on a column where SQL's `=`
/// is the shared variable's term identity: not on a DOUBLE column, where
/// −0.0 = 0.0 holds of two terms and NaN = NaN fails of one.
#[test]
fn boundary_h1_joins_no_double_column_in_sql() {
    let mut db = Database::new("levels");
    db.execute("CREATE TABLE reading (id TEXT PRIMARY KEY, x DOUBLE)").unwrap();
    for (id, x) in [("r0", f64::NAN), ("r1", -0.0), ("r2", 0.0), ("r3", 1.5)] {
        db.insert_row("reading", vec![Value::text(id), Value::Double(x)]).unwrap();
    }
    db.execute("CREATE INDEX idx_reading_x ON reading (x)").unwrap();
    let mapping = DatasetMapping::new("levels").with_table(
        TableMapping::new(
            "reading",
            format!("{V}Reading"),
            IriTemplate::new("http://lake.example/levels/reading/{}"),
            "id",
        )
        .with_literal("x", &format!("{V}level")),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("levels", db, mapping));
    let sparql = format!("SELECT * WHERE {{ ?a <{V}level> ?v . ?b <{V}level> ?v }}");
    let want = oracle_answers(&oracle, &sparql);
    assert_eq!(want.len(), 4, "each reading joins itself only");
    for translation in [MergeTranslation::Optimized, MergeTranslation::Naive] {
        let mut config = PlanConfig::aware(NetworkProfile::GAMMA3);
        config.merge_translation = translation;
        let result = FederatedEngine::new(lake.clone(), config).execute_sparql(&sparql).unwrap();
        assert_eq!(answers(&result.rows), want, "{translation:?}: {}", result.explain);
    }
}

/// An integer stored in a DOUBLE column is the double it rounds to, on both
/// sides of the boundary: the lift reads 2^53 + 1 as 2^53, so SQL must
/// compare 2^53 too, wherever the FILTER runs.
#[test]
fn an_int_stored_in_a_double_column_is_a_double() {
    let mut db = Database::new("levels");
    db.execute("CREATE TABLE reading (id TEXT PRIMARY KEY, x DOUBLE)").unwrap();
    for (id, x) in [("r0", Value::Int((1 << 53) + 1)), ("r1", Value::Int(3))] {
        db.insert_row("reading", vec![Value::text(id), x]).unwrap();
    }
    db.execute("CREATE INDEX idx_reading_x ON reading (x)").unwrap();
    let mapping = DatasetMapping::new("levels").with_table(
        TableMapping::new(
            "reading",
            format!("{V}Reading"),
            IriTemplate::new("http://lake.example/levels/reading/{}"),
            "id",
        )
        .with_literal("x", &format!("{V}level")),
    );
    let oracle = lift_database(&db, &mapping);
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("levels", db, mapping));
    let push_all = PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll };
    for filter in ["?x = 9007199254740992.0", "?x > 9007199254740992.0", "?x < 9007199254740993"] {
        let sparql = format!("SELECT * WHERE {{ ?r <{V}level> ?x . FILTER({filter}) }}");
        let want = oracle_answers(&oracle, &sparql);
        for mode in [PlanMode::Unaware, PlanMode::AWARE, push_all] {
            let engine =
                FederatedEngine::new(lake.clone(), PlanConfig::new(mode, NetworkProfile::GAMMA3));
            let result = engine.execute_sparql(&sparql).unwrap();
            assert_eq!(answers(&result.rows), want, "{filter} under {}: {}", mode.label(), result.explain);
        }
    }
    let Some(DataSource::Relational { db, .. }) = lake.source("levels") else { unreachable!() };
    let stored: Vec<Value> = db.table("reading").unwrap().iter().map(|(_, r)| r[1].clone()).collect();
    assert!(matches!(stored[..], [Value::Double(_), Value::Double(_)]), "stored as {stored:?}");
}
