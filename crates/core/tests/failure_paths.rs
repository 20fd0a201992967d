//! Failure-injection tests: a lake whose semantic layer is broken (wrong
//! table names, wrong columns, malformed mappings) must surface clean
//! errors through the federated engine — never panics, never silent empty
//! results where the failure is detectable.

use fedlake_core::{DataLake, DataSource, FedError, FederatedEngine, PlanConfig};
use fedlake_mapping::{DatasetMapping, IriTemplate, TableMapping};
use fedlake_netsim::NetworkProfile;
use fedlake_relational::Database;

const V: &str = "http://f/v/";

fn db_with_gene_table() -> Database {
    let mut db = Database::new("src");
    db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT)").unwrap();
    db.execute("INSERT INTO gene VALUES ('g1', 'BRCA1')").unwrap();
    db
}

fn engine_with(mapping: DatasetMapping) -> FederatedEngine {
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("src", db_with_gene_table(), mapping));
    FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::NO_DELAY))
}

#[test]
fn mapping_to_missing_table_fails_at_planning() {
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "nonexistent",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "id",
        )
        .with_literal("label", &format!("{V}label")),
    );
    let engine = engine_with(mapping);
    let err = engine
        .execute_sparql(&format!("SELECT ?l WHERE {{ ?g <{V}label> ?l }}"))
        .unwrap_err();
    assert!(matches!(err, FedError::Internal(_)), "{err}");
    assert!(err.to_string().contains("nonexistent"), "{err}");
}

#[test]
fn mapping_to_missing_column_fails_at_execution() {
    // The mapping names a column the table does not have: planning builds
    // SQL, the source rejects it, and the error carries the column name.
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "id",
        )
        .with_literal("label", &format!("{V}label"))
        .with_literal("ghost_column", &format!("{V}ghost")),
    );
    let engine = engine_with(mapping);
    let err = engine
        .execute_sparql(&format!(
            "SELECT ?x WHERE {{ ?g <{V}label> ?l . ?g <{V}ghost> ?x }}"
        ))
        .unwrap_err();
    match err {
        // The subject-column lookup catches it at translation time…
        FedError::Internal(m) => assert!(m.contains("ghost"), "{m}"),
        // …or the relational engine rejects the generated SQL.
        FedError::Sql(e) => assert!(e.to_string().contains("ghost"), "{e}"),
        other => panic!("unexpected error kind: {other}"),
    }
}

#[test]
fn mapping_with_wrong_subject_column_errors() {
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "no_such_key",
        )
        .with_literal("label", &format!("{V}label")),
    );
    let engine = engine_with(mapping);
    let err = engine
        .execute_sparql(&format!("SELECT ?l WHERE {{ ?g <{V}label> ?l }}"))
        .unwrap_err();
    // The generated SQL selects the bogus key column; the source rejects.
    assert!(matches!(err, FedError::Sql(_)), "{err}");
}

/// A subject IRI from a namespace the template does not mint names no row:
/// an empty answer, as the oracle gives, not an error.
#[test]
fn ground_subject_no_template_minted_answers_nothing() {
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "id",
        )
        .with_literal("label", &format!("{V}label")),
    );
    let engine = engine_with(mapping);
    let result = engine
        .execute_sparql(&format!(
            "SELECT ?l WHERE {{ <http://other/ns/g1> <{V}label> ?l }}"
        ))
        .unwrap();
    assert!(result.rows.is_empty());
}

#[test]
fn plan_against_missing_source_yields_no_such_source() {
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "id",
        )
        .with_literal("label", &format!("{V}label")),
    );
    let engine = engine_with(mapping);
    let ast = fedlake_sparql::parser::parse_query(&format!(
        "SELECT ?l WHERE {{ ?g <{V}label> ?l }}"
    ))
    .unwrap();
    let planned = engine.plan(&ast).unwrap();
    // The plan names source "src"; an engine over a lake without it must
    // fail with the typed error, not a panic or an opaque string.
    let empty = FederatedEngine::new(
        DataLake::new(),
        PlanConfig::aware(NetworkProfile::NO_DELAY),
    );
    let err = empty.execute_planned(&planned).unwrap_err();
    assert!(matches!(err, FedError::NoSuchSource(ref id) if id == "src"), "{err}");
    assert!(err.to_string().contains("src"), "{err}");
}

#[test]
fn parse_errors_surface_as_sparql_errors() {
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "id",
        )
        .with_literal("label", &format!("{V}label")),
    );
    let engine = engine_with(mapping);
    let err = engine.execute_sparql("SELEC ?x WHER { }").unwrap_err();
    assert!(matches!(err, FedError::Sparql(_)), "{err}");
}

#[test]
fn variable_class_over_relational_source_errors() {
    let mapping = DatasetMapping::new("src").with_table(
        TableMapping::new(
            "gene",
            format!("{V}Gene"),
            IriTemplate::new("http://f/gene/", ""),
            "id",
        )
        .with_literal("label", &format!("{V}label")),
    );
    let engine = engine_with(mapping);
    // `?g a ?c` needs a triple store; the only source is relational, so
    // the translation step rejects the variable class.
    let err = engine
        .execute_sparql("SELECT ?c WHERE { ?g a ?c }")
        .unwrap_err();
    assert!(matches!(err, FedError::Unsupported(_)), "{err}");
}
