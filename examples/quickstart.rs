//! Quickstart: build a two-source Semantic Data Lake by hand, run one
//! federated SPARQL query, and inspect the plan and the answers.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fedlake::core::{DataLake, DataSource, FederatedEngine, PlanConfig};
use fedlake::mapping::{DatasetMapping, IriTemplate, TableMapping};
use fedlake::netsim::NetworkProfile;
use fedlake::relational::Database;

fn main() {
    // 1. A relational source: a tiny gene catalog in an embedded RDBMS.
    let mut db = Database::new("genes");
    db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)")
        .expect("create table");
    db.execute(
        "INSERT INTO gene VALUES \
         ('brca1', 'BRCA1', 'breast-cancer'), \
         ('tp53', 'TP53', 'li-fraumeni'), \
         ('cftr', 'CFTR', 'cystic-fibrosis')",
    )
    .expect("insert rows");
    db.execute("CREATE INDEX idx_gene_disease ON gene (disease)").expect("create index");

    // 2. Its semantic mapping: table → class, columns → predicates.
    let mapping = DatasetMapping::new("genes").with_table(
        TableMapping::new(
            "gene",
            "http://example.org/vocab/Gene",
            IriTemplate::new("http://example.org/gene/", ""),
            "id",
        )
        .with_literal("label", "http://example.org/vocab/label")
        .with_reference(
            "disease",
            "http://example.org/vocab/associatedDisease",
            IriTemplate::new("http://example.org/disease/", ""),
        ),
    );

    // 3. An RDF source: disease descriptions in a native triple store.
    let mut graph = fedlake::rdf::Graph::new();
    for (id, name) in [
        ("breast-cancer", "Breast cancer"),
        ("li-fraumeni", "Li-Fraumeni syndrome"),
        ("cystic-fibrosis", "Cystic fibrosis"),
    ] {
        let s = fedlake::rdf::Term::iri(format!("http://example.org/disease/{id}"));
        graph.insert_terms(
            s.clone(),
            fedlake::rdf::Term::iri(fedlake::rdf::vocab::rdf::TYPE),
            fedlake::rdf::Term::iri("http://example.org/vocab/Disease"),
        );
        graph.insert_terms(
            s,
            fedlake::rdf::Term::iri("http://example.org/vocab/name"),
            fedlake::rdf::Term::literal(name),
        );
    }

    // 4. The lake keeps both sources in their native data models.
    let mut lake = DataLake::new();
    lake.add_source(DataSource::relational("genes", db, mapping));
    lake.add_source(DataSource::sparql("diseases", graph));

    // 5. Ask a federated question: which diseases are gene-associated?
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::GAMMA1));
    let result = engine
        .execute_sparql(
            r#"SELECT ?gl ?dn WHERE {
                ?g a <http://example.org/vocab/Gene> .
                ?g <http://example.org/vocab/label> ?gl .
                ?g <http://example.org/vocab/associatedDisease> ?d .
                ?d <http://example.org/vocab/name> ?dn .
            }"#,
        )
        .expect("federated execution");

    println!("Plan:\n{}", result.explain);
    println!("Answers ({}):", result.rows.len());
    for row in &result.rows {
        println!("  {row}");
    }
    println!(
        "\nSimulated execution time: {:.3} ms over {} ({} messages, {} rows transferred)",
        result.stats.execution_time.as_secs_f64() * 1000.0,
        result.stats.network,
        result.stats.messages,
        result.stats.rows_transferred,
    );
}
