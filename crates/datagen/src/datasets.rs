//! The ten dataset builders.
//!
//! Each builder fills a 3NF relational database and its RML-style mapping.
//! Index creation follows the paper's policy (§1/§3): primary keys are
//! always indexed; join attributes (FK columns) get the "additional
//! indexes" when [`LakeConfig::join_indexes`] is set; selection attributes
//! get one only when they pass the 15 %-duplication rule
//! ([`fedlake_relational::stats`]) — which is exactly why the Affymetrix
//! species name ends up unindexed.

use crate::vocab::{class, entity_template, pred, shared};
use crate::LakeConfig;
use fedlake_mapping::{DatasetMapping, TableMapping};
use fedlake_relational::stats::column_stats;
use fedlake_prng::Prng;
use fedlake_relational::{Database, Value};

/// Builds one dataset by id. Panics on unknown ids (the caller iterates
/// [`crate::DATASET_IDS`]).
pub(crate) fn build_dataset(config: &LakeConfig, id: &str) -> (Database, DatasetMapping) {
    match id {
        "chebi" => chebi(config),
        "kegg" => kegg(config),
        "drugbank" => drugbank(config),
        "diseasome" => diseasome(config),
        "sider" => sider(config),
        "tcga" => tcga(config),
        "affymetrix" => affymetrix(config),
        "linkedct" => linkedct(config),
        "medicare" => medicare(config),
        "dailymed" => dailymed(config),
        other => panic!("unknown dataset {other}"),
    }
}

/// Entity counts shared across datasets (referential integrity of the
/// cross-dataset links depends on these).
pub(crate) fn gene_count(config: &LakeConfig) -> usize {
    config.rows(1500)
}

/// Number of diseases minted by Diseasome.
pub(crate) fn disease_count(config: &LakeConfig) -> usize {
    config.rows(400)
}

/// Number of drugs minted by DrugBank.
pub(crate) fn drug_count(config: &LakeConfig) -> usize {
    config.rows(1200)
}

fn rng_for(config: &LakeConfig, dataset: &str) -> Prng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dataset.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    Prng::seed_from_u64(config.seed ^ h)
}

/// Creates a selection index only when the paper's 15 % rule allows it.
fn selection_index(db: &mut Database, table: &str, col: &str) {
    let indexable = db
        .table(table)
        .and_then(|t| column_stats(t, col))
        .is_some_and(|s| s.is_indexable());
    if indexable {
        db.create_index(table, &format!("idx_{table}_{col}"), &[col.to_string()], false)
            .expect("selection index creation");
    }
}

fn join_index(db: &mut Database, table: &str, col: &str) {
    db.create_index(table, &format!("idx_{table}_{col}"), &[col.to_string()], false)
        .expect("join index creation");
}

fn pick<'a>(rng: &mut Prng, weighted: &[(&'a str, u32)]) -> &'a str {
    let total: u32 = weighted.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (v, w) in weighted {
        if roll < *w {
            return v;
        }
        roll -= w;
    }
    weighted.last().expect("non-empty weights").0
}

const DISEASE_KINDS: [(&str, u32); 5] = [
    ("carcinoma", 2),
    ("syndrome", 3),
    ("deficiency", 2),
    ("disorder", 2),
    ("anemia", 1),
];

const SPECIES: [(&str, u32); 4] = [
    // "Homo sapiens" in ~40 % of records — above the 15 % threshold, so
    // the species attribute must not receive an index (§1).
    ("Homo sapiens", 40),
    ("Mus musculus", 30),
    ("Rattus norvegicus", 20),
    ("Danio rerio", 10),
];

fn chebi(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "chebi");
    let mut db = Database::new("chebi");
    db.execute(
        "CREATE TABLE compound (id TEXT PRIMARY KEY, name TEXT NOT NULL, \
         status TEXT, charge INT, mass DOUBLE)",
    )
    .expect("chebi ddl");
    let n = config.rows(2000);
    for i in 0..n {
        let status = pick(&mut rng, &[("checked", 60), ("submitted", 30), ("obsolete", 10)]);
        let charge = rng.gen_range(-3i64..=3);
        let mass = rng.gen_range(50.0..900.0f64);
        // Low-selectivity suffixes: Q1 filters on "acid", which keeps most
        // rows — the regime where engine-side filtering beats RDB-side.
        let kind = pick(&mut rng, &[("acid", 80), ("ester", 10), ("amine", 5), ("oxide", 5)]);
        db.insert_row(
            "compound",
            vec![
                Value::text(format!("ch{i}")),
                Value::text(format!("chebi-compound-{i} {kind}")),
                Value::text(status),
                Value::Int(charge),
                Value::Double((mass * 100.0).round() / 100.0),
            ],
        )
        .expect("chebi insert");
    }
    if config.selection_indexes {
        selection_index(&mut db, "compound", "name");
        selection_index(&mut db, "compound", "status"); // rejected: skewed
    }
    let mapping = DatasetMapping::new("chebi").with_table(
        TableMapping::new(
            "compound",
            class("chebi", "Compound"),
            entity_template("chebi", "compound"),
            "id",
        )
        .with_literal("name", &pred("chebi", "name"))
        .with_literal("status", &pred("chebi", "status"))
        .with_literal("charge", &pred("chebi", "charge"))
        .with_literal("mass", &pred("chebi", "mass")),
    );
    (db, mapping)
}

fn kegg(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "kegg");
    let mut db = Database::new("kegg");
    db.execute(
        "CREATE TABLE compound (id TEXT PRIMARY KEY, name TEXT NOT NULL, \
         formula TEXT, mass DOUBLE)",
    )
    .expect("kegg ddl");
    db.execute(
        "CREATE TABLE enzyme (id TEXT PRIMARY KEY, name TEXT NOT NULL, compound TEXT, \
         FOREIGN KEY (compound) REFERENCES compound (id))",
    )
    .expect("kegg ddl");
    let nc = config.rows(1500);
    for i in 0..nc {
        let mass = rng.gen_range(50.0..900.0f64);
        db.insert_row(
            "compound",
            vec![
                Value::text(format!("kc{i}")),
                Value::text(format!("kegg-compound-{i}")),
                Value::text(format!("C{}H{}O{}", rng.gen_range(1..40), rng.gen_range(1..60), rng.gen_range(0..10))),
                Value::Double((mass * 100.0).round() / 100.0),
            ],
        )
        .expect("kegg insert");
    }
    let ne = config.rows(800);
    for i in 0..ne {
        let c = rng.gen_range(0..nc);
        db.insert_row(
            "enzyme",
            vec![
                Value::text(format!("ke{i}")),
                Value::text(format!("enzyme-{i}")),
                Value::text(format!("kc{c}")),
            ],
        )
        .expect("kegg insert");
    }
    if config.join_indexes {
        join_index(&mut db, "enzyme", "compound");
    }
    if config.selection_indexes {
        selection_index(&mut db, "compound", "name");
    }
    let compound_tmpl = entity_template("kegg", "compound");
    let mapping = DatasetMapping::new("kegg")
        .with_table(
            TableMapping::new(
                "compound",
                class("kegg", "Compound"),
                compound_tmpl.clone(),
                "id",
            )
            .with_literal("name", &pred("kegg", "name"))
            .with_literal("formula", &pred("kegg", "formula"))
            .with_literal("mass", &pred("kegg", "mass")),
        )
        .with_table(
            TableMapping::new(
                "enzyme",
                class("kegg", "Enzyme"),
                entity_template("kegg", "enzyme"),
                "id",
            )
            .with_literal("name", &pred("kegg", "name"))
            .with_reference("compound", &pred("kegg", "substrate"), compound_tmpl),
        );
    (db, mapping)
}

fn drugbank(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "drugbank");
    let mut db = Database::new("drugbank");
    db.execute(
        "CREATE TABLE drug (id TEXT PRIMARY KEY, name TEXT NOT NULL, mass DOUBLE, \
         formula TEXT)",
    )
    .expect("drugbank ddl");
    db.execute(
        "CREATE TABLE drug_target (id TEXT PRIMARY KEY, drug TEXT NOT NULL, \
         gene TEXT NOT NULL, action TEXT, \
         FOREIGN KEY (drug) REFERENCES drug (id))",
    )
    .expect("drugbank ddl");
    let nd = drug_count(config);
    for i in 0..nd {
        let mass = rng.gen_range(100.0..800.0f64);
        db.insert_row(
            "drug",
            vec![
                Value::text(format!("dr{i}")),
                Value::text(format!("drug-{i}-{}", pick(&mut rng, &[("mab", 2), ("nib", 2), ("statin", 1), ("cillin", 1), ("azole", 1)]))),
                Value::Double((mass * 100.0).round() / 100.0),
                Value::text(format!("C{}H{}N{}", rng.gen_range(5..40), rng.gen_range(5..60), rng.gen_range(0..8))),
            ],
        )
        .expect("drugbank insert");
    }
    let nt = config.rows(2000);
    let ng = gene_count(config);
    for i in 0..nt {
        db.insert_row(
            "drug_target",
            vec![
                Value::text(format!("dt{i}")),
                Value::text(format!("dr{}", rng.gen_range(0..nd))),
                Value::text(format!("g{}", rng.gen_range(0..ng))),
                Value::text(pick(&mut rng, &[("inhibitor", 50), ("agonist", 30), ("antagonist", 20)])),
            ],
        )
        .expect("drugbank insert");
    }
    if config.join_indexes {
        join_index(&mut db, "drug_target", "drug");
        join_index(&mut db, "drug_target", "gene");
    }
    if config.selection_indexes {
        selection_index(&mut db, "drug", "name");
    }
    let mapping = DatasetMapping::new("drugbank")
        .with_table(
            TableMapping::new(
                "drug",
                class("drugbank", "Drug"),
                shared::drug_template(),
                "id",
            )
            .with_literal("name", &pred("drugbank", "name"))
            .with_literal("mass", &pred("drugbank", "molecularWeight"))
            .with_literal("formula", &pred("drugbank", "formula")),
        )
        .with_table(
            TableMapping::new(
                "drug_target",
                class("drugbank", "Target"),
                entity_template("drugbank", "target"),
                "id",
            )
            .with_reference("drug", &pred("drugbank", "drug"), shared::drug_template())
            .with_reference("gene", &pred("drugbank", "gene"), shared::gene_template())
            .with_literal("action", &pred("drugbank", "action")),
        );
    (db, mapping)
}

/// The logical Diseasome content, shared by the normalized (3NF) and
/// denormalized builders so both physical designs hold identical data —
/// the §5 "not normalized tables" study depends on that.
struct DiseasomeContent {
    /// (id, name, class, size)
    diseases: Vec<(String, String, &'static str, i64)>,
    /// (id, label, chromosome, disease id)
    genes: Vec<(String, String, String, String)>,
}

fn diseasome_content(config: &LakeConfig) -> DiseasomeContent {
    let mut rng = rng_for(config, "diseasome");
    let nd = disease_count(config);
    let mut diseases = Vec::with_capacity(nd);
    for i in 0..nd {
        let kind = pick(&mut rng, &DISEASE_KINDS);
        let cls = pick(
            &mut rng,
            &[("Cancer", 25), ("Metabolic", 20), ("Neurological", 20), ("Cardiovascular", 15), ("Immunological", 10), ("Unclassified", 10)],
        );
        diseases.push((
            format!("d{i}"),
            format!("disease-{i} {kind}"),
            cls,
            rng.gen_range(1i64..200),
        ));
    }
    let ng = gene_count(config);
    let mut genes = Vec::with_capacity(ng);
    for i in 0..ng {
        genes.push((
            format!("g{i}"),
            format!("GENE{i}"),
            format!("chr{}", rng.gen_range(1..=23)),
            format!("d{}", rng.gen_range(0..nd)),
        ));
    }
    DiseasomeContent { diseases, genes }
}

fn diseasome(config: &LakeConfig) -> (Database, DatasetMapping) {
    if config.denormalized.iter().any(|d| d == "diseasome") {
        return diseasome_denormalized(config);
    }
    let content = diseasome_content(config);
    let mut db = Database::new("diseasome");
    db.execute(
        "CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT NOT NULL, \
         class TEXT, size INT)",
    )
    .expect("diseasome ddl");
    db.execute(
        "CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT NOT NULL, \
         chromosome TEXT, disease TEXT NOT NULL, \
         FOREIGN KEY (disease) REFERENCES disease (id))",
    )
    .expect("diseasome ddl");
    for (id, name, cls, size) in &content.diseases {
        db.insert_row(
            "disease",
            vec![
                Value::text(id.clone()),
                Value::text(name.clone()),
                Value::text(*cls),
                Value::Int(*size),
            ],
        )
        .expect("diseasome insert");
    }
    for (id, label, chrom, disease) in &content.genes {
        db.insert_row(
            "gene",
            vec![
                Value::text(id.clone()),
                Value::text(label.clone()),
                Value::text(chrom.clone()),
                Value::text(disease.clone()),
            ],
        )
        .expect("diseasome insert");
    }
    if config.join_indexes {
        // The motivating example's pushed-down join: gene.disease.
        join_index(&mut db, "gene", "disease");
    }
    if config.selection_indexes {
        selection_index(&mut db, "disease", "name");
        selection_index(&mut db, "gene", "label");
        selection_index(&mut db, "disease", "class"); // rejected: skewed
    }
    let mapping = DatasetMapping::new("diseasome")
        .with_table(
            TableMapping::new(
                "disease",
                class("diseasome", "Disease"),
                shared::disease_template(),
                "id",
            )
            .with_literal("name", &pred("diseasome", "name"))
            .with_literal("class", &pred("diseasome", "class"))
            .with_literal("size", &pred("diseasome", "size")),
        )
        .with_table(
            TableMapping::new(
                "gene",
                class("diseasome", "Gene"),
                shared::gene_template(),
                "id",
            )
            .with_literal("label", &pred("diseasome", "label"))
            .with_literal("chromosome", &pred("diseasome", "chromosome"))
            .with_reference(
                "disease",
                &pred("diseasome", "associatedDisease"),
                shared::disease_template(),
            ),
        );
    (db, mapping)
}

/// The denormalized physical design of §5's final research question: one
/// wide `gene_disease` table carrying the gene columns plus its disease's
/// columns, with TWO class mappings over the same table. A Gene–Disease
/// query then needs no join at all at this source.
fn diseasome_denormalized(config: &LakeConfig) -> (Database, DatasetMapping) {
    let content = diseasome_content(config);
    let mut db = Database::new("diseasome");
    db.execute(
        "CREATE TABLE gene_disease (id TEXT PRIMARY KEY, label TEXT NOT NULL, \
         chromosome TEXT, disease TEXT NOT NULL, disease_name TEXT NOT NULL, \
         disease_class TEXT, disease_size INT)",
    )
    .expect("diseasome ddl");
    for (id, label, chrom, disease) in &content.genes {
        let (_, dname, dclass, dsize) = content
            .diseases
            .iter()
            .find(|(did, ..)| did == disease)
            .expect("generated FK resolves");
        db.insert_row(
            "gene_disease",
            vec![
                Value::text(id.clone()),
                Value::text(label.clone()),
                Value::text(chrom.clone()),
                Value::text(disease.clone()),
                Value::text(dname.clone()),
                Value::text(*dclass),
                Value::Int(*dsize),
            ],
        )
        .expect("diseasome insert");
    }
    if config.join_indexes {
        join_index(&mut db, "gene_disease", "disease");
    }
    if config.selection_indexes {
        selection_index(&mut db, "gene_disease", "label");
        selection_index(&mut db, "gene_disease", "disease_name"); // duplicated → rule decides
        selection_index(&mut db, "gene_disease", "disease_class"); // rejected: skewed
    }
    // Two classes over one table: the gene's subject is the primary key,
    // the disease's subject is the (duplicated) FK column. Lifting dedupes
    // the repeated disease triples by RDF set semantics.
    let mapping = DatasetMapping::new("diseasome")
        .with_table(
            TableMapping::new(
                "gene_disease",
                class("diseasome", "Gene"),
                shared::gene_template(),
                "id",
            )
            .with_literal("label", &pred("diseasome", "label"))
            .with_literal("chromosome", &pred("diseasome", "chromosome"))
            .with_reference(
                "disease",
                &pred("diseasome", "associatedDisease"),
                shared::disease_template(),
            ),
        )
        .with_table(
            TableMapping::new(
                "gene_disease",
                class("diseasome", "Disease"),
                shared::disease_template(),
                "disease",
            )
            .with_literal("disease_name", &pred("diseasome", "name"))
            .with_literal("disease_class", &pred("diseasome", "class"))
            .with_literal("disease_size", &pred("diseasome", "size")),
        );
    (db, mapping)
}

fn sider(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "sider");
    let mut db = Database::new("sider");
    db.execute("CREATE TABLE side_effect (id TEXT PRIMARY KEY, name TEXT NOT NULL)")
        .expect("sider ddl");
    db.execute(
        "CREATE TABLE drug_effect (id TEXT PRIMARY KEY, drug TEXT NOT NULL, \
         effect TEXT NOT NULL, frequency TEXT, \
         FOREIGN KEY (effect) REFERENCES side_effect (id))",
    )
    .expect("sider ddl");
    let ns = config.rows(300);
    for i in 0..ns {
        db.insert_row(
            "side_effect",
            vec![Value::text(format!("se{i}")), Value::text(format!("effect-{i}"))],
        )
        .expect("sider insert");
    }
    let nd = drug_count(config);
    let ne = config.rows(3000);
    for i in 0..ne {
        db.insert_row(
            "drug_effect",
            vec![
                Value::text(format!("de{i}")),
                Value::text(format!("dr{}", rng.gen_range(0..nd))),
                Value::text(format!("se{}", rng.gen_range(0..ns))),
                Value::text(pick(&mut rng, &[("common", 50), ("rare", 30), ("very rare", 20)])),
            ],
        )
        .expect("sider insert");
    }
    if config.join_indexes {
        join_index(&mut db, "drug_effect", "drug");
        join_index(&mut db, "drug_effect", "effect");
    }
    let mapping = DatasetMapping::new("sider")
        .with_table(
            TableMapping::new(
                "side_effect",
                class("sider", "SideEffect"),
                entity_template("sider", "effect"),
                "id",
            )
            .with_literal("name", &pred("sider", "name")),
        )
        .with_table(
            TableMapping::new(
                "drug_effect",
                class("sider", "DrugEffect"),
                entity_template("sider", "drugeffect"),
                "id",
            )
            .with_reference("drug", &pred("sider", "drug"), shared::drug_template())
            .with_reference("effect", &pred("sider", "effect"), entity_template("sider", "effect"))
            .with_literal("frequency", &pred("sider", "frequency")),
        );
    (db, mapping)
}

fn tcga(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "tcga");
    let mut db = Database::new("tcga");
    db.execute(
        "CREATE TABLE patient (id TEXT PRIMARY KEY, gender TEXT, age INT, \
         tumor_site TEXT)",
    )
    .expect("tcga ddl");
    db.execute(
        "CREATE TABLE expression (id TEXT PRIMARY KEY, patient TEXT NOT NULL, \
         gene TEXT NOT NULL, value DOUBLE, \
         FOREIGN KEY (patient) REFERENCES patient (id))",
    )
    .expect("tcga ddl");
    let np = config.rows(500);
    for i in 0..np {
        db.insert_row(
            "patient",
            vec![
                Value::text(format!("p{i}")),
                Value::text(pick(&mut rng, &[("female", 52), ("male", 48)])),
                Value::Int(rng.gen_range(20i64..90)),
                Value::text(pick(
                    &mut rng,
                    &[("lung", 20), ("breast", 20), ("colon", 15), ("prostate", 15), ("skin", 10), ("brain", 10), ("kidney", 10)],
                )),
            ],
        )
        .expect("tcga insert");
    }
    let ng = gene_count(config);
    let nx = config.rows(5000);
    for i in 0..nx {
        db.insert_row(
            "expression",
            vec![
                Value::text(format!("x{i}")),
                Value::text(format!("p{}", rng.gen_range(0..np))),
                Value::text(format!("g{}", rng.gen_range(0..ng))),
                Value::Double((rng.gen_range(-4.0..4.0f64) * 1000.0).round() / 1000.0),
            ],
        )
        .expect("tcga insert");
    }
    if config.join_indexes {
        join_index(&mut db, "expression", "patient");
        join_index(&mut db, "expression", "gene");
    }
    let mapping = DatasetMapping::new("tcga")
        .with_table(
            TableMapping::new(
                "patient",
                class("tcga", "Patient"),
                entity_template("tcga", "patient"),
                "id",
            )
            .with_literal("gender", &pred("tcga", "gender"))
            .with_literal("age", &pred("tcga", "age"))
            .with_literal("tumor_site", &pred("tcga", "tumorSite")),
        )
        .with_table(
            TableMapping::new(
                "expression",
                class("tcga", "Expression"),
                entity_template("tcga", "expression"),
                "id",
            )
            .with_reference("patient", &pred("tcga", "patient"), entity_template("tcga", "patient"))
            .with_reference("gene", &pred("tcga", "gene"), shared::gene_template())
            .with_literal("value", &pred("tcga", "value")),
        );
    (db, mapping)
}

fn affymetrix(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "affymetrix");
    let mut db = Database::new("affymetrix");
    db.execute(
        "CREATE TABLE probeset (id TEXT PRIMARY KEY, gene TEXT NOT NULL, \
         species TEXT NOT NULL, chip TEXT)",
    )
    .expect("affymetrix ddl");
    let ng = gene_count(config);
    let n = config.rows(3000);
    for i in 0..n {
        db.insert_row(
            "probeset",
            vec![
                Value::text(format!("ps{i}")),
                Value::text(format!("g{}", rng.gen_range(0..ng))),
                Value::text(pick(&mut rng, &SPECIES)),
                Value::text(pick(&mut rng, &[("HG-U133", 40), ("MG-430", 30), ("RG-230", 20), ("Zebrafish", 10)])),
            ],
        )
        .expect("affymetrix insert");
    }
    if config.join_indexes {
        join_index(&mut db, "probeset", "gene");
    }
    if config.selection_indexes {
        // §1: "The filter expression for the scientific name of the
        // species … is not indexed. No index is created since there are
        // values that are present in more than 15 % of the records."
        // selection_index applies the rule and rejects it.
        selection_index(&mut db, "probeset", "species");
    }
    let mapping = DatasetMapping::new("affymetrix").with_table(
        TableMapping::new(
            "probeset",
            class("affymetrix", "Probeset"),
            entity_template("affymetrix", "probeset"),
            "id",
        )
        .with_reference("gene", &pred("affymetrix", "gene"), shared::gene_template())
        .with_literal("species", &pred("affymetrix", "scientificName"))
        .with_literal("chip", &pred("affymetrix", "chip")),
    );
    (db, mapping)
}

fn linkedct(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "linkedct");
    let mut db = Database::new("linkedct");
    db.execute(
        "CREATE TABLE trial (id TEXT PRIMARY KEY, title TEXT NOT NULL, \
         phase TEXT, category TEXT NOT NULL, condition TEXT NOT NULL)",
    )
    .expect("linkedct ddl");
    let nd = disease_count(config);
    let n = config.rows(2000);
    let ncat = 50.max(n / 40);
    for i in 0..n {
        db.insert_row(
            "trial",
            vec![
                Value::text(format!("t{i}")),
                Value::text(format!("trial-{i} {} study", pick(&mut rng, &DISEASE_KINDS))),
                Value::text(pick(&mut rng, &[("Phase 1", 25), ("Phase 2", 35), ("Phase 3", 25), ("Phase 4", 15)])),
                Value::text(format!("cat-{}", rng.gen_range(0..ncat))),
                Value::text(format!("d{}", rng.gen_range(0..nd))),
            ],
        )
        .expect("linkedct insert");
    }
    if config.join_indexes {
        join_index(&mut db, "trial", "condition");
    }
    if config.selection_indexes {
        selection_index(&mut db, "trial", "title");
        selection_index(&mut db, "trial", "category"); // ~2 % dup: accepted
        selection_index(&mut db, "trial", "phase"); // skewed: rejected
    }
    let mapping = DatasetMapping::new("linkedct").with_table(
        TableMapping::new(
            "trial",
            class("linkedct", "Trial"),
            entity_template("linkedct", "trial"),
            "id",
        )
        .with_literal("title", &pred("linkedct", "title"))
        .with_literal("phase", &pred("linkedct", "phase"))
        .with_literal("category", &pred("linkedct", "category"))
        .with_reference(
            "condition",
            &pred("linkedct", "condition"),
            shared::disease_template(),
        ),
    );
    (db, mapping)
}

fn medicare(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "medicare");
    let mut db = Database::new("medicare");
    db.execute(
        "CREATE TABLE provider (id TEXT PRIMARY KEY, name TEXT NOT NULL, state TEXT)",
    )
    .expect("medicare ddl");
    db.execute(
        "CREATE TABLE prescription (id TEXT PRIMARY KEY, provider TEXT NOT NULL, \
         drug TEXT NOT NULL, claim_count INT, \
         FOREIGN KEY (provider) REFERENCES provider (id))",
    )
    .expect("medicare ddl");
    let np = config.rows(400);
    for i in 0..np {
        db.insert_row(
            "provider",
            vec![
                Value::text(format!("pr{i}")),
                Value::text(format!("provider-{i}")),
                Value::text(format!("state-{}", rng.gen_range(0..30))),
            ],
        )
        .expect("medicare insert");
    }
    let ndr = drug_count(config);
    let n = config.rows(3000);
    for i in 0..n {
        db.insert_row(
            "prescription",
            vec![
                Value::text(format!("rx{i}")),
                Value::text(format!("pr{}", rng.gen_range(0..np))),
                Value::text(format!("dr{}", rng.gen_range(0..ndr))),
                Value::Int(rng.gen_range(1i64..500)),
            ],
        )
        .expect("medicare insert");
    }
    if config.join_indexes {
        join_index(&mut db, "prescription", "provider");
        join_index(&mut db, "prescription", "drug");
    }
    let mapping = DatasetMapping::new("medicare")
        .with_table(
            TableMapping::new(
                "provider",
                class("medicare", "Provider"),
                entity_template("medicare", "provider"),
                "id",
            )
            .with_literal("name", &pred("medicare", "name"))
            .with_literal("state", &pred("medicare", "state")),
        )
        .with_table(
            TableMapping::new(
                "prescription",
                class("medicare", "Prescription"),
                entity_template("medicare", "prescription"),
                "id",
            )
            .with_reference("provider", &pred("medicare", "provider"), entity_template("medicare", "provider"))
            .with_reference("drug", &pred("medicare", "drug"), shared::drug_template())
            .with_literal("claim_count", &pred("medicare", "claimCount")),
        );
    (db, mapping)
}

fn dailymed(config: &LakeConfig) -> (Database, DatasetMapping) {
    let mut rng = rng_for(config, "dailymed");
    let mut db = Database::new("dailymed");
    db.execute(
        "CREATE TABLE label (id TEXT PRIMARY KEY, drug TEXT NOT NULL, \
         dosage TEXT, route TEXT)",
    )
    .expect("dailymed ddl");
    let nd = drug_count(config);
    let n = config.rows(1000);
    for i in 0..n {
        db.insert_row(
            "label",
            vec![
                Value::text(format!("lb{i}")),
                Value::text(format!("dr{}", rng.gen_range(0..nd))),
                Value::text(format!("{} mg", rng.gen_range(5..500))),
                Value::text(pick(&mut rng, &[("oral", 50), ("intravenous", 25), ("topical", 15), ("inhaled", 10)])),
            ],
        )
        .expect("dailymed insert");
    }
    if config.join_indexes {
        join_index(&mut db, "label", "drug");
    }
    let mapping = DatasetMapping::new("dailymed").with_table(
        TableMapping::new(
            "label",
            class("dailymed", "Label"),
            entity_template("dailymed", "label"),
            "id",
        )
        .with_reference("drug", &pred("dailymed", "drug"), shared::drug_template())
        .with_literal("dosage", &pred("dailymed", "dosage"))
        .with_literal("route", &pred("dailymed", "route")),
    );
    (db, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LakeConfig {
        LakeConfig::small()
    }

    #[test]
    fn affymetrix_species_is_not_indexed() {
        // The paper's motivating case: Homo sapiens exceeds 15 % of the
        // records, so the 15 % rule must reject the index even though it
        // was requested as a selection attribute.
        let (db, _) = affymetrix(&cfg());
        assert!(!db.has_index_on("probeset", "species"));
        let probeset = db.table("probeset").unwrap();
        assert!(column_stats(probeset, "species").unwrap().duplication_ratio > 0.15);
        // The join attribute IS indexed.
        assert!(db.has_index_on("probeset", "gene"));
    }

    #[test]
    fn skewed_attributes_rejected_distinct_accepted() {
        let (db, _) = chebi(&cfg());
        assert!(db.has_index_on("compound", "name"));
        assert!(!db.has_index_on("compound", "status"));
        let (db, _) = linkedct(&cfg());
        assert!(db.has_index_on("trial", "category"));
        assert!(!db.has_index_on("trial", "phase"));
        assert!(db.has_index_on("trial", "condition"));
    }

    #[test]
    fn diseasome_join_attr_indexed_per_config() {
        let (db, _) = diseasome(&cfg());
        assert!(db.has_index_on("gene", "disease"));
        let no_join = LakeConfig { join_indexes: false, ..cfg() };
        let (db, _) = diseasome(&no_join);
        assert!(!db.has_index_on("gene", "disease"));
    }

    #[test]
    fn cross_dataset_references_resolve() {
        // Every affymetrix gene reference must exist in diseasome.
        let config = cfg();
        let (affy, _) = affymetrix(&config);
        let (dis, _) = diseasome(&config);
        let genes = dis.table("gene").unwrap().len();
        let rs = affy.query("SELECT DISTINCT gene FROM probeset").unwrap();
        for row in &rs.rows {
            let g = row[0].as_str().unwrap();
            let idx: usize = g[1..].parse().unwrap();
            assert!(idx < genes, "dangling gene ref {g}");
        }
    }

    #[test]
    fn mappings_cover_all_tables() {
        let config = cfg();
        for id in crate::DATASET_IDS {
            let (db, mapping) = build_dataset(&config, id);
            for table in db.table_names() {
                assert!(
                    mapping.for_table(table).is_some(),
                    "{id}.{table} unmapped"
                );
            }
            assert_eq!(mapping.source_id, id);
        }
    }

    #[test]
    fn row_counts_scale() {
        let small = LakeConfig { scale: 0.1, ..Default::default() };
        let (db_small, _) = chebi(&small);
        let (db_big, _) = chebi(&LakeConfig::default());
        assert!(db_small.table("compound").unwrap().len() < db_big.table("compound").unwrap().len());
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        build_dataset(&cfg(), "nope");
    }
}
