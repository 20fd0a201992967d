//! The statistics catalog and the federation cost model.
//!
//! Per-source statistics are collected **deterministically at source
//! registration time** (see [`crate::DataLake::add_source`]): triple
//! counts, per-predicate cardinalities with distinct subject/object
//! counts, and characteristic-set-style star statistics (the set of
//! predicates each subject carries, with how many subjects carry exactly
//! that set). Together they let the planner estimate the cardinality of a
//! star-shaped sub-query and of the joins between stars — the Odyssey-style
//! statistics-based planning the ROADMAP calls for — instead of relying on
//! the fixed selectivity guesses of the heuristic planner.
//!
//! A mapped table's share is read off the table's own profile
//! ([`fedlake_relational::storage::TableProfile`], extended by the rows
//! appended since it was last asked) wherever the profile can describe it,
//! so recollecting a written source costs what was written; a pass over
//! the rows remains for the tables it cannot describe, for RDF sources,
//! and as the definition the tests hold the derivation to.
//!
//! [`FederationCost`] is the cpu/io/network/parallelism decomposition of a
//! plan's estimated execution cost; the network term reads the simulated
//! link parameters (mean delay, per-message overhead, per-row transfer
//! cost), so the same plan costs differently under different
//! [`fedlake_netsim::NetworkProfile`]s — exactly the physical property the
//! paper's Heuristic 2 reacts to, now priced instead of special-cased.

use crate::decompose::StarSubquery;
use crate::source::DataSource;
use fedlake_mapping::DatasetMapping;
use fedlake_rdf::{vocab, Graph, Term, TermId};
use fedlake_relational::storage::Table;
use fedlake_relational::{Database, Value};
use fedlake_sparql::expr::{CmpOp, Expr};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Selectivity assumed for a filter the estimator cannot price from the
/// statistics (REGEX, CONTAINS, arithmetic…). Matches the heuristic
/// planner's long-standing per-constraint guess.
pub const UNKNOWN_FILTER_SELECTIVITY: f64 = 0.4;

/// Selectivity assumed for a range comparison (`<`, `<=`, `>`, `>=`).
pub const RANGE_FILTER_SELECTIVITY: f64 = 0.33;

/// Selectivity assumed for an inequality (`!=`).
pub const NE_FILTER_SELECTIVITY: f64 = 0.9;

/// Statistics for one predicate at one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredicateStats {
    /// Triples with this predicate.
    pub count: u64,
    /// Distinct subjects among them.
    pub distinct_subjects: u64,
    /// Distinct objects among them.
    pub distinct_objects: u64,
}

/// Statistics for one source, collected at registration time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceStatistics {
    /// Total triples the source offers (relational sources count their
    /// lifted triples, including one `rdf:type` per row).
    pub triples: u64,
    /// Distinct subjects across the source.
    pub subjects: u64,
    /// Per-predicate cardinalities, keyed by predicate IRI.
    pub predicates: BTreeMap<String, PredicateStats>,
    /// Characteristic sets: the sorted set of (non-`rdf:type`) predicates
    /// a subject carries, mapped to how many subjects carry exactly that
    /// set. Star cardinality estimation sums the sets that cover a star's
    /// predicates.
    pub characteristic_sets: BTreeMap<Vec<String>, u64>,
}

impl SourceStatistics {
    /// Collects the statistics of one source. Deterministic: every count
    /// is order-independent and the maps are ordered.
    pub(crate) fn collect(source: &DataSource) -> Self {
        match source {
            DataSource::Sparql { graph, .. } => collect_sparql(graph),
            DataSource::Relational { db, mapping, .. } => {
                collect_relational(db, mapping, tally_table)
            }
        }
    }

    /// Multiplies every cardinality by `factor` (triples, subjects,
    /// per-predicate counts, characteristic-set counts), saturating at
    /// `u64::MAX`. This fabricates a catalog that disagrees with the data
    /// by exactly `factor` — the seeded mis-estimate the observability
    /// suite plants to prove the watchdog catches falsified statistics.
    pub fn scale(&mut self, factor: u64) {
        let mul = |v: u64| v.saturating_mul(factor);
        self.triples = mul(self.triples);
        self.subjects = mul(self.subjects);
        for ps in self.predicates.values_mut() {
            ps.count = mul(ps.count);
            ps.distinct_subjects = mul(ps.distinct_subjects);
            ps.distinct_objects = mul(ps.distinct_objects);
        }
        for n in self.characteristic_sets.values_mut() {
            *n = mul(*n);
        }
    }

    /// Subjects whose characteristic set covers all of `preds` (the
    /// predicates of a star). Unknown predicates yield 0; an empty list
    /// matches every subject.
    pub fn star_subjects(&self, preds: &[&str]) -> f64 {
        if preds.is_empty() {
            return self.subjects as f64;
        }
        let covered: u64 = self
            .characteristic_sets
            .iter()
            .filter(|(set, _)| preds.iter().all(|p| set.iter().any(|s| s == p)))
            .map(|(_, n)| n)
            .sum();
        covered as f64
    }

    /// Average triples per subject for `pred` (≥ 1 when the predicate
    /// exists; 1.0 otherwise).
    pub(crate) fn multiplicity(&self, pred: &str) -> f64 {
        match self.predicates.get(pred) {
            Some(ps) if ps.distinct_subjects > 0 => {
                (ps.count as f64 / ps.distinct_subjects as f64).max(1.0)
            }
            _ => 1.0,
        }
    }

    /// Distinct objects of `pred`, when known.
    pub(crate) fn distinct_objects(&self, pred: &str) -> Option<f64> {
        self.predicates.get(pred).map(|ps| (ps.distinct_objects as f64).max(1.0))
    }

    /// Selectivity of an equality constraint on the object of `pred`:
    /// `1 / NDV` under the uniformity assumption.
    pub(crate) fn eq_selectivity(&self, pred: &str) -> f64 {
        self.distinct_objects(pred)
            .map_or(UNKNOWN_FILTER_SELECTIVITY, |d| (1.0 / d).min(1.0))
    }

    /// Estimated result cardinality of `star` at this source when only
    /// `filters` (a subset of the star's filters — e.g. just the pushed
    /// ones) constrain the fetched rows.
    ///
    /// The estimate is the characteristic-set subject count, multiplied by
    /// the per-predicate multiplicities (one row per combination of
    /// multi-valued objects), then reduced by the selectivity of ground
    /// objects and of the given filters. Floored at one row.
    pub(crate) fn estimate_star<'f>(
        &self,
        star: &StarSubquery,
        filters: impl IntoIterator<Item = &'f Expr>,
    ) -> f64 {
        let preds: Vec<&str> = star
            .predicates()
            .into_iter()
            .filter(|p| *p != vocab::rdf::TYPE)
            .collect();
        let mut est = self.star_subjects(&preds);
        for t in &star.triples {
            let Some(p) = t.p.as_term().and_then(Term::as_iri) else { continue };
            if p == vocab::rdf::TYPE {
                continue;
            }
            if t.o.as_var().is_some() {
                est *= self.multiplicity(p);
            } else {
                // A ground object behaves like an equality constraint.
                est *= self.eq_selectivity(p);
            }
        }
        for f in filters {
            est *= self.filter_selectivity(f, star);
        }
        est.max(1.0)
    }

    /// Selectivity of one filter over `star`, priced from the statistics
    /// where possible (equality on a predicate's object → `1/NDV`).
    pub(crate) fn filter_selectivity(&self, f: &Expr, star: &StarSubquery) -> f64 {
        match f {
            Expr::Cmp(l, op, r) => {
                let var = match (l.as_ref(), r.as_ref()) {
                    (Expr::Var(v), Expr::Const(_)) | (Expr::Const(_), Expr::Var(v)) => Some(v),
                    _ => None,
                };
                match op {
                    CmpOp::Eq => var
                        .and_then(|v| predicate_of_var(star, v))
                        .map_or(UNKNOWN_FILTER_SELECTIVITY, |p| self.eq_selectivity(p)),
                    CmpOp::Ne => NE_FILTER_SELECTIVITY,
                    _ => RANGE_FILTER_SELECTIVITY,
                }
            }
            Expr::And(a, b) => {
                self.filter_selectivity(a, star) * self.filter_selectivity(b, star)
            }
            Expr::Or(a, b) => {
                (self.filter_selectivity(a, star) + self.filter_selectivity(b, star)).min(1.0)
            }
            Expr::Not(inner) => (1.0 - self.filter_selectivity(inner, star)).max(0.1),
            _ => UNKNOWN_FILTER_SELECTIVITY,
        }
    }
}

/// The predicate whose object position binds `v` in `star`.
pub(crate) fn predicate_of_var<'a>(star: &'a StarSubquery, v: &fedlake_sparql::binding::Var) -> Option<&'a str> {
    star.triples
        .iter()
        .find(|t| t.o.as_var() == Some(v))
        .and_then(|t| t.p.as_term().and_then(Term::as_iri))
}

fn collect_sparql(graph: &Graph) -> SourceStatistics {
    #[derive(Default)]
    struct PredAcc {
        count: u64,
        subjects: HashSet<TermId>,
        objects: HashSet<TermId>,
    }
    // Everything is keyed by `TermId` while the triples stream by; a
    // predicate is resolved to its IRI once, a characteristic set once per
    // distinct set. `None` marks a predicate that is not an IRI.
    let mut preds: HashMap<TermId, Option<PredAcc>> = HashMap::new();
    let mut subj_sets: HashMap<TermId, Vec<TermId>> = HashMap::new();
    let rdf_type = graph.id(&Term::iri(vocab::rdf::TYPE));
    let iri = |p: TermId| graph.term(p).and_then(Term::as_iri);
    let mut triples = 0u64;
    for t in graph.iter() {
        triples += 1;
        let Some(acc) = preds.entry(t.p).or_insert_with(|| iri(t.p).map(|_| PredAcc::default()))
        else {
            continue;
        };
        acc.count += 1;
        acc.subjects.insert(t.s);
        acc.objects.insert(t.o);
        let set = subj_sets.entry(t.s).or_default();
        if Some(t.p) != rdf_type && !set.contains(&t.p) {
            set.push(t.p);
        }
    }
    let subjects = subj_sets.len() as u64;
    let mut id_sets: HashMap<Vec<TermId>, u64> = HashMap::new();
    for mut set in subj_sets.into_values() {
        set.sort_unstable();
        *id_sets.entry(set).or_insert(0) += 1;
    }
    let characteristic_sets = id_sets
        .into_iter()
        .map(|(set, n)| {
            let mut key: Vec<String> =
                set.into_iter().filter_map(iri).map(str::to_string).collect();
            key.sort_unstable();
            (key, n)
        })
        .collect();
    let predicates = preds
        .into_iter()
        .filter_map(|(p, acc)| {
            let acc = acc?;
            let stats = PredicateStats {
                count: acc.count,
                distinct_subjects: acc.subjects.len() as u64,
                distinct_objects: acc.objects.len() as u64,
            };
            Some((iri(p)?.to_string(), stats))
        })
        .collect();
    SourceStatistics { triples, subjects, predicates, characteristic_sets }
}

/// One mapped table's share of its source's statistics.
struct TableTally<'m> {
    /// Distinct non-NULL subjects.
    subjects: u64,
    /// Per mapped predicate column, in mapping order.
    predicates: Vec<PredicateStats>,
    /// Subjects per set of predicates carried (sorted, each named once); a
    /// set may be listed more than once.
    sets: Vec<(Vec<&'m str>, u64)>,
}

/// A mapped predicate column: its position in the table and its predicate.
type MappedColumn<'m> = (usize, &'m str);

/// How a table's share is obtained: [`tally_table`] in production, the
/// scan alone as the tests' oracle.
type Tally = for<'m> fn(&Table, usize, &[MappedColumn<'m>]) -> TableTally<'m>;

fn collect_relational(db: &Database, mapping: &DatasetMapping, tally: Tally) -> SourceStatistics {
    let mut out = SourceStatistics::default();
    for tm in &mapping.tables {
        let Some(table) = db.table(&tm.table) else { continue };
        let Some(subj_pos) = table.schema.column_index(&tm.subject_column) else { continue };
        let columns: Vec<MappedColumn<'_>> = tm
            .predicates
            .iter()
            .filter_map(|pm| {
                table.schema.column_index(&pm.column).map(|pos| (pos, pm.predicate.as_str()))
            })
            .collect();
        let share = tally(table, subj_pos, &columns);
        // The lifted graph carries one `rdf:type <class>` triple per
        // subject.
        let type_stats = out.predicates.entry(vocab::rdf::TYPE.to_string()).or_default();
        type_stats.count += share.subjects;
        type_stats.distinct_subjects += share.subjects;
        type_stats.distinct_objects += 1;
        out.triples += share.subjects;
        out.subjects += share.subjects;
        for ((_, pred), stats) in columns.iter().zip(&share.predicates) {
            let ps = out.predicates.entry((*pred).to_string()).or_default();
            ps.count += stats.count;
            ps.distinct_subjects += stats.distinct_subjects;
            ps.distinct_objects += stats.distinct_objects;
            out.triples += stats.count;
        }
        for (set, n) in share.sets {
            let key: Vec<String> = set.into_iter().map(str::to_string).collect();
            *out.characteristic_sets.entry(key).or_insert(0) += n;
        }
    }
    out
}

/// The table's share from its [`fedlake_relational::storage::TableProfile`]
/// when the profile can describe it, from a pass over its rows otherwise.
fn tally_table<'m>(table: &Table, subj_pos: usize, columns: &[MappedColumn<'m>]) -> TableTally<'m> {
    derive_table(table, subj_pos, columns).unwrap_or_else(|| scan_table(table, subj_pos, columns))
}

/// The share of a table whose subject column carries a unique single-column
/// index and holds no NULL: every row is a subject of its own, so a
/// predicate has as many triples and subjects as rows set its column, as
/// many objects as the column has distinct values, and a row's NULL pattern
/// *is* its characteristic set. `None` when the key is not the subject, a
/// subject is NULL, or the table is too wide for the profile's NULL
/// patterns.
fn derive_table<'m>(
    table: &Table,
    subj_pos: usize,
    columns: &[MappedColumn<'m>],
) -> Option<TableTally<'m>> {
    if !table.indexes().iter().any(|i| i.unique && i.key_columns == [subj_pos]) {
        return None;
    }
    let profile = table.profile();
    let patterns = profile.patterns.as_ref()?;
    if profile.non_null(subj_pos)? != profile.rows as u64 {
        return None;
    }
    let predicates = columns
        .iter()
        .map(|&(pos, _)| {
            let set = profile.non_null(pos)?;
            Some(PredicateStats {
                count: set,
                distinct_subjects: set,
                distinct_objects: profile.distinct[pos],
            })
        })
        .collect::<Option<_>>()?;
    let sets = patterns
        .iter()
        .map(|(&pattern, &n)| {
            let mut set: Vec<&str> = columns
                .iter()
                .filter(|(pos, _)| pattern >> pos & 1 == 1)
                .map(|&(_, pred)| pred)
                .collect();
            set.sort_unstable();
            set.dedup();
            (set, n)
        })
        .collect();
    Some(TableTally { subjects: profile.rows as u64, predicates, sets })
}

/// The share of any table, by one pass over its rows: what the catalog
/// means, and what [`derive_table`] must equal wherever it answers.
fn scan_table<'m>(table: &Table, subj_pos: usize, columns: &[MappedColumn<'m>]) -> TableTally<'m> {
    #[derive(Default)]
    struct PredAcc<'v> {
        count: u64,
        subjects: HashSet<&'v Value>,
        objects: HashSet<&'v Value>,
    }
    let mut accs: Vec<PredAcc<'_>> = columns.iter().map(|_| PredAcc::default()).collect();
    let mut subj_sets: HashMap<&Value, Vec<&'m str>> = HashMap::new();
    for (_, row) in table.iter() {
        let subj = &row[subj_pos];
        if subj.is_null() {
            continue;
        }
        let set = subj_sets.entry(subj).or_default();
        for (acc, &(pos, pred)) in accs.iter_mut().zip(columns) {
            let v = &row[pos];
            if v.is_null() {
                continue;
            }
            acc.count += 1;
            acc.subjects.insert(subj);
            acc.objects.insert(v);
            if !set.contains(&pred) {
                set.push(pred);
            }
        }
    }
    let predicates = accs
        .iter()
        .map(|acc| PredicateStats {
            count: acc.count,
            distinct_subjects: acc.subjects.len() as u64,
            distinct_objects: acc.objects.len() as u64,
        })
        .collect();
    let subjects = subj_sets.len() as u64;
    let mut sets: HashMap<Vec<&str>, u64> = HashMap::new();
    for mut set in subj_sets.into_values() {
        set.sort_unstable();
        *sets.entry(set).or_insert(0) += 1;
    }
    TableTally { subjects, predicates, sets: sets.into_iter().collect() }
}

/// The lake-wide statistics catalog: one [`SourceStatistics`] per
/// registered source, keyed by source id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LakeStatistics {
    /// Per-source statistics.
    pub sources: BTreeMap<String, SourceStatistics>,
}

impl LakeStatistics {
    /// Collects statistics for every source.
    pub fn collect(sources: &[DataSource]) -> Self {
        LakeStatistics {
            sources: sources
                .iter()
                .map(|s| (s.id().to_string(), SourceStatistics::collect(s)))
                .collect(),
        }
    }

    /// The statistics of one source.
    pub(crate) fn source(&self, id: &str) -> Option<&SourceStatistics> {
        self.sources.get(id)
    }

    /// Mutable statistics of one source (see
    /// [`crate::DataLake::statistics_mut`] for why drift is allowed).
    pub fn source_mut(&mut self, id: &str) -> Option<&mut SourceStatistics> {
        self.sources.get_mut(id)
    }
}

/// Classic equi-join estimate: `|L ⋈ R| = |L|·|R| / max(d_L, d_R)` where
/// `d_L`/`d_R` are the distinct join-key counts of the two sides.
/// Monotone in both input cardinalities; floored at one row.
pub(crate) fn join_estimate(l_rows: f64, l_distinct: f64, r_rows: f64, r_distinct: f64) -> f64 {
    let d = l_distinct.max(r_distinct).max(1.0);
    ((l_rows.max(1.0) * r_rows.max(1.0)) / d).max(1.0)
}

/// A federated plan's estimated cost, decomposed the way the Odyssey-style
/// cost models do: engine cpu work, source io work, network transfer, and
/// the parallelism credit (network time hidden by overlapped source I/O).
///
/// `total_us = cpu + io + network - parallelism`; the planner minimizes
/// the total, the decomposition is kept for EXPLAIN and the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FederationCost {
    /// Engine-side cpu work (probes, filter evaluations, row handling), µs.
    pub cpu_us: f64,
    /// Source-side work (scans, index probes, SPARQL evaluation), µs.
    pub io_us: f64,
    /// Network transfer (per-message delay + overhead, per-row cost), µs.
    pub network_us: f64,
    /// Network time hidden by overlapping independent source fetches, µs
    /// (0 under the serialized schedule). Never exceeds `network_us`.
    pub parallelism_us: f64,
}

impl FederationCost {
    /// The scalar the planner minimizes.
    pub fn total_us(&self) -> f64 {
        self.cpu_us + self.io_us + (self.network_us - self.parallelism_us).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_mapping::{IriTemplate, TableMapping};

    fn graph_source() -> DataSource {
        let mut g = Graph::new();
        for i in 0..4 {
            let s = format!("http://d/g{i}");
            g.insert_terms(
                Term::iri(&s),
                Term::iri(vocab::rdf::TYPE),
                Term::iri("http://v/Gene"),
            );
            g.insert_terms(Term::iri(&s), Term::iri("http://v/label"), Term::literal(format!("L{i}")));
            if i < 2 {
                g.insert_terms(
                    Term::iri(&s),
                    Term::iri("http://v/disease"),
                    Term::iri("http://d/d0"),
                );
            }
        }
        DataSource::sparql("g", g)
    }

    fn rel_source() -> DataSource {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)").unwrap();
        db.execute("INSERT INTO gene VALUES ('g1', 'BRCA1', 'd0')").unwrap();
        db.execute("INSERT INTO gene VALUES ('g2', 'TP53', 'd0')").unwrap();
        db.execute("INSERT INTO gene VALUES ('g3', 'EGFR', NULL)").unwrap();
        let mapping = DatasetMapping::new("d").with_table(
            TableMapping::new("gene", "http://v/Gene", IriTemplate::new("http://d/gene/", ""), "id")
                .with_literal("label", "http://v/label")
                .with_reference("disease", "http://v/disease", IriTemplate::new("http://d/disease/", "")),
        );
        DataSource::relational("d", db, mapping)
    }

    #[test]
    fn sparql_collection_counts() {
        let s = SourceStatistics::collect(&graph_source());
        assert_eq!(s.subjects, 4);
        assert_eq!(s.triples, 10);
        let label = &s.predicates["http://v/label"];
        assert_eq!(label.count, 4);
        assert_eq!(label.distinct_subjects, 4);
        assert_eq!(label.distinct_objects, 4);
        let disease = &s.predicates["http://v/disease"];
        assert_eq!(disease.count, 2);
        assert_eq!(disease.distinct_objects, 1);
        // Two characteristic sets: {label} and {label, disease}.
        assert_eq!(s.characteristic_sets.len(), 2);
        assert_eq!(s.characteristic_sets[&vec!["http://v/label".to_string()]], 2);
        assert_eq!(s.star_subjects(&["http://v/label"]), 4.0);
        assert_eq!(s.star_subjects(&["http://v/label", "http://v/disease"]), 2.0);
        assert_eq!(s.star_subjects(&["http://v/nope"]), 0.0);
    }

    #[test]
    fn relational_collection_counts() {
        let s = SourceStatistics::collect(&rel_source());
        assert_eq!(s.subjects, 3);
        // 3 type + 3 label + 2 disease.
        assert_eq!(s.triples, 8);
        let disease = &s.predicates["http://v/disease"];
        assert_eq!(disease.count, 2);
        assert_eq!(disease.distinct_subjects, 2);
        assert_eq!(disease.distinct_objects, 1);
        assert_eq!(s.star_subjects(&["http://v/label", "http://v/disease"]), 2.0);
    }

    #[test]
    fn collection_is_deterministic() {
        for src in [graph_source(), rel_source()] {
            let a = SourceStatistics::collect(&src);
            let b = SourceStatistics::collect(&src);
            assert_eq!(a, b);
        }
    }

    /// The catalog by definition: every mapped table scanned.
    fn scan(source: &DataSource) -> SourceStatistics {
        match source {
            DataSource::Relational { db, mapping, .. } => {
                collect_relational(db, mapping, scan_table)
            }
            DataSource::Sparql { graph, .. } => collect_sparql(graph),
        }
    }

    /// Whether the catalog reads `table` from its profile (mapped on `subject`).
    fn derived(source: &DataSource, table: &str, subject: &str) -> bool {
        let DataSource::Relational { db, .. } = source else { unreachable!() };
        let table = db.table(table).unwrap();
        derive_table(table, table.schema.column_index(subject).unwrap(), &[]).is_some()
    }

    /// Three tables under one mapping: `item`, keyed by its subject, with an
    /// unindexed low-cardinality column, a high-cardinality one, a `DOUBLE`
    /// and a mostly-NULL column mapped to the predicate of another; `link`,
    /// whose subject is not its key; `loose`, whose unique subject may be
    /// NULL.
    fn profiled_source() -> DataSource {
        let mut db = Database::new("p");
        for ddl in [
            "CREATE TABLE item (id TEXT PRIMARY KEY, kind TEXT, label TEXT, mass DOUBLE, alias TEXT)",
            "CREATE TABLE link (id TEXT PRIMARY KEY, owner TEXT NOT NULL, tag TEXT)",
            "CREATE TABLE loose (code TEXT, val TEXT)",
        ] {
            db.execute(ddl).unwrap();
        }
        db.create_index("loose", "u_code", &["code".into()], true).unwrap();
        db.execute("INSERT INTO item VALUES ('k0', 'v0', 'v0', 1.5, NULL)").unwrap();
        let iri = |t: &str| IriTemplate::new(format!("http://d/{t}/"), "");
        let mapping = DatasetMapping::new("p")
            .with_table(
                TableMapping::new("item", "http://v/Item", iri("item"), "id")
                    .with_literal("kind", "http://v/kind")
                    .with_literal("label", "http://v/label")
                    .with_literal("mass", "http://v/mass")
                    .with_literal("alias", "http://v/label"),
            )
            .with_table(
                TableMapping::new("link", "http://v/Owner", iri("owner"), "owner")
                    .with_literal("tag", "http://v/tag"),
            )
            .with_table(
                TableMapping::new("loose", "http://v/Loose", iri("loose"), "code")
                    .with_literal("val", "http://v/val"),
            );
        DataSource::relational("p", db, mapping)
    }

    /// After every step of a seeded write sequence the catalog equals a
    /// scan of the rows: single appends, bulk loads the profile takes as a
    /// full pass, values repeated inside one delta, `Int`s beside the equal
    /// `Double`, indexes created under a live profile, rejected inserts,
    /// two values of one source diverging — and the two tables a profile
    /// cannot describe.
    #[test]
    fn collected_statistics_equal_a_scan_after_every_write() {
        use fedlake_prng::Prng;
        use std::sync::Arc;
        let mut rng = Prng::seed_from_u64(0x5ca7_0020);
        let mut sources = vec![profiled_source()];
        let mut fresh = 0u32;
        for step in 0..360usize {
            if step == 240 {
                sources.push(sources[0].clone());
            }
            let at = rng.gen_range(0..sources.len());
            let DataSource::Relational { db, .. } = &mut sources[at] else { unreachable!() };
            match step {
                // `loose` takes NULL subjects from here on.
                60 => db.insert_row("loose", vec![Value::Null, Value::text("v0")]).unwrap(),
                120 => db.create_index("item", "by_label", &["label".into()], false).unwrap(),
                180 => db.create_index("item", "by_mass", &["mass".into()], false).unwrap(),
                _ => {}
            }
            let mut text = |rng: &mut Prng, pool: u32| match rng.gen_range(0u8..6) {
                0 => Value::Null,
                1..=3 => Value::text(format!("v{}", rng.gen_range(0..pool))),
                _ => {
                    fresh += 1;
                    Value::text(format!("fresh{fresh}"))
                }
            };
            // One row, a handful (so a delta repeats values), or a load.
            let rows = match rng.gen_range(0u8..20) {
                0 => rng.gen_range(25..80usize),
                1..=4 => rng.gen_range(2..5usize),
                _ => 1,
            };
            let repeated = text(&mut rng, 30);
            for n in 0..rows {
                let id = Value::text(format!("k{step}-{n}"));
                let inserted = match rng.gen_range(0u8..10) {
                    0..=5 => {
                        let mass = match rng.gen_range(0u8..4) {
                            0 => Value::Null,
                            1 => Value::Int(rng.gen_range(0i64..20)),
                            _ => Value::Double(rng.gen_range(0i64..40) as f64 / 2.0),
                        };
                        let label = if n > 0 { repeated.clone() } else { text(&mut rng, 30) };
                        let alias =
                            if rng.gen_bool(0.2) { text(&mut rng, 30) } else { Value::Null };
                        db.insert_row("item", vec![id, text(&mut rng, 3), label, mass, alias])
                    }
                    6..=7 => {
                        let owner = Value::text(format!("o{}", rng.gen_range(0..25)));
                        db.insert_row("link", vec![id, owner, text(&mut rng, 4)])
                    }
                    8 => {
                        let code = if step >= 60 && rng.gen_bool(0.3) { Value::Null } else { id };
                        db.insert_row("loose", vec![code, text(&mut rng, 4)])
                    }
                    // A duplicate key: rejected, and the profile is not touched.
                    _ => {
                        let profile = |db: &Database| db.table("item").unwrap().profile();
                        let before = profile(db);
                        let mut row = vec![Value::Null; 5];
                        (row[0], row[1]) = (Value::text("k0"), text(&mut rng, 3));
                        assert!(db.insert_row("item", row).is_err());
                        assert!(Arc::ptr_eq(&before, &profile(db)));
                        Ok(())
                    }
                };
                inserted.unwrap();
            }
            for (at, source) in sources.iter().enumerate() {
                let ctx = format!("step {step}, value {at}");
                assert_eq!(SourceStatistics::collect(source), scan(source), "{ctx}");
                assert!(derived(source, "item", "id"));
                assert!(!derived(source, "link", "owner"));
                assert_eq!(derived(source, "loose", "code"), step < 60, "step {step}");
            }
        }
        let [a, b] = &sources[..] else { unreachable!() };
        assert_ne!(scan(a), scan(b), "the two values diverged");
    }

    #[test]
    fn star_subjects_monotone_in_predicates() {
        let s = SourceStatistics::collect(&rel_source());
        // Requiring more predicates can only shrink the subject count.
        assert!(
            s.star_subjects(&["http://v/label", "http://v/disease"])
                <= s.star_subjects(&["http://v/label"])
        );
        assert!(s.star_subjects(&["http://v/label"]) <= s.star_subjects(&[]));
    }

    #[test]
    fn join_estimate_monotone_and_bounded() {
        let base = join_estimate(100.0, 50.0, 200.0, 80.0);
        assert!(join_estimate(150.0, 50.0, 200.0, 80.0) >= base, "monotone in |L|");
        assert!(join_estimate(100.0, 50.0, 300.0, 80.0) >= base, "monotone in |R|");
        // Bounded by the cross product and floored at one row.
        assert!(base <= 100.0 * 200.0);
        assert_eq!(join_estimate(0.0, 0.0, 0.0, 0.0), 1.0);
        // More distinct keys → fewer matches.
        assert!(join_estimate(100.0, 100.0, 200.0, 200.0) <= base);
    }

    #[test]
    fn federation_cost_total() {
        let c = FederationCost { cpu_us: 1.0, io_us: 2.0, network_us: 10.0, parallelism_us: 4.0 };
        assert!((c.total_us() - 9.0).abs() < 1e-9);
    }
}
