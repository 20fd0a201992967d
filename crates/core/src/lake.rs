//! The Semantic Data Lake: a catalog of heterogeneous sources with their
//! RDF Molecule Templates.

use crate::source::DataSource;
use crate::stats::{LakeStatistics, SourceStatistics};
use fedlake_mapping::RdfMoleculeTemplate;
use std::collections::BTreeMap;

/// The logical source id behind a replica endpoint id: `"chebi#r1"` maps
/// back to `"chebi"`, a plain source id maps to itself. Failure stats,
/// error messages and the health registry's planning view are all keyed
/// by the logical id so one flaky source is not split across replica keys.
pub fn logical_source_id(endpoint: &str) -> &str {
    match endpoint.rfind("#r") {
        Some(pos) if endpoint[pos + 2..].bytes().all(|b| b.is_ascii_digit())
            && pos + 2 < endpoint.len() =>
        {
            &endpoint[..pos]
        }
        _ => endpoint,
    }
}

/// The replica endpoint id for replica `k` of a logical source.
pub(crate) fn replica_endpoint_id(logical: &str, k: u32) -> String {
    format!("{logical}#r{k}")
}

/// A collection of data sources, each kept in its native data model and
/// described by RDF Molecule Templates (§2.1).
///
/// A logical source may be served by N replica endpoints — physically
/// identical copies behind independent network links (and thus independent
/// fault schedules). Replication is a catalog property: the planner routes
/// each service to a preferred replica, and the wrappers fail over to the
/// next endpoint when a replica exhausts its retry budget.
#[derive(Debug, Clone, Default)]
pub struct DataLake {
    sources: Vec<DataSource>,
    /// Per-source bookkeeping, parallel to `sources`.
    meta: Vec<SourceMeta>,
    /// Every source's molecule templates, contiguous per source and in
    /// source order.
    mts: Vec<RdfMoleculeTemplate>,
    /// Logical source id → replica count (absent = 1, unreplicated).
    replicas: BTreeMap<String, u32>,
    /// The statistics catalog, collected at registration time and
    /// brought back in line per dirty source by
    /// [`DataLake::refresh_templates`] (the invalidation point after
    /// source mutation).
    stats: LakeStatistics,
    /// Catalog epoch: bumped by every catalog-affecting mutation
    /// (`add_source`, `source_mut`, a `refresh_templates` that recollected
    /// something, `set_replicas`, `statistics_mut`). The plan cache's
    /// invalidation key.
    epoch: u64,
    /// The epoch the statistics catalog was last brought in line with at
    /// (`== epoch` unless a bare [`DataLake::source_mut`] left the
    /// catalog stale; `add_source` and `set_replicas` keep either state).
    stats_epoch: u64,
}

/// What the lake tracks per source beside the source itself.
#[derive(Debug, Clone, Copy, Default)]
struct SourceMeta {
    /// Data version: bumped by every [`DataLake::source_mut`], so two
    /// reads under one version saw the same contents. Cached source
    /// results are stamped with it (see [`crate::wrapper::LiftCache`]).
    version: u64,
    /// Handed out mutably (or its statistics drifted) since the catalog
    /// last described it.
    dirty: bool,
    /// How many entries of `mts` are this source's.
    templates: usize,
}

impl DataLake {
    /// Creates an empty lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source, indexes its molecule templates, and collects
    /// its statistics.
    pub fn add_source(&mut self, source: DataSource) {
        let templates = source.molecule_templates();
        self.meta.push(SourceMeta { templates: templates.len(), ..Default::default() });
        self.mts.extend(templates);
        self.stats
            .sources
            .insert(source.id().to_string(), SourceStatistics::collect(&source));
        self.sources.push(source);
        self.bump_epoch();
    }

    /// A catalog change that says nothing about the statistics of the
    /// sources already registered: a new epoch for the plan cache, the
    /// catalog as fresh or as stale as it was. Only a recollection
    /// ([`DataLake::refresh_templates`]) makes a stale catalog fresh.
    fn bump_epoch(&mut self) {
        let fresh = self.statistics_fresh();
        self.epoch += 1;
        if fresh {
            self.stats_epoch = self.epoch;
        }
    }

    /// All sources.
    pub fn sources(&self) -> &[DataSource] {
        &self.sources
    }

    /// Looks up a source by id.
    pub fn source(&self, id: &str) -> Option<&DataSource> {
        self.index_of(id).map(|i| &self.sources[i])
    }

    fn index_of(&self, id: &str) -> Option<usize> {
        self.sources.iter().position(|s| s.id() == id)
    }

    /// All molecule templates in the lake.
    pub fn molecule_templates(&self) -> &[RdfMoleculeTemplate] {
        &self.mts
    }

    /// Refreshes the molecule templates **and the statistics catalog**
    /// (after data/index changes): mutating a source invalidates its
    /// statistics here. Only the sources handed out by
    /// [`DataLake::source_mut`] since the last refresh are recollected —
    /// statistics are per source by construction — and the result equals a
    /// full rebuild. With no such source the catalog already describes the
    /// data (stale statistics imply a dirty source): nothing is recollected
    /// and no counter moves, so an idle refresh invalidates no cached plan.
    pub fn refresh_templates(&mut self) {
        if !self.meta.iter().any(|m| m.dirty) {
            return;
        }
        if self.meta.iter().all(|m| m.dirty) {
            // Planted drift may have added or dropped catalog entries.
            self.stats.sources.clear();
        }
        let mut at = 0;
        for (source, meta) in self.sources.iter().zip(&mut self.meta) {
            if meta.dirty {
                let fresh = source.molecule_templates();
                let stale = at..at + meta.templates;
                meta.templates = fresh.len();
                self.mts.splice(stale, fresh);
                self.stats
                    .sources
                    .insert(source.id().to_string(), SourceStatistics::collect(source));
                meta.dirty = false;
            }
            at += meta.templates;
        }
        self.epoch += 1;
        self.stats_epoch = self.epoch;
    }

    /// The lake-wide statistics catalog.
    pub fn statistics(&self) -> &LakeStatistics {
        &self.stats
    }

    /// Mutable access to the statistics catalog **without** re-collecting
    /// it from the sources. This deliberately lets the catalog drift from
    /// the data: chaos/observability tests mutate a source's statistics
    /// post-collection to plant a cardinality mis-estimate the watchdog
    /// must then catch. Production refreshes go through
    /// [`DataLake::refresh_templates`], which overwrites any drift: every
    /// source counts as dirty from here on.
    pub fn statistics_mut(&mut self) -> &mut LakeStatistics {
        // Planted drift *is* the catalog from here on: bump the epoch (so
        // cached plans priced on the old numbers are invalidated) and
        // mark the catalog current (cost-based planning prices the
        // drifted numbers, which is the point of the drift helpers).
        self.epoch += 1;
        self.stats_epoch = self.epoch;
        self.meta.iter_mut().for_each(|m| m.dirty = true);
        &mut self.stats
    }

    /// The statistics of one source.
    pub fn source_stats(&self, id: &str) -> Option<&SourceStatistics> {
        self.stats.source(id)
    }

    /// Mutable access to a source, for tests and administrative data
    /// loads. Call [`DataLake::refresh_templates`] afterwards — templates
    /// and statistics are only recomputed there. Until that happens the
    /// lake reports [`DataLake::statistics_fresh`]` == false` and
    /// cost-based planning refuses to price plans against the drifted
    /// catalog. Handing the source out is what counts as the mutation:
    /// its data version moves and it is recollected by the next refresh,
    /// whether or not the caller changes anything. An unknown id hands out
    /// nothing and moves no counter.
    pub fn source_mut(&mut self, id: &str) -> Option<&mut DataSource> {
        let i = self.index_of(id)?;
        self.epoch += 1;
        self.meta[i].version += 1;
        self.meta[i].dirty = true;
        Some(&mut self.sources[i])
    }

    /// The data version of a source: equal versions imply equal contents,
    /// so a result computed under one may be served under the same one.
    pub fn source_version(&self, id: &str) -> Option<u64> {
        self.index_of(id).map(|i| self.meta[i].version)
    }

    /// The catalog epoch: moves on every catalog-affecting mutation, so
    /// equal epochs imply an identical planning catalog.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch the statistics catalog was collected at.
    pub fn statistics_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// False after a bare [`DataLake::source_mut`]: the statistics
    /// catalog may describe data that no longer exists. Restored by
    /// [`DataLake::refresh_templates`].
    pub fn statistics_fresh(&self) -> bool {
        self.stats_epoch == self.epoch
    }

    /// Materializes the whole lake as one RDF graph: relational sources
    /// are lifted through their mappings, RDF sources are read in place.
    /// This is the ground-truth oracle used by the test suite — a federated
    /// query must return exactly the answers of a local SPARQL evaluation
    /// over this graph.
    pub fn oracle_graph(&self) -> fedlake_rdf::Graph {
        let mut out = fedlake_rdf::Graph::new();
        for source in &self.sources {
            let lifted;
            let g = match source {
                DataSource::Sparql { graph, .. } => graph,
                DataSource::Relational { db, mapping, .. } => {
                    lifted = fedlake_mapping::lift_database(db, mapping);
                    &lifted
                }
            };
            for [s, p, o] in g.iter_terms() {
                out.insert_terms((**s).clone(), (**p).clone(), (**o).clone());
            }
        }
        out
    }

    /// Declares that the logical source `id` is served by `n` replica
    /// endpoints (`n <= 1` removes the entry: a single endpoint keeps the
    /// plain source id, bit-identical to an unreplicated lake). A call that
    /// changes nothing — the count `id` already has, or an id no source
    /// has — registers nothing and moves no counter.
    pub fn set_replicas(&mut self, id: impl Into<String>, n: u32) {
        let id = id.into();
        let n = n.max(1);
        if self.index_of(&id).is_none() || n == self.replica_count(&id) {
            return;
        }
        if n == 1 {
            self.replicas.remove(&id);
        } else {
            self.replicas.insert(id, n);
        }
        // Replica topology steers routing: a new epoch for the cache.
        self.bump_epoch();
    }

    /// Number of replica endpoints serving the logical source `id`.
    pub fn replica_count(&self, id: &str) -> u32 {
        self.replicas.get(id).copied().unwrap_or(1).max(1)
    }

    /// The endpoint ids serving the logical source `id`, in replica order:
    /// `["id"]` when unreplicated, `["id#r0", .., "id#rN-1"]` otherwise.
    pub(crate) fn replica_endpoints(&self, id: &str) -> Vec<String> {
        let n = self.replica_count(id);
        if n <= 1 {
            vec![id.to_string()]
        } else {
            (0..n).map(|k| replica_endpoint_id(id, k)).collect()
        }
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when the lake has no sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_rdf::{Graph, Term};

    fn typed_graph(class: &str) -> Graph {
        let mut g = Graph::new();
        g.insert_terms(
            Term::iri("http://d/x"),
            Term::iri(fedlake_rdf::vocab::rdf::TYPE),
            Term::iri(class),
        );
        g
    }

    #[test]
    fn add_and_lookup() {
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("a", typed_graph("http://v/A")));
        lake.add_source(DataSource::sparql("b", typed_graph("http://v/B")));
        assert_eq!(lake.len(), 2);
        assert!(lake.source("a").is_some());
        assert!(lake.source("zzz").is_none());
        assert_eq!(lake.molecule_templates().len(), 2);
        let mts = lake.molecule_templates();
        let of_a: Vec<_> = mts.iter().filter(|m| m.source_id == "a").collect();
        assert_eq!(of_a.len(), 1);
        assert_eq!(of_a[0].class, "http://v/A");
    }

    #[test]
    fn refresh_recomputes() {
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("a", typed_graph("http://v/A")));
        lake.refresh_templates();
        assert_eq!(lake.molecule_templates().len(), 1);
    }

    #[test]
    fn empty_lake() {
        let lake = DataLake::new();
        assert!(lake.is_empty());
        assert!(lake.molecule_templates().is_empty());
    }

    #[test]
    fn replica_registry() {
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("a", typed_graph("http://v/A")));
        assert_eq!(lake.replica_count("a"), 1);
        assert_eq!(lake.replica_endpoints("a"), ["a"]);
        lake.set_replicas("a", 3);
        assert_eq!(lake.replica_count("a"), 3);
        assert_eq!(lake.replica_endpoints("a"), ["a#r0", "a#r1", "a#r2"]);
        // n <= 1 restores the unreplicated catalog entry.
        lake.set_replicas("a", 1);
        assert_eq!(lake.replica_endpoints("a"), ["a"]);
        lake.set_replicas("a", 0);
        assert_eq!(lake.replica_count("a"), 1);
    }

    #[test]
    fn epochs_track_catalog_mutations() {
        let mut lake = DataLake::new();
        assert_eq!(lake.epoch(), 0);
        assert!(lake.statistics_fresh());
        lake.add_source(DataSource::sparql("a", typed_graph("http://v/A")));
        assert_eq!(lake.epoch(), 1);
        assert!(lake.statistics_fresh());
        // A bare source_mut leaves the catalog stale…
        lake.source_mut("a");
        assert_eq!(lake.epoch(), 2);
        assert!(!lake.statistics_fresh());
        // …until refresh_templates recollects it.
        lake.refresh_templates();
        assert_eq!(lake.epoch(), 3);
        assert!(lake.statistics_fresh());
        // Planted drift becomes the current catalog.
        lake.statistics_mut();
        assert!(lake.statistics_fresh());
        // Replica topology changes are catalog changes.
        let before = lake.epoch();
        lake.set_replicas("a", 2);
        assert!(lake.epoch() > before);
        assert!(lake.statistics_fresh());
        // One that changes nothing is not: the count it has, n <= 1 on an
        // unreplicated source, an id no source has (nothing registered).
        let before = lake.epoch();
        lake.set_replicas("a", 2);
        lake.set_replicas("zzz", 3);
        lake.set_replicas("zzz", 0);
        assert_eq!(lake.epoch(), before);
        assert_eq!(lake.replica_count("zzz"), 1);
        // Only a recollection makes a stale catalog fresh: not a topology
        // change, not the registration of another source.
        lake.source_mut("a");
        lake.set_replicas("a", 3);
        lake.set_replicas("a", 3);
        assert_eq!(lake.epoch(), before + 2);
        assert!(!lake.statistics_fresh());
        lake.add_source(DataSource::sparql("b", typed_graph("http://v/B")));
        assert_eq!(lake.epoch(), before + 3);
        assert!(!lake.statistics_fresh());
        lake.refresh_templates();
        assert!(lake.statistics_fresh());
        // …and neither makes a fresh one stale.
        lake.set_replicas("b", 2);
        lake.add_source(DataSource::sparql("c", typed_graph("http://v/C")));
        assert!(lake.statistics_fresh());
    }

    fn relational(id: &str) -> DataSource {
        use fedlake_mapping::{DatasetMapping, IriTemplate, TableMapping};
        let mut db = fedlake_relational::Database::new(id);
        db.execute("CREATE TABLE item (id TEXT PRIMARY KEY, kind TEXT)").unwrap();
        db.execute("INSERT INTO item VALUES ('i0', 'k0')").unwrap();
        let mapping = DatasetMapping::new(id).with_table(
            TableMapping::new(
                "item",
                format!("http://v/{id}/Item"),
                IriTemplate::new(format!("http://d/{id}/item/"), ""),
                "id",
            )
            .with_literal("kind", "http://v/kind"),
        );
        DataSource::relational(id, db, mapping)
    }

    /// The catalog a full rebuild over the current sources would produce.
    fn assert_catalog_is_current(lake: &DataLake, ctx: &str) {
        assert_eq!(
            lake.statistics(),
            &LakeStatistics::collect(lake.sources()),
            "{ctx}: statistics"
        );
        let full: Vec<_> =
            lake.sources().iter().flat_map(DataSource::molecule_templates).collect();
        assert_eq!(lake.molecule_templates(), full, "{ctx}: molecule templates");
        assert!(lake.statistics_fresh(), "{ctx}");
    }

    #[test]
    fn incremental_refresh_equals_a_full_rebuild() {
        let mut rng = fedlake_prng::Prng::seed_from_u64(0xCA7A_1061);
        let mut lake = DataLake::new();
        lake.add_source(relational("r0"));
        lake.add_source(DataSource::sparql("g0", typed_graph("http://v/A")));
        lake.add_source(relational("r1"));
        lake.add_source(DataSource::sparql("g1", typed_graph("http://v/B")));
        for step in 0..60 {
            // One to three writes, to any mix of sources, then one refresh.
            for _ in 0..rng.gen_range(1..=3usize) {
                let id = ["r0", "g0", "r1", "g1"][rng.gen_range(0..4usize)];
                let version = lake.source_version(id).unwrap();
                match lake.source_mut(id).unwrap() {
                    DataSource::Relational { db, .. } => db
                        .insert_row(
                            "item",
                            vec![
                                fedlake_relational::Value::text(format!("s{step}-{}", rng.next_u64())),
                                fedlake_relational::Value::text(format!("k{}", rng.gen_range(0..4))),
                            ],
                        )
                        .unwrap(),
                    // A new class now and then, so a source's template
                    // count changes under its neighbours.
                    DataSource::Sparql { graph, .. } => {
                        graph.insert_terms(
                            Term::iri(format!("http://d/{step}")),
                            Term::iri(fedlake_rdf::vocab::rdf::TYPE),
                            Term::iri(format!("http://v/C{}", rng.gen_range(0..6))),
                        );
                    }
                }
                assert_eq!(lake.source_version(id), Some(version + 1));
                assert!(!lake.statistics_fresh());
            }
            let epoch = lake.epoch();
            lake.refresh_templates();
            assert_eq!(lake.epoch(), epoch + 1);
            assert_catalog_is_current(&lake, &format!("step {step}"));
        }
    }

    #[test]
    fn refresh_overwrites_planted_drift() {
        let mut lake = DataLake::new();
        lake.add_source(relational("r0"));
        lake.add_source(DataSource::sparql("g0", typed_graph("http://v/A")));
        let drift = lake.statistics_mut();
        drift.source_mut("r0").unwrap().scale(1000);
        drift.sources.remove("g0");
        drift.sources.insert("ghost".into(), SourceStatistics::default());
        // No source was handed out: the drift alone marks every source.
        lake.refresh_templates();
        assert_catalog_is_current(&lake, "after drift");
    }

    #[test]
    fn a_source_mut_that_changes_nothing_refreshes_to_the_same_catalog() {
        let mut lake = DataLake::new();
        lake.add_source(relational("r0"));
        lake.add_source(DataSource::sparql("g0", typed_graph("http://v/A")));
        let (stats, mts) = (lake.statistics().clone(), lake.molecule_templates().to_vec());
        // A miss hands out nothing, so it moves no counter: the catalog
        // stays fresh and no cached plan is invalidated.
        let epoch = lake.epoch();
        assert!(lake.source_mut("nope").is_none());
        assert_eq!(lake.epoch(), epoch);
        assert!(lake.statistics_fresh());
        assert_eq!(lake.source_version("g0"), Some(0));
        assert_eq!(lake.source_version("r0"), Some(0));
        assert!(lake.source_mut("g0").is_some());
        assert_eq!(lake.epoch(), epoch + 1);
        assert!(!lake.statistics_fresh());
        assert_eq!(lake.source_version("g0"), Some(1), "the hand-out is the mutation");
        assert_eq!(lake.source_version("r0"), Some(0));
        lake.refresh_templates();
        assert_eq!((lake.statistics(), lake.molecule_templates()), (&stats, &mts[..]));
    }

    #[test]
    fn logical_ids_round_trip() {
        assert_eq!(logical_source_id("chebi"), "chebi");
        assert_eq!(logical_source_id("chebi#r0"), "chebi");
        assert_eq!(logical_source_id(&replica_endpoint_id("diseasome", 12)), "diseasome");
        // Only a well-formed replica suffix is stripped.
        assert_eq!(logical_source_id("odd#rx"), "odd#rx");
        assert_eq!(logical_source_id("odd#r"), "odd#r");
    }
}
