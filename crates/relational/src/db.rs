//! The database facade: catalog plus SQL entry points.
//!
//! A `SELECT` has one executor and three ways in: [`Database::query_borrowed`]
//! hands the result out as references into the tables, [`Database::query`]
//! is that result cloned into an owned [`ResultSet`], and
//! [`Database::query_cached`] memoizes the owned one per SQL text.

use crate::cache::{CacheStats, VersionedCache};
use crate::error::SqlError;
use crate::exec::{execute, CostStats, Relation};
use crate::explain::explain;
use crate::optimizer::plan_select;
use crate::plan::PhysicalPlan;
use crate::schema::TableSchema;
use crate::sql::{parse, SelectStmt, Statement};
use crate::storage::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The result of executing a statement.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Work performed, for the cost simulation.
    pub cost: CostStats,
    /// `EXPLAIN` text, when the statement was an `EXPLAIN`.
    pub explain: Option<String>,
}

impl ResultSet {
    fn empty() -> Self {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
            cost: CostStats::default(),
            explain: None,
        }
    }
}

/// A `SELECT`'s result read where it lies ([`Database::query_borrowed`]):
/// the cells point into the database's tables, which stay borrowed for as
/// long as the result is held.
pub struct BorrowedResult<'db> {
    /// The result's cells.
    pub rows: Relation<'db>,
    /// Work performed, for the cost simulation.
    pub cost: CostStats,
}

/// An embedded relational database: one named catalog of tables.
#[derive(Debug, Default)]
pub struct Database {
    name: String,
    tables: HashMap<String, Table>,
    /// Bumped by every mutation that was applied (a rejected write leaves
    /// it alone); the version the memo's entries are stamped with.
    version: u64,
    /// Owned results of `SELECT`s run through [`Database::query_cached`],
    /// keyed by the SQL text and stamped with the catalog `version` they
    /// were computed from (see [`crate::cache`]). Serving the memoized
    /// result — cost statistics included, so the simulated charge is
    /// identical — skips the re-scan. The engine never comes here: its
    /// one-shot leaves and bind-join batches are lifted from
    /// [`Database::query_borrowed`] and cached in lifted form; fedbench's
    /// `relational.*` probes are the memo's last callers.
    cache: Mutex<VersionedCache<String, Arc<ResultSet>>>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        // The clone gets its own (empty) cache: the two catalogs may
        // diverge afterwards, and cached results must never outlive the
        // table state they were computed from.
        Database {
            name: self.name.clone(),
            tables: self.tables.clone(),
            version: self.version,
            cache: Mutex::default(),
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database { name: name.into(), ..Default::default() }
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, VersionedCache<String, Arc<ResultSet>>> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counters of the `query_cached` memo.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo().stats()
    }

    /// Executes one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        match parse(sql)? {
            Statement::CreateTable(schema) => {
                self.create_table(schema)?;
                Ok(ResultSet::empty())
            }
            Statement::CreateIndex { name, table, columns, unique } => {
                self.create_index(&table, &name, &columns, unique)?;
                Ok(ResultSet::empty())
            }
            Statement::Insert { table, rows } => {
                let t = self.table_mut(&table)?;
                let before = t.len();
                let inserted = rows.into_iter().try_for_each(|row| t.insert(row).map(drop));
                // Rows before a failing one stay applied.
                if t.len() != before {
                    self.version += 1;
                }
                inserted?;
                Ok(ResultSet::empty())
            }
            Statement::Select(stmt) => self.run_select(&stmt),
            Statement::Explain(stmt) => {
                let plan = self.plan(&stmt)?;
                Ok(ResultSet {
                    columns: Vec::new(),
                    rows: Vec::new(),
                    cost: CostStats::default(),
                    explain: Some(explain(&plan)),
                })
            }
        }
    }

    /// Plans a `SELECT` without executing it.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<PhysicalPlan, SqlError> {
        plan_select(stmt, &self.tables)
    }

    /// Plans and executes a `SELECT` statement.
    pub(crate) fn run_select(&self, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
        let plan = self.plan(stmt)?;
        self.run_plan(&plan)
    }

    /// Executes an already-built physical plan: the borrowed result of
    /// `execute`, cloned cell by cell — the one place a result's values
    /// are copied.
    pub fn run_plan(&self, plan: &PhysicalPlan) -> Result<ResultSet, SqlError> {
        let (rel, cost) = execute(plan, &self.tables)?;
        let columns = project_names(plan).unwrap_or_else(|| rel.column_names());
        let rows = rel.rows().map(|row| row.cloned().collect()).collect();
        Ok(ResultSet { columns, rows, cost, explain: None })
    }

    /// Parses and runs a `SELECT`-only SQL string (convenience for
    /// wrappers that must not mutate).
    pub fn query(&self, sql: &str) -> Result<ResultSet, SqlError> {
        self.run_select(&select_only(sql)?)
    }

    /// [`Database::query`] without the copy: parse, plan, run, and hand
    /// the rows out as references into the tables — same rows, same order,
    /// same `cost`. Nothing is memoized; a caller that consumes the result
    /// once (the engine lifts it into `TermId` columns and caches those)
    /// never pays for an owned `Value`.
    pub fn query_borrowed(&self, sql: &str) -> Result<BorrowedResult<'_>, SqlError> {
        let plan = self.plan(&select_only(sql)?)?;
        let (rows, cost) = execute(&plan, &self.tables)?;
        Ok(BorrowedResult { rows, cost })
    }

    /// Like [`Database::query`], but memoized: the first execution of a
    /// given `SELECT` caches its full owned result (rows *and* cost
    /// statistics); later executions of the same SQL text share it until
    /// the next mutation, whose version bump makes the entry stale. For a
    /// caller that reads the same result many times and keeps no cache of
    /// its own; one that consumes it once wants
    /// [`Database::query_borrowed`].
    /// Callers must charge the returned `cost` exactly as for an uncached
    /// run — a cache hit changes wall-clock time only, never the simulated
    /// execution. Errors are not cached. No engine path calls it; its last
    /// callers are fedbench's `relational.*` probes, which time it by name.
    pub fn query_cached(&self, sql: &str) -> Result<Arc<ResultSet>, SqlError> {
        if let Some(hit) = self.memo().lookup(sql, self.version) {
            return Ok(hit);
        }
        let rs = Arc::new(self.query(sql)?);
        self.memo().insert(sql.to_string(), self.version, Arc::clone(&rs));
        Ok(rs)
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), SqlError> {
        if self.tables.contains_key(&schema.name) {
            return Err(SqlError::AlreadyExists(schema.name));
        }
        let name = schema.name.clone();
        self.tables.insert(name, Table::new(schema)?);
        self.version += 1;
        Ok(())
    }

    /// Creates an index on `table(columns)`.
    pub fn create_index(
        &mut self,
        table: &str,
        name: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<(), SqlError> {
        self.table_mut(table)?.create_index(name, columns, unique)?;
        self.version += 1;
        Ok(())
    }

    /// Inserts a row through the typed API.
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<(), SqlError> {
        self.table_mut(table)?.insert(row)?;
        self.version += 1;
        Ok(())
    }

    /// Immutable table access.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_lowercase())
    }

    /// The only mutable access to a table, under the same spelling rule as
    /// [`Database::table`]. The caller bumps `version` once its write has
    /// been applied.
    fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// True when `table.column` carries an index with that column as the
    /// leading key — the physical-design question the paper's heuristics
    /// ask of each source.
    pub fn has_index_on(&self, table: &str, column: &str) -> bool {
        self.table(table).is_some_and(|t| t.has_index_on(column))
    }
}

fn select_only(sql: &str) -> Result<SelectStmt, SqlError> {
    match parse(sql)? {
        Statement::Select(stmt) => Ok(stmt),
        _ => Err(SqlError::Internal("query() accepts only SELECT".into())),
    }
}

/// The output names of the `Project` under `plan`'s modifiers, if any.
fn project_names(plan: &PhysicalPlan) -> Option<Vec<String>> {
    match plan {
        PhysicalPlan::Project { names, .. } => Some(names.clone()),
        PhysicalPlan::Distinct(inner)
        | PhysicalPlan::Limit { input: inner, .. }
        | PhysicalPlan::Sort { input: inner, .. } => project_names(inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lake_db() -> Database {
        let mut db = Database::new("diseasome");
        db.execute(
            "CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, species TEXT)",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT, class TEXT)",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE gene_disease (gene TEXT, disease TEXT, PRIMARY KEY (gene, disease), \
             FOREIGN KEY (gene) REFERENCES gene (id), \
             FOREIGN KEY (disease) REFERENCES disease (id))",
        )
        .unwrap();
        for i in 0..30 {
            db.execute(&format!(
                "INSERT INTO gene VALUES ('g{i}', 'gene {i}', '{}')",
                if i % 3 == 0 { "Homo sapiens" } else { "Mus musculus" }
            ))
            .unwrap();
            db.execute(&format!(
                "INSERT INTO disease VALUES ('d{i}', 'disease {i}', 'class{}')",
                i % 5
            ))
            .unwrap();
        }
        for i in 0..30 {
            db.execute(&format!(
                "INSERT INTO gene_disease VALUES ('g{i}', 'd{}')",
                (i * 7) % 30
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn ddl_and_inserts() {
        let db = lake_db();
        assert_eq!(db.table("gene").unwrap().len(), 30);
        assert_eq!(db.table_names(), vec!["disease", "gene", "gene_disease"]);
    }

    #[test]
    fn point_query_via_pk() {
        let db = lake_db();
        let rs = db.query("SELECT label FROM gene WHERE id = 'g7'").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("gene 7"));
        // PK access must go through the index, not a scan.
        assert_eq!(rs.cost.rows_scanned, 0);
        assert_eq!(rs.cost.index_probes, 1);
    }

    #[test]
    fn filter_without_index_scans() {
        let db = lake_db();
        let rs = db
            .query("SELECT id FROM gene WHERE species = 'Homo sapiens'")
            .unwrap();
        assert_eq!(rs.rows.len(), 10);
        assert_eq!(rs.cost.rows_scanned, 30);
    }

    #[test]
    fn three_way_join() {
        let db = lake_db();
        let rs = db
            .query(
                "SELECT g.label, d.name FROM gene g \
                 JOIN gene_disease gd ON g.id = gd.gene \
                 JOIN disease d ON gd.disease = d.id",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 30);
        assert_eq!(rs.columns, vec!["label", "name"]);
    }

    #[test]
    fn join_answers_match_manual() {
        let db = lake_db();
        let rs = db
            .query(
                "SELECT d.name FROM gene g \
                 JOIN gene_disease gd ON g.id = gd.gene \
                 JOIN disease d ON gd.disease = d.id \
                 WHERE g.id = 'g3'",
            )
            .unwrap();
        // g3 → d21.
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("disease 21"));
    }

    #[test]
    fn inlj_applies_the_inner_scans_own_access_path() {
        let mut db = lake_db();
        // g3 maps to exactly one disease. The inner table is both probed
        // through its key index by the join and restricted by an index
        // path of its own, which then acts as a filter on fetched rows.
        for (restriction, rows) in [
            ("gd.gene = 'g3'", 1),
            ("gd.gene = 'g4'", 0),
            ("gd.gene IN ('g3', 'g4')", 1),
            ("gd.gene IN ('g4', 'g5')", 0),
            ("gd.gene >= 'g3'", 1),
            ("gd.gene > 'g3'", 0),
            ("gd.gene <= 'g3'", 1),
            ("gd.gene < 'g3'", 0),
        ] {
            let sql = format!(
                "SELECT gd.disease FROM gene g JOIN gene_disease gd ON g.id = gd.gene \
                 WHERE g.id = 'g3' AND {restriction}"
            );
            let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
            assert!(plan.contains("IndexNestedLoopJoin"), "{restriction}: {plan}");
            let rs = db.query(&sql).unwrap();
            assert_eq!(rs.rows.len(), rows, "{restriction}");
            assert_eq!(rs.cost.index_probes, 2, "one for g, one INLJ probe into gd");
        }
    }

    #[test]
    fn order_and_limit() {
        let db = lake_db();
        let rs = db
            .query("SELECT id FROM gene ORDER BY id DESC LIMIT 3")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::text("g9"));
    }

    #[test]
    fn distinct() {
        let db = lake_db();
        let rs = db.query("SELECT DISTINCT species FROM gene").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn like_filter() {
        let db = lake_db();
        let rs = db
            .query("SELECT id FROM gene WHERE species LIKE '%sapiens%'")
            .unwrap();
        assert_eq!(rs.rows.len(), 10);
    }

    #[test]
    fn explain_shows_index_use() {
        let mut db = lake_db();
        let rs = db.execute("EXPLAIN SELECT * FROM gene WHERE id = 'g1'").unwrap();
        let text = rs.explain.unwrap();
        assert!(text.contains("IndexScan"), "plan was: {text}");
        let rs = db
            .execute("EXPLAIN SELECT * FROM gene WHERE species = 'Homo sapiens'")
            .unwrap();
        let text = rs.explain.unwrap();
        assert!(text.contains("SeqScan"), "plan was: {text}");
    }

    #[test]
    fn creating_secondary_index_changes_plan_and_cost() {
        let mut db = lake_db();
        let before = db
            .query("SELECT id FROM disease WHERE class = 'class2'")
            .unwrap();
        assert!(before.cost.rows_scanned > 0);
        db.execute("CREATE INDEX idx_class ON disease (class)").unwrap();
        let after = db
            .query("SELECT id FROM disease WHERE class = 'class2'")
            .unwrap();
        assert_eq!(after.cost.rows_scanned, 0);
        assert!(after.cost.index_probes >= 1);
        // Same answers either way.
        assert_eq!(before.rows.len(), after.rows.len());
    }

    #[test]
    fn stats_and_has_index() {
        use crate::stats::column_stats;
        let db = lake_db();
        assert!(db.has_index_on("gene", "id"));
        assert!(!db.has_index_on("gene", "species"));
        let gene = db.table("gene").unwrap();
        // Mus musculus occurs in 2/3 of rows — above the 15 % threshold.
        assert!(!column_stats(gene, "species").unwrap().is_indexable());
        assert!(column_stats(gene, "id").unwrap().is_indexable());
    }

    /// A table wider than a NULL pattern holds: its equalities are priced
    /// from the profile's distinct counts, `1 / NDV` each, as on any table.
    #[test]
    fn a_wide_tables_equalities_are_priced_from_its_distinct_counts() {
        let mut db = Database::new("wide");
        let columns: Vec<String> = (0..65).map(|c| format!("c{c} INT")).collect();
        db.execute(&format!("CREATE TABLE wide ({}, PRIMARY KEY (c0))", columns.join(", ")))
            .unwrap();
        for i in 0..120 {
            let cell = |c| match c {
                0 => i,
                63 => i % 6,
                64 => i % 4,
                _ => i % 3,
            };
            db.insert_row("wide", (0..65).map(|c| Value::Int(cell(c))).collect()).unwrap();
        }
        let plan = |db: &Database, sql: &str| -> (String, f64) {
            let plan = db.plan(&select_only(sql).unwrap()).unwrap();
            let PhysicalPlan::Project { input, .. } = &plan else { panic!("{plan:?}") };
            let PhysicalPlan::Scan(scan) = &**input else { panic!("{plan:?}") };
            (explain(&plan), scan.estimated_rows)
        };
        let (text, est) = plan(&db, "SELECT c0 FROM wide WHERE c64 = 1");
        let scan = "SeqScan wide AS wide (est 30.0 rows) filter: wide.c64 = 1";
        assert_eq!((text, est), (format!("Project: wide.c0\n  {scan}\n"), 120.0 * 0.25));
        let (text, est) = plan(&db, "SELECT c0 FROM wide WHERE c64 = 1 AND c63 IN (1, 2)");
        let scan = "SeqScan wide AS wide (est 10.0 rows) filter: wide.c64 = 1 AND wide.c63 IN (1, 2)";
        let sel = 0.25 * (1.0 / 6.0 * 2.0);
        assert_eq!((text, est), (format!("Project: wide.c0\n  {scan}\n"), 120.0 * sel));
        db.execute("CREATE INDEX by_c64 ON wide (c64)").unwrap();
        let (text, est) = plan(&db, "SELECT c0 FROM wide WHERE c1 = 2 AND c64 = 1");
        let scan = "IndexScan[by_c64 = 1] wide AS wide (est 10.0 rows) filter: wide.c1 = 2";
        let sel = 0.25 * (1.0 / 3.0);
        assert_eq!((text, est), (format!("Project: wide.c0\n  {scan}\n"), 120.0 * sel));
    }

    /// A column named twice — in the table or in its key, in SQL or in a
    /// typed schema — is rejected: the second could never be reached by
    /// name. The database is left as it was.
    #[test]
    fn a_column_named_twice_is_rejected() {
        use crate::schema::Column;
        use crate::value::DataType;
        let mut db = Database::new("twice");
        let twice = Err(SqlError::AlreadyExists("column a".into()));
        for sql in [
            "CREATE TABLE t (a INT, A TEXT)",
            "CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a, b, a))",
        ] {
            assert_eq!(db.execute(sql).map(|_| ()), twice, "{sql}");
        }
        let columns = vec![Column::new("a", DataType::Int), Column::new("b", DataType::Text)];
        let schema = TableSchema::new("t", columns);
        assert_eq!(db.create_table(schema.clone().with_primary_key(&["a", "A"])), twice);
        let mut doubled = schema.clone();
        doubled.columns.push(Column::new("a", DataType::Bool));
        assert_eq!(db.create_table(doubled), twice);
        assert!(db.table_names().is_empty());
        assert_eq!(db.create_table(schema.with_primary_key(&["a", "b"])), Ok(()));
    }

    #[test]
    fn insert_violating_pk_fails() {
        let mut db = lake_db();
        assert!(db
            .execute("INSERT INTO gene VALUES ('g1', 'dup', 'x')")
            .is_err());
    }

    #[test]
    fn cached_query_matches_and_invalidates() {
        let mut db = lake_db();
        let sql = "SELECT id FROM gene WHERE species = 'Homo sapiens'";
        let fresh = db.query(sql).unwrap();
        let first = db.query_cached(sql).unwrap();
        let second = db.query_cached(sql).unwrap();
        // Hit shares the materialization and reports the original cost.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.rows, fresh.rows);
        assert_eq!(first.cost.rows_scanned, fresh.cost.rows_scanned);
        // Mutations invalidate: the new row must be visible.
        db.execute("INSERT INTO gene VALUES ('g99', 'late', 'Homo sapiens')")
            .unwrap();
        let third = db.query_cached(sql).unwrap();
        assert_eq!(third.rows.len(), fresh.rows.len() + 1);
        let s = db.cache_stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.stale), (3, 1, 2, 1));
    }

    #[test]
    fn a_rejected_write_invalidates_nothing() {
        let mut db = lake_db();
        let sql = "SELECT id FROM gene WHERE species = 'Homo sapiens'";
        let first = db.query_cached(sql).unwrap();
        // What planning the equality reads its distinct count from.
        let profile = db.table("gene").unwrap().profile();
        assert_eq!(profile.rows, 30);

        // Unknown table, arity, type, NOT NULL, unique, duplicate DDL.
        assert!(db.insert_row("nope", vec![Value::Int(1)]).is_err());
        assert!(db.insert_row("gene", vec![Value::text("g100")]).is_err());
        assert!(db
            .insert_row("gene", vec![Value::Int(1), Value::Null, Value::Null])
            .is_err());
        assert!(db
            .insert_row("gene", vec![Value::Null, Value::Null, Value::Null])
            .is_err());
        assert!(db
            .insert_row("gene", vec![Value::text("g1"), Value::Null, Value::Null])
            .is_err());
        assert!(db.execute("INSERT INTO gene VALUES ('g1', 'dup', 'x')").is_err());
        assert!(db.execute("INSERT INTO nope VALUES (1)").is_err());
        assert!(db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY)").is_err());
        assert!(db.create_index("nope", "i", &["id".into()], false).is_err());
        assert!(db.create_index("gene", "i", &["nope".into()], false).is_err());

        let again = db.query_cached(sql).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "the memo entry is still current");
        let s = db.cache_stats();
        assert_eq!((s.lookups, s.hits, s.stale), (2, 1, 0));
        // The profile is still the one planning read, not recomputed.
        db.query(sql).unwrap();
        assert!(Arc::ptr_eq(&profile, &db.table("gene").unwrap().profile()));

        // A multi-row INSERT that fails on its second row applied the first.
        assert!(db
            .execute("INSERT INTO gene VALUES ('g200', 'late', 'Homo sapiens'), ('g1', 'dup', 'x')")
            .is_err());
        let third = db.query_cached(sql).unwrap();
        assert_eq!(third.rows.len(), first.rows.len() + 1);
        assert_eq!(db.cache_stats().stale, 1);
    }

    #[test]
    fn memo_is_bounded_and_a_clone_starts_cold() {
        use crate::cache::CACHE_CAPACITY;
        let db = lake_db();
        // One distinct text per bind-join style key batch.
        let batch = |i: usize| format!("SELECT id FROM gene WHERE id IN ('g{i}')");
        for i in 0..CACHE_CAPACITY + 10 {
            db.query_cached(&batch(i)).unwrap();
        }
        db.query_cached(&batch(CACHE_CAPACITY + 9)).unwrap();
        db.query_cached(&batch(0)).unwrap();
        let s = db.cache_stats();
        assert_eq!(s.lookups, CACHE_CAPACITY as u64 + 12);
        assert_eq!(s.hits, 1, "the newest batch is resident, the oldest was evicted");
        assert_eq!(s.evictions, 11);
        assert_eq!(db.clone().cache_stats(), CacheStats::default());
    }

    #[test]
    fn typed_writes_find_a_table_under_either_spelling() {
        let mut db = lake_db();
        assert_eq!(db.table("Gene").unwrap().len(), 30, "reads fold the case");
        for (i, spelling) in ["gene", "Gene", "GENE"].into_iter().enumerate() {
            db.insert_row(spelling, vec![Value::text(format!("n{i}")), Value::Null, Value::Null])
                .unwrap_or_else(|e| panic!("insert_row({spelling:?}): {e}"));
            db.create_index(spelling, &format!("idx_{i}"), &["label".into()], false)
                .unwrap_or_else(|e| panic!("create_index({spelling:?}): {e}"));
        }
        assert_eq!(db.table("gene").unwrap().len(), 33);
        assert_eq!(db.table("gene").unwrap().indexes().len(), 4);
        assert!(matches!(
            db.insert_row("Nope", vec![Value::Int(1)]),
            Err(SqlError::UnknownTable(t)) if t == "Nope"
        ));
    }

    #[test]
    fn query_rejects_ddl() {
        let db = lake_db();
        assert!(db.query("CREATE TABLE x (a INT)").is_err());
    }

    #[test]
    fn explain_join_shows_algorithm() {
        let mut db = lake_db();
        let rs = db
            .execute(
                "EXPLAIN SELECT g.label, d.name FROM gene g \
                 JOIN gene_disease gd ON g.id = gd.gene \
                 JOIN disease d ON gd.disease = d.id",
            )
            .unwrap();
        let text = rs.explain.unwrap();
        // Both join steps resolve through indexes (PKs).
        assert!(text.contains("IndexNestedLoopJoin"), "plan was: {text}");
        assert!(text.contains("Project: "), "plan was: {text}");
    }

    #[test]
    fn in_list_ignores_null_values_in_rows() {
        let mut db = Database::new("nulls");
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, 'b')").unwrap();
        let rs = db.query("SELECT id FROM t WHERE v IN ('a', 'b', 'c')").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn in_list_query() {
        let db = lake_db();
        let rs = db
            .query("SELECT id FROM gene WHERE id IN ('g1', 'g2', 'zzz')")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.cost.index_probes, 3);
    }

    #[test]
    fn range_query_on_pk() {
        let mut db = Database::new("r");
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')")).unwrap();
        }
        let rs = db.query("SELECT id FROM t WHERE id >= 90").unwrap();
        assert_eq!(rs.rows.len(), 10);
        assert_eq!(rs.cost.rows_scanned, 0);
    }
}
