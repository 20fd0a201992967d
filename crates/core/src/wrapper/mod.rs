//! Source wrappers.
//!
//! A wrapper executes a service request against its source and streams the
//! resulting solution mappings to the engine. Network delays are simulated
//! here, exactly as in the paper: *"Network delays are simulated within
//! the SQL wrapper …; delaying the retrieval of the next answer from the
//! source"* (§3). Every message pulled through the wrapper occupies its
//! [`Link`]'s timeline for a sampled latency, and the source's own
//! computation for the cost model's price of the work the relational
//! engine reports; a stream waits for both (`Landing`) — on the spot
//! under the paper's serialized schedule, as an event otherwise
//! (`ExecCtx::wait_until`).
//!
//! Wrappers are the encode boundary of the slot-row representation: lifted
//! terms are interned into the query-scoped dictionary here, so everything
//! downstream of a wrapper handles `u32` ids only.

mod bind;
mod leaf;
mod lift;
mod route;

pub use bind::{bind_batch_query, BindJoinOp};
pub(crate) use leaf::open_leaf;
pub use leaf::open_service;
pub(crate) use lift::schema_fingerprint;
pub use lift::{lift_result, LiftCache, LiftPlan, LiftedSource, SharedLiftCache};
pub(crate) use route::links_for;
pub use route::{
    route_for, schedule_rows_with_retry, schedule_transfer_with_retry, source_failures,
    total_traffic, RouteExhausted, SourceRoute,
};

use crate::error::FedError;
use crate::operators::{ExecCtx, FedOp, Poll};
use fedlake_sparql::binding::RowId;

/// Drains an operator fully, as a lone driver would: when the operator is
/// waiting, the clock jumps to the event it waits on. Right under either
/// schedule policy — the serialized one just never reports a wait.
pub fn drain(op: &mut dyn FedOp, ctx: &mut ExecCtx) -> Result<Vec<RowId>, FedError> {
    let mut out = Vec::new();
    loop {
        match op.poll_next(ctx)? {
            Poll::Ready(row) => out.push(row),
            Poll::Pending(ev) => ctx.clock.advance_to(ev.time),
            Poll::Done => return Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lift::lift_result_cols;
    use super::*;
    use crate::decompose::decompose;
    use crate::fedplan::{BindTarget, ReplicaRoute, ServiceKind, ServiceNode, SqlRequest};
    use crate::lake::DataLake;
    use crate::source::DataSource;
    use crate::translate::{sql_single, Lift, OutputBinding};
    use fedlake_netsim::Link;
    use fedlake_rdf::{Dictionary, Term, TermId};
    use fedlake_relational::cache::CacheStats;
    use fedlake_relational::{Database, Value};
    use fedlake_sparql::binding::{encode_row, Row, RowSchema};
    use std::sync::Arc;
    use std::time::Duration;
    use crate::operators::EngineStats;
    use crate::translate::{star_column, star_part, TranslatedQuery};
    use fedlake_mapping::{DatasetMapping, IriTemplate, TableMapping};
    use fedlake_netsim::clock::shared_virtual;
    use fedlake_netsim::{CostModel, NetworkProfile};
    use fedlake_rdf::SharedInterner;
    use fedlake_sparql::binding::{decode_row, Var};
    use fedlake_sparql::parser::parse_query;

    fn lake() -> DataLake {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)")
            .unwrap();
        for i in 0..5 {
            db.execute(&format!(
                "INSERT INTO gene VALUES ('g{i}', 'gene {i}', 'd{}')",
                i % 2
            ))
            .unwrap();
        }
        db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
        db.execute("INSERT INTO disease VALUES ('d0', 'asthma'), ('d1', 'cancer')")
            .unwrap();
        let mapping = DatasetMapping::new("d")
            .with_table(
                TableMapping::new(
                    "gene",
                    "http://v/Gene",
                    IriTemplate::new("http://d/gene/{}"),
                    "id",
                )
                .with_literal("label", "http://v/label")
                .with_reference(
                    "disease",
                    "http://v/disease",
                    IriTemplate::new("http://d/disease/{}"),
                ),
            )
            .with_table(
                TableMapping::new(
                    "disease",
                    "http://v/Disease",
                    IriTemplate::new("http://d/disease/{}"),
                    "id",
                )
                .with_literal("name", "http://v/name"),
            );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::relational("d", db, mapping));
        lake
    }

    fn ctx(clock: fedlake_netsim::SharedClock, vars: &[&str]) -> ExecCtx {
        ExecCtx::new(
            clock,
            CostModel::default(),
            Arc::new(RowSchema::new(vars.iter().map(|v| Var::new(*v)))),
            SharedInterner::new(),
        )
    }

    fn decode(c: &ExecCtx, rows: &[RowId]) -> Vec<Row> {
        let dict = c.interner.lock();
        rows.iter().map(|&r| decode_row(&c.schema, &dict, c.rows.row(r)).unwrap()).collect()
    }

    /// Both lifts assign the same id to every cell, and it is the id the
    /// whole-term route (`value_key` → `apply` → `Term` → `intern`, kept
    /// for the oracle lift in `mapping/lift.rs`) assigns — for every value
    /// kind, repeated values, keys that need escaping, and NULLs.
    #[test]
    fn both_lifts_assign_the_ids_of_the_whole_term_route() {
        use fedlake_mapping::lift::{value_key, value_to_term};
        use fedlake_relational::DataType;
        let gene = IriTemplate::new("http://d/gene/{}");
        let page = IriTemplate::new("http://d/{}.html");
        let lifts = [
            Lift::SubjectIri(gene.clone()),
            Lift::RefIri(page.clone()),
            Lift::Literal(DataType::Text),
            Lift::Literal(DataType::Int),
            Lift::Literal(DataType::Double),
            Lift::Literal(DataType::Bool),
            // A text column lifted as an integer literal, as a mapping may ask.
            Lift::Literal(DataType::Int),
        ];
        let vars: Vec<String> = (0..lifts.len()).map(|i| format!("v{i}")).collect();
        let outputs: Vec<OutputBinding> = lifts
            .iter()
            .zip(&vars)
            .map(|(lift, v)| OutputBinding { var: Var::new(v.as_str()), lift: lift.clone() })
            .collect();
        let row = |k: &str, n: i64, d: f64, b: bool| {
            vec![
                Value::text(k),
                Value::Int(n),
                Value::text(k),
                Value::Int(n),
                Value::Double(d),
                Value::Bool(b),
                Value::text(n.to_string()),
            ]
        };
        let mut rows = vec![
            row("g1", 7, 1.5, true),
            row("a b/c%é", -7, -0.0, false),
            row("g1", 7, 1e21, true),
            row("7", 42, 2.0, false),
        ];
        rows.push(vec![Value::Null; lifts.len()]);
        rows[1][3] = Value::Null;
        // The same result through both entry points: owned rows for the
        // row-major lift, cells borrowed from the table for the columnar.
        use DataType::{Bool, Double, Int, Text};
        let columns = vars.iter().zip([Text, Int, Text, Int, Double, Bool, Text]);
        let mut db = Database::new("cells");
        db.create_table(fedlake_relational::TableSchema::new(
            "t",
            columns.map(|(v, dt)| fedlake_relational::Column::new(v.as_str(), dt)).collect(),
        ))
        .unwrap();
        for row in rows {
            db.insert_row("t", row).unwrap();
        }
        let sql = format!("SELECT {} FROM t", vars.join(", "));
        let rs = db.query(&sql).unwrap();
        let borrowed = db.query_borrowed(&sql).unwrap();
        // One extra slot no output binds, and slots in another order than
        // the columns.
        let schema = RowSchema::new(
            ["unused"].into_iter().chain(vars.iter().rev().map(String::as_str)).map(Var::new),
        );

        let mut dict = Dictionary::new();
        let arena = lift_result(&rs, &outputs, &schema, &mut dict);
        let by_row: Vec<&[TermId]> = arena.rows().collect();
        let terms_after_rows = dict.len();
        let by_col = lift_result_cols(&borrowed, &outputs, None, &schema, &mut dict);
        assert_eq!(dict.len(), terms_after_rows, "the columnar lift met only known terms");
        assert_eq!((by_row.len(), by_col.rows), (rs.rows.len(), rs.rows.len()));
        for (r, row) in rs.rows.iter().enumerate() {
            for (i, ob) in outputs.iter().enumerate() {
                let slot = schema.slot(&ob.var).unwrap();
                let expected = match (&row[i], &ob.lift) {
                    (Value::Null, _) => None,
                    (v, Lift::SubjectIri(t) | Lift::RefIri(t)) => {
                        Some(fedlake_rdf::Term::iri(t.apply(&value_key(v))))
                    }
                    (v, Lift::Literal(dt)) => Some(value_to_term(v, *dt)),
                };
                // `id()` never interns: the term must already be there,
                // under the id both lifts wrote.
                let expected = expected
                    .map(|t| dict.id(&t).unwrap_or_else(|| panic!("{t} not interned")));
                assert_eq!(by_row[r][slot].bound(), expected, "row-major, row {r} column {i}");
                let cell = by_col.cols[slot][r];
                let cell = (cell != TermId::UNBOUND).then_some(cell);
                assert_eq!(cell, expected, "columnar, row {r} column {i}");
            }
            assert_eq!(by_row[r][0], TermId::UNBOUND);
            assert_eq!(by_col.cols[0][r], TermId::UNBOUND);
        }
        // Interning the whole terms afterwards adds nothing either.
        dict.intern(fedlake_rdf::Term::iri(gene.apply("a b/c%é")));
        dict.intern(value_to_term(&Value::Double(1e21), DataType::Double));
        assert_eq!(dict.len(), terms_after_rows);
    }

    /// The service leaf of the test lake's gene star (`?g`, `?l`).
    fn gene_node(lake: &DataLake) -> ServiceNode {
        let star = decompose(
            &parse_query("SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l }")
                .unwrap(),
        )
        .unwrap()
        .stars
        .remove(0);
        let (tm, schema) = match lake.source("d").unwrap() {
            DataSource::Relational { db, mapping, .. } => (
                mapping.for_table("gene").unwrap().clone(),
                db.table("gene").unwrap().schema.clone(),
            ),
            _ => unreachable!("lake() builds a relational source"),
        };
        let q = sql_single(&star_part(&star, &tm, &schema, &[], "s0").unwrap());
        ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(q),
                covers: vec!["?g".into()],
            },
            estimated_rows: 5.0,
        }
    }

    #[test]
    fn sql_stream_lifts_rows() {
        let lake = lake();
        let node = gene_node(&lake);
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::GAMMA2,
            Arc::clone(&clock),
            CostModel::default(),
            7,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g", "l"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 5);
        let decoded = decode(&c, &rows);
        assert!(decoded[0]
            .get(&Var::new("g"))
            .unwrap()
            .as_iri()
            .unwrap()
            .starts_with("http://d/gene/"));
        assert_eq!(c.stats.sql_queries, 1);
        // 1 request + 5 per-row messages.
        assert_eq!(link.stats().messages, 6);
        assert!(c.clock.now() > Duration::ZERO);
    }

    /// A lone leaf has nothing to overlap with: draining it takes the same
    /// rows, the same traffic and the same simulated time whether its waits
    /// surface as events or are sat out on the spot — and only the former
    /// ever touches the event queue.
    #[test]
    fn drain_times_a_lone_leaf_the_same_under_either_policy() {
        let lake = lake();
        let node = gene_node(&lake);
        let run = |serialized: bool, rows_per_message: usize| {
            let clock = shared_virtual();
            let link = Arc::new(Link::new(
                NetworkProfile::GAMMA2,
                Arc::clone(&clock),
                CostModel::default(),
                7,
            ));
            let route = SourceRoute::single("d", Arc::clone(&link));
            let mut op = open_service(&node, &lake, route, rows_per_message).unwrap();
            let mut c = ctx(clock, &["g", "l"]);
            if serialized {
                c = c.serialized();
            }
            let rows = drain(op.as_mut(), &mut c).unwrap();
            assert!(c.sched.is_empty());
            let events_scheduled = c.sched.schedule(Duration::ZERO).seq;
            (decode(&c, &rows), c.clock.now(), link.stats(), c.stats, events_scheduled)
        };
        for rows_per_message in [1, 2] {
            let (rows, end, traffic, stats, events) = run(false, rows_per_message);
            let (s_rows, s_end, s_traffic, s_stats, s_events) = run(true, rows_per_message);
            assert_eq!(rows.len(), 5);
            assert_eq!((rows, end, traffic, stats), (s_rows, s_end, s_traffic, s_stats));
            // One event for the request + evaluation, one per result message.
            assert_eq!(events, traffic.messages);
            assert_eq!(s_events, 0, "a serialized wait never becomes an event");
        }
    }

    #[test]
    fn empty_result_still_messages() {
        let lake = lake();
        let node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT g.id AS i FROM gene g WHERE g.id = 'zzz'".into(),
                    outputs: Vec::new(),
                }),
                covers: Vec::new(),
            },
            estimated_rows: 0.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            7,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g"]);
        assert!(drain(op.as_mut(), &mut c).unwrap().is_empty());
        // Request + empty answer.
        assert_eq!(link.stats().messages, 2);
    }

    #[test]
    fn sparql_stream_evaluates_star() {
        let mut g = fedlake_rdf::Graph::new();
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/x"),
            fedlake_rdf::Term::iri("http://v/p"),
            fedlake_rdf::Term::integer(5),
        );
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/y"),
            fedlake_rdf::Term::iri("http://v/p"),
            fedlake_rdf::Term::integer(50),
        );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("r", g));
        let d = decompose(
            &parse_query("SELECT * WHERE { ?s <http://v/p> ?o . FILTER(?o > 10) }").unwrap(),
        )
        .unwrap();
        let node = ServiceNode {
            source_id: "r".into(),
            route: None,
            kind: ServiceKind::Sparql {
                star: d.stars[0].clone(),
                filters: d.stars[0].filters.clone(),
            },
            estimated_rows: 1.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
        ));
        let mut op = open_service(&node, &lake, SourceRoute::single("r", link), 1).unwrap();
        let mut c = ctx(clock, &["s", "o"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 1);
    }

    /// The bind-join target of the test lake: the `disease` star, keyed by
    /// the disease IRIs `?d` binds.
    fn disease_target(lake: &DataLake) -> BindTarget {
        let (tm, schema) = match lake.source("d").unwrap() {
            DataSource::Relational { db, mapping, .. } => (
                mapping.for_table("disease").unwrap().clone(),
                db.table("disease").unwrap().schema.clone(),
            ),
            _ => unreachable!("lake() builds a relational source"),
        };
        let star = decompose(
            &parse_query("SELECT * WHERE { ?d <http://v/name> ?n }").unwrap(),
        )
        .unwrap()
        .stars
        .remove(0);
        BindTarget {
            source_id: "d".into(),
            route: None,
            part: star_part(&star, &tm, &schema, &[], "s0").unwrap(),
            join_var: Var::new("d"),
            column: star_column(&Var::new("d"), &star, &tm, &schema).unwrap(),
            covers: "?d".into(),
            estimated_rows: 2.0,
        }
    }

    /// What one bind-join execution leaves behind: the decoded answers, the
    /// engine counters, the simulated end time and the link's traffic.
    type BindRun = (Vec<Row>, EngineStats, Duration, (u64, u64, Duration));

    /// Runs a bind join of `left` (one row per term, bound to `?d`, two
    /// rows per batch) against the disease target on a fresh clock and
    /// link, with the interner and lift cache of `session`.
    fn run_bind(
        lake: &DataLake,
        session: &(SharedInterner, SharedLiftCache),
        vars: &[&str],
        left: &[Option<Term>],
        overlap: bool,
    ) -> BindRun {
        let clock = shared_virtual();
        let link =
            Arc::new(Link::new(NetworkProfile::GAMMA1, Arc::clone(&clock), CostModel::default(), 7));
        let mut c = ctx(Arc::clone(&clock), vars).with_lifts(Arc::clone(&session.1));
        if !overlap {
            c = c.serialized();
        }
        c.interner = session.0.clone();
        let rows = left
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut r = Row::new().with("g", Term::iri(format!("http://d/gene/g{i}")));
                if let Some(d) = d {
                    r.bind(Var::new("d"), d.clone());
                }
                let id = c.rows.push_unbound();
                encode_row(&r, &c.schema, &mut c.interner.lock(), |s, t| c.rows.set(id, s, t));
                id
            })
            .collect();
        let mut op = BindJoinOp::new(
            Box::new(crate::operators::RowsOp::new(rows)),
            &disease_target(lake),
            lake,
            SourceRoute::single("d", Arc::clone(&link)),
            1,
            2,
        )
        .unwrap();
        let out = drain(&mut op, &mut c).unwrap();
        assert!(c.sched.is_empty(), "every event was completed, or none was ever scheduled");
        let traffic = link.stats();
        (
            decode(&c, &out),
            c.stats,
            c.clock.now(),
            (traffic.messages, traffic.rows, traffic.delay),
        )
    }

    fn disease(id: &str) -> Option<Term> {
        Some(Term::iri(format!("http://d/disease/{id}")))
    }

    #[test]
    fn a_batch_hit_replays_what_the_miss_produced() {
        let lake = lake();
        // Three batches of two left rows; the third repeats the first's
        // key set, so it already hits within the first execution.
        let left = [disease("d0"), disease("d1"), disease("d1"), None, disease("d0"), disease("d1")];
        for overlap in [false, true] {
            let session = (SharedInterner::new(), SharedLiftCache::default());
            let miss = run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            let after_miss = session.1.stats();
            assert_eq!((after_miss.lookups, after_miss.misses, after_miss.hits), (3, 2, 1));
            let hit = run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            let after_hit = session.1.stats();
            assert_eq!((after_hit.lookups, after_hit.misses, after_hit.hits), (6, 2, 4));
            assert_eq!(miss, hit, "overlap={overlap}: a hit may only change host time");
            let (rows, stats, _, (messages, shipped, _)) = miss;
            assert_eq!(rows.len(), 5, "every left row binding ?d finds its disease");
            assert!(rows.iter().all(|r| r.is_bound(&Var::new("n"))));
            // One request per batch; 2 + 1 + 2 result rows, one per message.
            assert_eq!((stats.sql_queries, stats.service_rows), (3, 5));
            assert_eq!((messages, shipped), (3 + 5, 5));
        }
    }

    #[test]
    fn equal_key_ids_under_two_slot_layouts_do_not_share_an_entry() {
        let lake = lake();
        let session = (SharedInterner::new(), SharedLiftCache::default());
        let left = [disease("d0"), disease("d1")];
        let a = run_bind(&lake, &session, &["g", "d", "n"], &left, false);
        // The same terms — the same ids — with every slot somewhere else.
        let b = run_bind(&lake, &session, &["n", "d", "g"], &left, false);
        let stats = session.1.stats();
        assert_eq!((stats.lookups, stats.misses, stats.hits), (2, 2, 0), "{stats:?}");
        assert_eq!(a, b, "both layouts decode to the same answers");
        assert_eq!(a.0.len(), 2);
    }

    #[test]
    fn a_batch_without_an_extractable_key_asks_nothing() {
        let lake = lake();
        let session = (SharedInterner::new(), SharedLiftCache::default());
        // An IRI the target's template did not mint, a literal where it
        // expects an IRI, and rows that do not bind the join variable at
        // all.
        let left = [Some(Term::iri("http://elsewhere/disease/d0")), Some(Term::literal("d0")), None];
        for overlap in [false, true] {
            let (rows, stats, end, traffic) =
                run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            assert!(rows.is_empty());
            assert_eq!(stats, EngineStats::default(), "no request, no probe");
            assert_eq!((end, traffic), (Duration::ZERO, (0, 0, Duration::ZERO)));
            assert_eq!(session.1.stats(), CacheStats::default(), "no lookup");
        }
    }

    /// The template's bare prefix is the IRI of the empty key: a batch
    /// asks about it, and finds nothing in a lake that stores no such key.
    #[test]
    fn a_batch_asks_about_the_empty_key() {
        let lake = lake();
        let session = (SharedInterner::new(), SharedLiftCache::default());
        for overlap in [false, true] {
            let left = [Some(Term::iri("http://d/disease/"))];
            let (rows, stats, _, (messages, shipped, _)) =
                run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            assert!(rows.is_empty());
            assert_eq!((stats.sql_queries, stats.service_rows, stats.engine_join_probes), (1, 0, 1));
            // The request and the empty-result notification.
            assert_eq!((messages, shipped), (2, 0));
        }
    }

    /// One message over `route` right now, waited for: the chain is
    /// scheduled at the clock's time and the clock jumps to where it ends.
    fn transfer_now(route: &SourceRoute, rows: usize, c: &mut ExecCtx) -> Result<(), FedError> {
        let (end, result) = match schedule_transfer_with_retry(route, rows, c.clock.now(), c) {
            Ok(done) => (done, Ok(())),
            Err(x) => (x.at, Err(x.error)),
        };
        c.clock.advance_to(end);
        result
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let clock = shared_virtual();
        // Attempts 0 and 1 hit the outage; attempt 2 succeeds.
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: 2,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        transfer_now(&route, 1, &mut c).unwrap();
        assert_eq!(c.stats.retries, 2);
        let s = link.stats();
        assert_eq!((s.messages, s.outage_faults), (1, 2));
        // Two detection timeouts (10 ms each) plus backoff 2 ms + 4 ms,
        // then the delivery's transfer cost.
        assert_eq!(c.clock.now(), Duration::from_nanos(26_004_600));
    }

    #[test]
    fn exhausted_retry_budget_is_source_unavailable() {
        let clock = shared_virtual();
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: u64::MAX,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(clock, &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let err = transfer_now(&route, 1, &mut c).unwrap_err();
        assert_eq!(
            err,
            FedError::SourceUnavailable { source: "s".into(), attempts: 3 }
        );
        assert_eq!(c.stats.retries, 2);
        assert_eq!(link.stats().messages, 0);
    }

    fn dead_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
            fedlake_netsim::FaultPlan {
                outage_after: Some(0),
                outage_len: u64::MAX,
                ..fedlake_netsim::FaultPlan::NONE
            },
        ))
    }

    fn live_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
        ))
    }

    #[test]
    fn failover_rescues_a_dead_primary() {
        let clock = shared_virtual();
        let dead = dead_link(&clock, 1);
        let live = live_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&dead)), ("s#r1".into(), Arc::clone(&live))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        transfer_now(&route, 1, &mut c).unwrap();
        // Full budget burnt on r0 (2 intra-replica retries + the failover
        // switch), then r1 delivers on its first attempt.
        assert_eq!(c.stats.retries, 3);
        assert_eq!(dead.stats().faults(), 3);
        assert_eq!(live.stats().messages, 1);
        assert_eq!(route.active_endpoint(), "s#r1");
        // The stream is sticky: follow-up messages go straight to r1.
        transfer_now(&route, 1, &mut c).unwrap();
        assert_eq!(live.stats().messages, 2);
        assert_eq!(dead.stats().faults(), 3);
    }

    #[test]
    fn exhausting_every_replica_names_the_logical_source() {
        let clock = shared_virtual();
        let r0 = dead_link(&clock, 1);
        let r1 = dead_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&r0)), ("s#r1".into(), Arc::clone(&r1))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let err = transfer_now(&route, 1, &mut c).unwrap_err();
        assert_eq!(
            err,
            FedError::SourceUnavailable { source: "s".into(), attempts: 6 }
        );
        // Six detection timeouts and, on each replica, backoffs 2 ms + 4 ms.
        assert_eq!(c.clock.now(), Duration::from_millis(72));
        // Every non-terminal failure counts: 2 + 2 intra-replica retries
        // plus the one failover switch.
        assert_eq!(c.stats.retries, 5);
        assert_eq!(r0.stats().faults(), 3);
        assert_eq!(r1.stats().faults(), 3);
    }

    /// The failover chain, pinned to where the blocking retry loop left
    /// the clock before the two chains became one.
    #[test]
    fn failover_chain_lands_at_the_pinned_time() {
        let clock = shared_virtual();
        let dead = dead_link(&clock, 1);
        let live = live_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&dead)), ("s#r1".into(), Arc::clone(&live))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let done = schedule_transfer_with_retry(&route, 1, Duration::ZERO, &mut c).unwrap();
        assert_eq!(c.stats.retries, 3);
        assert_eq!(dead.stats().faults(), 3);
        assert_eq!(live.stats().messages, 1);
        assert_eq!(route.active_endpoint(), "s#r1");
        // 3 detection timeouts (10 ms) + backoffs 2 ms + 4 ms on r0, then
        // r1's delivery (4.6 µs of transfer cost on a NoDelay link).
        assert_eq!(done, Duration::from_nanos(36_004_600));
        // The chain occupied the links; nobody has waited for it yet.
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!((dead.local_time(), live.local_time()), (Duration::from_millis(36), done));
    }

    #[test]
    fn backoff_is_clamped_at_the_deadline() {
        let clock = shared_virtual();
        // Attempt 0 fails, attempt 1 succeeds: exactly one backoff pause.
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: 1,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy {
            max_attempts: 2,
            timeout: Duration::from_millis(1),
            backoff: Duration::from_secs(10),
        };
        c.deadline = Some(Duration::from_millis(5));
        transfer_now(&route, 1, &mut c).unwrap();
        // Timeout 1 ms, then the 10 s backoff clamps to the 4 ms left
        // before the deadline: the clock lands on the deadline plus the
        // final delivery's transfer cost, not 10 s past it.
        assert_eq!(c.clock.now(), Duration::from_nanos(5_004_600));
    }

    #[test]
    fn a_replica_route_naming_no_endpoint_is_a_typed_error() {
        let clock = shared_virtual();
        let links: std::collections::HashMap<String, Arc<Link>> =
            [("s".to_string(), live_link(&clock, 1))].into();
        let nowhere = ReplicaRoute { endpoints: Vec::new(), reason: "by hand".into() };
        let err = route_for("s", &Some(nowhere), &links).unwrap_err();
        assert!(matches!(err, FedError::Internal(_)), "{err}");
        assert_eq!(route_for("s", &None, &links).unwrap().active_endpoint(), "s");
    }

    #[test]
    fn links_are_deterministic_and_distinct() {
        let lake = lake();
        let clock = shared_virtual();
        let links = links_for(
            &lake,
            NetworkProfile::GAMMA1,
            clock,
            CostModel::default(),
            42,
            &fedlake_netsim::FaultPlans::default(),
            &Default::default(),
            &crate::obs::QueryObs::default(),
        );
        assert_eq!(links.len(), 1);
        let (m, r, d) = total_traffic(&links);
        assert_eq!((m, r), (0, 0));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn replicated_lake_gets_one_link_per_endpoint() {
        let mut lake = lake();
        lake.set_replicas("d", 3);
        let clock = shared_virtual();
        let links = links_for(
            &lake,
            NetworkProfile::GAMMA1,
            clock,
            CostModel::default(),
            42,
            &fedlake_netsim::FaultPlans::default(),
            &Default::default(),
            &crate::obs::QueryObs::default(),
        );
        assert_eq!(links.len(), 3);
        for k in ["d#r0", "d#r1", "d#r2"] {
            assert!(links.contains_key(k), "missing link for {k}");
        }
        assert!(!links.contains_key("d"));
    }

    #[test]
    fn source_failures_fold_replicas_into_the_logical_id() {
        let clock = shared_virtual();
        let r0 = dead_link(&clock, 1);
        let r1 = dead_link(&clock, 2);
        let _ = r0.try_transfer_message(1);
        let _ = r0.try_transfer_message(1);
        let _ = r1.try_transfer_message(1);
        let links: std::collections::HashMap<String, Arc<Link>> =
            [("s#r0".to_string(), r0), ("s#r1".to_string(), r1)].into();
        let failures = source_failures(&links);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures["s"], 3);
    }
}
