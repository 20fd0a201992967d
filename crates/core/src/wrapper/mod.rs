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
//!
//! [`Link`]: fedlake_netsim::Link

mod bind;
mod leaf;
mod lift;
mod route;

pub use bind::{bind_batch_query, BindJoinOp};
pub use leaf::open_service;
pub(crate) use lift::schema_fingerprint;
pub use lift::{lift_result, LiftCache, LiftedSource, SharedLiftCache};
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
    use super::leaf::{lifted, LeafRequest};
    use super::lift::{lift_result_cols, LiftKey};
    use crate::planner::LiftPlan;
    use super::*;
    use crate::decompose::decompose;
    use crate::fedplan::{BindTarget, FedPlan, ReplicaRoute, ServiceKind, ServiceNode, SqlRequest};
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
    use crate::operators::{EngineStats, SharedVerdictMemo};
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
                    IriTemplate::new("http://d/gene/", ""),
                    "id",
                )
                .with_literal("label", "http://v/label")
                .with_reference(
                    "disease",
                    "http://v/disease",
                    IriTemplate::new("http://d/disease/", ""),
                ),
            )
            .with_table(
                TableMapping::new(
                    "disease",
                    "http://v/Disease",
                    IriTemplate::new("http://d/disease/", ""),
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
    /// kind, repeated values, keys that need escaping, and NULLs. A cached
    /// row is the arena's row, slot for slot; under a guard, the cached
    /// rows are the rows the guard keeps, and each row it rejects is a
    /// verdict bit with no cells.
    #[test]
    fn both_lifts_assign_the_ids_of_the_whole_term_route() {
        use fedlake_mapping::lift::{value_key, value_to_term};
        use fedlake_relational::DataType;
        let gene = IriTemplate::new("http://d/gene/", "");
        let page = IriTemplate::new("http://d/", ".html");
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
        let all = LiftPlan::default();
        let by_col = lift_result_cols(&borrowed, &outputs, &all, &schema, &mut dict);
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
            }
            assert_eq!(by_row[r][0], TermId::UNBOUND);
            // The whole row, the unused slot included.
            assert_eq!(by_col.row(r), by_row[r], "cached, row {r}");
        }
        assert_eq!(by_col.ids.len(), by_col.rows * schema.len());
        // Interning the whole terms afterwards adds nothing either.
        dict.intern(fedlake_rdf::Term::iri(gene.apply("a b/c%é")));
        dict.intern(value_to_term(&Value::Double(1e21), DataType::Double));
        assert_eq!(dict.len(), terms_after_rows);

        // Under a guard the planner set (an engine FILTER straight over the
        // leaf), the kept rows are the row-major lift's, in order, and the
        // verdict bits are this test's own check of the label.
        let lake = lake();
        let query =
            parse_query("SELECT * WHERE { ?g <http://v/label> ?l . FILTER(?l = \"gene 3\") }")
                .unwrap();
        let config = crate::PlanConfig::unaware(NetworkProfile::NO_DELAY);
        let planned = crate::planner::plan_query_with_health(
            &query,
            &lake,
            &config,
            &crate::health::HealthView::default(),
        )
        .unwrap();
        let mut leaves = Vec::new();
        planned.plan.visit(0, &mut |p, _| {
            if let FedPlan::Service(node) = p {
                leaves.push(node);
            }
        });
        let [node] = leaves[..] else { panic!("one leaf: {:?}", planned.plan) };
        let ServiceKind::Sql { request, .. } = &node.kind else { panic!("a SQL leaf") };
        let (q, schema) = (request.query(), &planned.schema);
        assert_eq!(node.lift.guards().len(), 1, "{:?}", node.lift);
        let Some(DataSource::Relational { db, .. }) = lake.source("d") else {
            unreachable!("lake() builds a relational source")
        };
        let (rs, mut dict) = (db.query(&q.sql).unwrap(), Dictionary::new());
        let arena = lift_result(&rs, &q.outputs, schema, &mut dict);
        let borrowed = db.query_borrowed(&q.sql).unwrap();
        let guarded = lift_result_cols(&borrowed, &q.outputs, &node.lift, schema, &mut dict);
        let at = q.outputs.iter().position(|o| o.var.name() == "l").unwrap();
        let mut kept = Vec::new();
        for (r, row) in arena.rows().enumerate() {
            let keeps = rs.rows[r][at] == Value::text("gene 3");
            assert_eq!(guarded.is_dropped(r), !keeps, "row {r}: the verdict bit");
            if keeps {
                kept.push(row);
            }
        }
        assert_eq!((guarded.rows, guarded.kept(), kept.len()), (5, 1, 1));
        for (k, row) in kept.into_iter().enumerate() {
            assert_eq!(guarded.row(k), row, "kept row {k}");
        }
        assert_eq!(guarded.ids.len(), schema.len(), "a rejected row's cells are kept nowhere");
    }

    /// A guarded leaf hands each row its guards rejected up as
    /// `RowId::DROPPED`, so draining `Filter(Service)` leaves only the kept
    /// rows in the arena. Everything else is what the same plan does when
    /// its leaf lifts everything (`LiftPlan::default()`): the answers, the
    /// filter's evaluations, the clock, the execution's statistics and the
    /// leaf's actual rows.
    #[test]
    fn a_row_the_guards_drop_never_enters_the_arena() {
        let lake = lake();
        let query =
            parse_query("SELECT * WHERE { ?g <http://v/label> ?l . FILTER(?l = \"gene 3\") }")
                .unwrap();
        let config = crate::PlanConfig {
            tracing: true,
            ..crate::PlanConfig::unaware(NetworkProfile::GAMMA2)
        };
        let health = crate::health::HealthView::default();
        let guarded = crate::planner::plan_query_with_health(&query, &lake, &config, &health);
        let guarded = guarded.unwrap();
        let mut unguarded = guarded.clone();
        let leaf = |plan: &mut FedPlan| -> Option<Arc<LiftPlan>> {
            let FedPlan::Filter { input, .. } = plan else { return None };
            let FedPlan::Service(node) = &mut **input else { return None };
            Some(std::mem::take(&mut node.lift))
        };
        let lift = leaf(&mut unguarded.plan).expect("a FILTER straight over a SQL leaf");
        assert_eq!(lift.guards().len(), 1, "{lift:?}");
        let run = |planned: &crate::planner::PlannedQuery| {
            let engine = crate::FederatedEngine::new(lake.clone(), config);
            let result = engine.execute_planned(planned).unwrap();
            // Node 1 is the leaf: the FILTER is node 0.
            let leaf_rows = result.obs.as_ref().map(|obs| obs.nodes[1].rows_out);
            // The same operators, drained by hand to see the arena.
            let clock = shared_virtual();
            let links = links_for(
                &lake,
                config.network,
                Arc::clone(&clock),
                config.cost,
                config.seed,
                &engine.fault_plans(),
                engine.delays(),
                &crate::obs::QueryObs::default(),
            );
            let (schema, interner) = (Arc::clone(&planned.schema), engine.interner().clone());
            let mut c = ExecCtx::new(clock, config.cost, schema, interner)
                .with_lifts(Arc::clone(engine.lifts()));
            let mut op = engine.build_operator(planned, &planned.plan, &links, &c, &mut 0).unwrap();
            let out = drain(op.as_mut(), &mut c).unwrap();
            let drained = (decode(&c, &out), c.stats, c.clock.now());
            (c.rows.len(), drained, result.rows, result.stats, leaf_rows)
        };
        let (arena, drained, answers, stats, leaf_rows) = run(&guarded);
        let (all_arena, all_drained, all_answers, all_stats, all_leaf_rows) = run(&unguarded);
        assert_eq!((arena, all_arena), (1, 5), "only the kept row is copied in");
        assert_eq!(drained, all_drained);
        assert_eq!((drained.0.len(), drained.1.engine_filter_evals), (1, 5));
        assert_eq!((answers, stats), (all_answers, all_stats));
        assert_eq!((leaf_rows, all_leaf_rows), (Some(5), Some(5)), "every shipped row counts");
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
            lift: Arc::default(),
        }
    }

    #[test]
    fn sql_stream_lifts_rows() {
        let lake = lake();
        let node = gene_node(&lake);
        let clock = shared_virtual();
        let link =
            Link::new(NetworkProfile::GAMMA2, Arc::clone(&clock), CostModel::default(), 7).shared();
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
            let link =
                Link::new(NetworkProfile::GAMMA2, Arc::clone(&clock), CostModel::default(), 7)
                    .shared();
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
            lift: Arc::default(),
        };
        let clock = shared_virtual();
        let link = Link::new(NetworkProfile::NO_DELAY, Arc::clone(&clock), CostModel::default(), 7)
            .shared();
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g"]);
        assert!(drain(op.as_mut(), &mut c).unwrap().is_empty());
        // Request + empty answer.
        assert_eq!(link.stats().messages, 2);
    }

    /// The route the engine ships rows on sends ceil(n / batch) messages
    /// (one empty message for n = 0) and exactly n rows when no fault
    /// plan is active.
    #[test]
    fn scheduled_rows_take_ceil_n_over_batch_messages() {
        let mut meta = fedlake_prng::Prng::seed_from_u64(0x4e75_0041);
        let seeded: Vec<(usize, usize)> =
            (0..128).map(|_| (meta.gen_range(0usize..500), meta.gen_range(1usize..64))).collect();
        let edges = [(0, 1), (0, 64), (1, 1), (64, 64), (65, 64)];
        for (total, batch) in edges.into_iter().chain(seeded) {
            let clock = shared_virtual();
            let link =
                Link::new(NetworkProfile::GAMMA1, Arc::clone(&clock), CostModel::default(), 1)
                    .shared();
            let route = SourceRoute::single("d", Arc::clone(&link));
            let mut c = ctx(clock, &["g"]);
            route::schedule_rows_with_retry(&route, total, batch, Duration::ZERO, &mut c).unwrap();
            let stats = link.stats();
            let expected = if total == 0 { 1 } else { total.div_ceil(batch) as u64 };
            assert_eq!(stats.messages, expected, "{total} rows in messages of {batch}");
            assert_eq!(stats.rows, total as u64, "{total} rows in messages of {batch}");
        }
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
            lift: Arc::default(),
        };
        let clock = shared_virtual();
        let link = Link::new(NetworkProfile::NO_DELAY, Arc::clone(&clock), CostModel::default(), 1)
            .shared();
        let mut op = open_service(&node, &lake, SourceRoute::single("r", link), 1).unwrap();
        let mut c = ctx(clock, &["s", "unused", "o"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 1);
        // The cached answer holds the arena's row, slot for slot.
        let Some(DataSource::Sparql { graph, .. }) = lake.source("r") else {
            unreachable!("the lake mounts one SPARQL source")
        };
        let (star, filters) = (&d.stars[0], &d.stars[0].filters);
        let request = LeafRequest::Sparql { graph, star, filters };
        let version = lake.source_version("r").unwrap();
        let cached = lifted(&request, &request.signature("r").into(), version, &c).unwrap();
        assert_eq!(c.lifts.stats().hits, 1, "the stream's own answer");
        assert_eq!(cached.rows, 1);
        assert_eq!(cached.row(0), c.rows.row(rows[0]));
        assert_eq!(cached.row(0)[1], TermId::UNBOUND);
    }

    /// A cached answer of another width than the execution's schema is a
    /// typed error where a leaf or a bind-join batch opens it — not rows
    /// shifted out of their slots.
    #[test]
    fn an_answer_of_another_width_is_a_typed_error() {
        let lake = lake();
        let Some(DataSource::Relational { db, .. }) = lake.source("d") else {
            unreachable!("lake() builds a relational source")
        };
        let version = lake.source_version("d").unwrap();
        // One row, one slot wide, under the execution's own layout.
        let narrow = || {
            let sql_cost = Some(Default::default());
            let ids = vec![TermId(0)];
            Arc::new(LiftedSource { ids, width: 1, rows: 1, dropped: Vec::new(), sql_cost })
        };
        let link = |clock: &fedlake_netsim::SharedClock| {
            let cost = CostModel::default();
            Link::new(NetworkProfile::NO_DELAY, Arc::clone(clock), cost, 7).shared()
        };
        let expect_internal = |got: Result<Vec<RowId>, FedError>| match got {
            Err(FedError::Internal(msg)) => assert!(msg.contains("1 slots wide"), "{msg}"),
            other => panic!("a misfit answer was opened: {other:?}"),
        };

        let node = gene_node(&lake);
        let ServiceKind::Sql { request, .. } = &node.kind else { unreachable!("a SQL leaf") };
        let leaf = LeafRequest::Sql { db, query: request.query(), lift: &node.lift };
        let clock = shared_virtual();
        let mut c = ctx(Arc::clone(&clock), &["g", "l"]);
        let signature = leaf.signature("d").into();
        let key = LiftKey { layout: c.layout, signature, ids: Box::default() };
        c.lifts.lock().insert(key, version, narrow());
        let mut op = open_service(&node, &lake, SourceRoute::single("d", link(&clock)), 1).unwrap();
        expect_internal(drain(op.as_mut(), &mut c));

        let target = disease_target(&lake);
        let clock = shared_virtual();
        let mut c = ctx(Arc::clone(&clock), &["d", "n"]);
        let d0 = c.interner.lock().intern(disease("d0").unwrap());
        let left = c.rows.push_row(&[d0, TermId::UNBOUND]);
        let batch = LeafRequest::Batch { db, target: &target, ids: &[] };
        let signature = batch.signature("d").into();
        let key = LiftKey { layout: c.layout, signature, ids: Box::new([d0]) };
        c.lifts.lock().insert(key, version, narrow());
        let route = SourceRoute::single("d", link(&clock));
        let rows = Box::new(crate::operators::RowsOp::new(vec![left]));
        let mut op = BindJoinOp::new(rows, &target, &lake, route, 1, 1).unwrap();
        expect_internal(drain(&mut op, &mut c));
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
        let column = star_column(&Var::new("d"), &star, &tm, &schema).unwrap();
        BindTarget {
            source_id: "d".into(),
            route: None,
            part: star_part(&star, &tm, &schema, &[], "s0").unwrap(),
            join_var: Var::new("d"),
            verdict_key: Some(crate::planner::bind_verdict_key(&column.lift)),
            column,
            covers: "?d".into(),
            estimated_rows: 2.0,
            lift: Arc::default(),
        }
    }

    /// What one bind-join execution leaves behind: the decoded answers, the
    /// engine counters, the simulated end time and the link's traffic.
    type BindRun = (Vec<Row>, EngineStats, Duration, (u64, u64, Duration));

    /// Runs a bind join of `left` (one row per term, bound to `?d`,
    /// `batch` rows per batch) against the disease target on a fresh clock
    /// and link, with the interner and lift cache of `session` and a fresh
    /// verdict memo.
    fn run_bind(
        lake: &DataLake,
        session: &(SharedInterner, SharedLiftCache),
        vars: &[&str],
        left: &[Option<Term>],
        overlap: bool,
        batch: usize,
    ) -> BindRun {
        let memo = SharedVerdictMemo::default();
        run_bind_with(lake, session, &memo, vars, left, overlap, batch)
    }

    /// [`run_bind`] over the verdict memo `memo`.
    fn run_bind_with(
        lake: &DataLake,
        session: &(SharedInterner, SharedLiftCache),
        memo: &SharedVerdictMemo,
        vars: &[&str],
        left: &[Option<Term>],
        overlap: bool,
        batch: usize,
    ) -> BindRun {
        let clock = shared_virtual();
        let link =
            Link::new(NetworkProfile::GAMMA1, Arc::clone(&clock), CostModel::default(), 7).shared();
        let mut c = ctx(Arc::clone(&clock), vars).with_lifts(Arc::clone(&session.1));
        if !overlap {
            c = c.serialized();
        }
        c.interner = session.0.clone();
        c.verdicts = Arc::clone(memo);
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
        let target = disease_target(lake);
        let mut op = BindJoinOp::new(
            Box::new(crate::operators::RowsOp::new(rows)),
            &target,
            lake,
            SourceRoute::single("d", Arc::clone(&link)),
            1,
            batch,
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
            let miss = run_bind(&lake, &session, &["g", "d", "n"], &left, overlap, 2);
            let after_miss = session.1.stats();
            assert_eq!((after_miss.lookups, after_miss.misses, after_miss.hits), (3, 2, 1));
            let hit = run_bind(&lake, &session, &["g", "d", "n"], &left, overlap, 2);
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

    /// A bind join finds the same rows whatever its batch size: each size
    /// from 1 to 9, on both schedules, over a left side with repeated keys,
    /// rows that leave `?d` unbound and a key no stored value lifts to.
    #[test]
    fn every_batch_size_finds_the_same_rows() {
        let lake = lake();
        let elsewhere = Some(Term::iri("http://elsewhere/disease/d0"));
        let left = [
            disease("d0"),
            disease("d1"),
            None,
            disease("d1"),
            elsewhere,
            disease("d0"),
            disease("d0"),
            disease("d1"),
            None,
            disease("d1"),
            disease("d0"),
        ];
        let mut first: Option<Vec<Row>> = None;
        for batch in 1..=9 {
            for overlap in [false, true] {
                let session = (SharedInterner::new(), SharedLiftCache::default());
                let (mut rows, ..) =
                    run_bind(&lake, &session, &["g", "d", "n"], &left, overlap, batch);
                rows.sort();
                assert_eq!(rows.len(), 8, "batch {batch} overlap={overlap}: one row per stored key");
                match &first {
                    Some(want) => assert_eq!(&rows, want, "batch {batch} overlap={overlap}"),
                    None => first = Some(rows),
                }
            }
        }
    }

    #[test]
    fn equal_key_ids_under_two_slot_layouts_do_not_share_an_entry() {
        let lake = lake();
        let session = (SharedInterner::new(), SharedLiftCache::default());
        let left = [disease("d0"), disease("d1")];
        let a = run_bind(&lake, &session, &["g", "d", "n"], &left, false, 2);
        // The same terms — the same ids — with every slot somewhere else.
        let b = run_bind(&lake, &session, &["n", "d", "g"], &left, false, 2);
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
                run_bind(&lake, &session, &["g", "d", "n"], &left, overlap, 2);
            assert!(rows.is_empty());
            assert_eq!(stats, EngineStats::default(), "no request, no probe");
            assert_eq!((end, traffic), (Duration::ZERO, (0, 0, Duration::ZERO)));
            assert_eq!(session.1.stats(), CacheStats::default(), "no lookup");
        }
    }

    /// Whether the target's column stores a join id is decided once per
    /// engine: the first run publishes each distinct id's verdict under the
    /// target's one key, and a second run over the same memo decides none,
    /// publishes nothing and ships and charges what the first did.
    #[test]
    fn a_bind_join_decides_each_join_id_once_per_engine() {
        let lake = lake();
        let target = disease_target(&lake);
        let key = target.verdict_key.as_ref().unwrap();
        let elsewhere = Term::iri("http://elsewhere/disease/d0");
        let literal = Term::literal("d0");
        let left = [
            disease("d0"),
            Some(elsewhere.clone()),
            Some(literal.clone()),
            disease("d1"),
            disease("d0"),
            None,
            Some(elsewhere.clone()),
        ];
        let terms = [disease("d0").unwrap(), elsewhere, literal, disease("d1").unwrap()];
        for overlap in [false, true] {
            let session = (SharedInterner::new(), SharedLiftCache::default());
            let memo = SharedVerdictMemo::default();
            let vars = ["g", "d", "n"];
            let cold = run_bind_with(&lake, &session, &memo, &vars, &left, overlap, 2);
            let decided = memo.stats();
            assert_eq!((decided.keys, decided.verdicts, decided.publishes), (1, 4, 1));
            let held = memo.verdicts(key);
            for term in &terms {
                let id = session.0.lock().intern(term.clone());
                let stores = target.column.stores(term);
                assert_eq!(held.get(id), Some(stores), "{term}");
                assert_eq!(stores, term.as_iri().is_some_and(|i| i.starts_with("http://d/")));
            }
            let warm = run_bind_with(&lake, &session, &memo, &vars, &left, overlap, 2);
            assert_eq!(memo.stats(), decided, "overlap={overlap}: a warm run publishes nothing");
            assert_eq!(warm, cold, "overlap={overlap}: the memo changes no batch");
            assert_eq!(cold.0.len(), 3, "each left row binding a stored disease finds it");
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
                run_bind(&lake, &session, &["g", "d", "n"], &left, overlap, 2);
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
        let link = Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        )
        .shared();
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
        let link = Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        )
        .shared();
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
        Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
            fedlake_netsim::FaultPlan {
                outage_after: Some(0),
                outage_len: u64::MAX,
                ..fedlake_netsim::FaultPlan::NONE
            },
        )
        .shared()
    }

    fn live_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Link::new(NetworkProfile::NO_DELAY, Arc::clone(clock), CostModel::default(), seed).shared()
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
        let link = Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        )
        .shared();
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
