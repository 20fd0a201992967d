//! The federated plan generator: where the paper's heuristics live.
//!
//! Two plan types are produced (§3):
//!
//! * **Physical-Design-Unaware** ([`PlanMode::Unaware`]): each star-shaped
//!   sub-query becomes its own source request; every `FILTER` and every
//!   inter-star join is evaluated by engine-level operators. The physical
//!   design (indexes) of the sources is ignored.
//! * **Physical-Design-Aware** ([`PlanMode::Aware`]): the plan exploits the
//!   sources' physical design through the two heuristics:
//!   * *Heuristic 1 (pushing down joins)* — two stars resolved to the same
//!     relational endpoint are combined into one SQL query **iff** the
//!     join attribute (the FK column) is indexed there.
//!   * *Heuristic 2 (pushing up instantiations)* — a star's filter runs at
//!     the engine **unless** the filtered attribute is indexed at the
//!     source **and** the network is slow; only then is it pushed into the
//!     SQL `WHERE` clause to shrink the transferred intermediate result.
//!
//! For the ablation experiments, disabling H2 inside `Aware` yields the
//! classical always-push-selections plan, and disabling H1 keeps all joins
//! at the engine while H2 still governs filters.

use crate::config::{MergeTranslation, PlanConfig, PlanMode};
use crate::decompose::{decompose_as, StarSubject, StarSubquery};
use crate::error::FedError;
use crate::fedplan::{FedPlan, ReplicaRoute, ServiceKind, ServiceNode, SqlRequest};
use crate::health::HealthView;
use crate::lake::DataLake;
use crate::selection::{select_sources_with_health, Candidate};
use crate::source::DataSource;
use crate::stats::{join_estimate, FederationCost, LakeStatistics, SourceStatistics};
use crate::translate::{
    push_filter, sql_merged, sql_single, star_column, star_part, Lift, OutputBinding, SqlFilter,
    StarColumn, StarPart,
};
use fedlake_mapping::TableMapping;
use fedlake_netsim::CostModel;
use fedlake_relational::{DataType, Database, TableSchema};
use fedlake_sparql::ast::{OrderKey, SelectQuery};
use fedlake_sparql::binding::{RowSchema, Var};
use fedlake_sparql::expr::Expr;
use fedlake_rdf::{vocab, Term};
use std::sync::Arc;

/// Unit count above which the cost-based planner switches from exhaustive
/// left-deep DP enumeration to greedy cost-based ordering.
pub const DP_UNIT_LIMIT: usize = 10;

/// Left rows per shipped batch of a bind join the cost-based planner
/// chooses: the batch size it prices an edge at and the one it emits.
pub const BIND_BATCH: usize = 16;

/// How the planner ordered the joins of the conjunctive groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanStrategy {
    /// The paper's heuristic ordering (smallest estimate first, connected
    /// units preferred).
    #[default]
    Heuristic,
    /// Exhaustive left-deep dynamic programming over the cost model.
    Dp,
    /// Greedy cost-based ordering (unit count above [`DP_UNIT_LIMIT`]).
    GreedyCost,
}

impl PlanStrategy {
    /// Stable lowercase name (metrics key suffix, explain output).
    pub fn label(&self) -> &'static str {
        match self {
            PlanStrategy::Heuristic => "heuristic",
            PlanStrategy::Dp => "dp",
            PlanStrategy::GreedyCost => "greedy-cost",
        }
    }
}

/// What the planner did for one query: consumed by EXPLAIN ANALYZE, the
/// metrics registry and the serve rollup.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanReport {
    /// Whether cost-based planning was on.
    pub cost_based: bool,
    /// Join-ordering strategy taken (the last conjunctive group wins when
    /// a query has several; they almost never do).
    pub strategy: PlanStrategy,
    /// Candidate (partial) plans the cost model priced.
    pub plans_costed: u64,
    /// Bind joins the cost model chose over hash joins.
    pub bind_joins: u64,
    /// The chosen plan's estimated [`FederationCost`] (cost mode only).
    pub estimated_cost: Option<FederationCost>,
    /// Estimated output rows of the final plan.
    pub estimated_rows: f64,
    /// The plan's label in EXPLAIN and the flight recorder: a stable
    /// 64-bit hash of its text ([`crate::ir::plan_fingerprint`]),
    /// interner-independent. The plan cache is keyed by the query and the
    /// configuration, not by this.
    pub fingerprint: u64,
}

/// A fully planned query: the federated plan plus the solution modifiers
/// the engine applies on top.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The federated execution plan.
    pub plan: FedPlan,
    /// The slot layout every operator of this query shares: one slot per
    /// variable the pattern or the projection mentions.
    pub schema: Arc<RowSchema>,
    /// Projected variables.
    pub projection: Arc<[Var]>,
    /// `DISTINCT`.
    pub distinct: bool,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// `OFFSET`.
    pub offset: usize,
    /// Sources the health-aware selector skipped because every replica
    /// endpoint was past the failure threshold (only under `degraded_ok`;
    /// the engine marks such answers degraded).
    pub skipped_sources: Vec<String>,
    /// What the planner did (strategy taken, plans costed, estimates).
    pub report: PlanReport,
}

/// One star bound to one relational source, with everything translation
/// needs: the star, its source's table mapping, table schema and database,
/// looked up once ([`RelStar::resolve`]).
struct RelStar<'l> {
    star_idx: usize,
    star: &'l StarSubquery,
    source_id: &'l str,
    tm: &'l TableMapping,
    schema: &'l TableSchema,
    db: &'l Database,
    /// The statistics catalog's entry for the source, in cost mode.
    stats: Option<&'l SourceStatistics>,
    cardinality: usize,
}

/// Plans a parsed query under `config`, consulting the session's health
/// snapshot: replica endpoints are routed healthiest-first, and (with
/// `degraded_ok`) sources whose endpoints are all past the failure
/// threshold are skipped when a healthier alternative covers the star.
pub fn plan_query_with_health(
    query: &SelectQuery,
    lake: &DataLake,
    config: &PlanConfig,
    health: &HealthView,
) -> Result<PlannedQuery, FedError> {
    if config.cost_based && !lake.statistics_fresh() {
        // A bare `source_mut` left the statistics catalog describing data
        // that may no longer exist; pricing plans against it would be
        // silent garbage-in. Heuristic planning never reads the catalog
        // and proceeds.
        return Err(FedError::StaleStatistics {
            epoch: lake.epoch(),
            stats_epoch: lake.statistics_epoch(),
        });
    }
    let dec = decompose_as(query, config.decomposition)?;
    let mut skipped = Vec::new();
    let mut report = PlanReport { cost_based: config.cost_based, ..PlanReport::default() };
    let mut plan = plan_tree(&dec, lake, config, health, &mut skipped, &mut report)?;
    report.estimated_rows = plan.estimated_rows();
    // Taken before lowering; the routes, lift plans and verdict keys set
    // below are not part of the fingerprint's text either way.
    report.fingerprint = crate::ir::plan_fingerprint(&plan);
    let projection = query.effective_projection();
    // The schema covers every variable an operator may bind or project.
    let schema = Arc::new(RowSchema::new(
        query.pattern.vars().into_iter().chain(projection.iter().cloned()),
    ));
    let read = read_slots(&plan, &schema, &projection, &query.order_by);
    lower(&mut plan, None, &Lowering { lake, health, schema: &schema, read: &read });
    Ok(PlannedQuery {
        plan,
        schema,
        projection: projection.into(),
        distinct: query.distinct,
        order_by: query.order_by.clone(),
        limit: query.limit,
        offset: query.offset.unwrap_or(0),
        skipped_sources: skipped,
        report,
    })
}

/// Which slots the engine reads above the leaves (DESIGN §19): a slot is
/// read when it is projected or an ORDER BY key, an engine FILTER mentions
/// it, it is a join variable, or two or more leaves bind it
/// (`RowArena::merge` compares every slot both sides bind).
fn read_slots(
    plan: &FedPlan,
    schema: &RowSchema,
    projection: &[Var],
    order_by: &[OrderKey],
) -> Vec<bool> {
    let mut read = vec![false; schema.len()];
    let mut binders = vec![0usize; schema.len()];
    mark_read(projection.iter().chain(order_by.iter().map(|k| &k.var)), schema, &mut read);
    plan.visit(0, &mut |node, _| match node {
        FedPlan::Service(node) => match &node.kind {
            ServiceKind::Sql { request, .. } => {
                mark_bound(request.query().outputs.iter().map(|o| &o.var), schema, &mut binders)
            }
            ServiceKind::Sparql { star, .. } => mark_bound(&star.vars(), schema, &mut binders),
        },
        FedPlan::Join { on, .. } | FedPlan::LeftJoin { on, .. } => mark_read(on, schema, &mut read),
        FedPlan::BindJoin { right, .. } => {
            mark_read([&right.join_var], schema, &mut read);
            mark_bound(right.part.outputs.iter().map(|o| &o.var), schema, &mut binders);
        }
        FedPlan::Filter { exprs, .. } => {
            for e in exprs {
                mark_read(&e.vars(), schema, &mut read);
            }
        }
        FedPlan::Union(_) => {}
    });
    for (read, n) in read.iter_mut().zip(&binders) {
        *read |= *n >= 2;
    }
    read
}

fn mark_read<'v>(vars: impl IntoIterator<Item = &'v Var>, schema: &RowSchema, read: &mut [bool]) {
    for slot in vars.into_iter().filter_map(|v| schema.slot(v)) {
        read[slot] = true;
    }
}

/// Counts one more leaf binding each slot of `vars`.
fn mark_bound<'v>(
    vars: impl IntoIterator<Item = &'v Var>,
    schema: &RowSchema,
    binders: &mut [usize],
) {
    let mut slots: Vec<usize> = vars.into_iter().filter_map(|v| schema.slot(v)).collect();
    slots.sort_unstable();
    slots.dedup();
    for slot in slots {
        binders[slot] += 1;
    }
}

/// What the lowering walk decides from: the session's health snapshot and
/// the slots the plan reads.
struct Lowering<'a> {
    lake: &'a DataLake,
    health: &'a HealthView,
    schema: &'a RowSchema,
    read: &'a [bool],
}

/// The planner's one lowering walk: sets, on each node of `plan`, the
/// physical decisions the executor reads, once per plan, to be cached with
/// it. `filter` is the engine FILTER directly over `plan`, if any.
///
/// * A service leaf's or a bind-join target's replica route: the endpoints
///   to contact, failures ascending (healthiest first), replica index
///   breaking ties. An unreplicated source keeps `route: None`.
/// * A SQL leaf's or a bind-join target's [`LiftPlan`] (DESIGN §19).
///   A SPARQL leaf lifts everything.
/// * An engine FILTER's verdict keys and a bind-join target's (DESIGN §20).
fn lower(plan: &mut FedPlan, filter: Option<&[Expr]>, cx: &Lowering<'_>) {
    match plan {
        FedPlan::Service(node) => {
            node.route = route_for_source(&node.source_id, cx.lake, cx.health);
            if let ServiceKind::Sql { request, .. } = &node.kind {
                node.lift = sql_lift_plan(&request.query().outputs, filter, cx);
            }
        }
        FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
            lower(left, None, cx);
            lower(right, None, cx);
        }
        FedPlan::BindJoin { left, right, .. } => {
            right.route = route_for_source(&right.source_id, cx.lake, cx.health);
            right.lift = sql_lift_plan(&right.part.outputs, None, cx);
            right.verdict_key = Some(bind_verdict_key(&right.column.lift));
            lower(left, None, cx);
        }
        FedPlan::Filter { input, exprs, keys } => {
            *keys = filter_verdict_keys(exprs, cx.schema);
            lower(input, Some(exprs), cx);
        }
        FedPlan::Union(branches) => {
            for b in branches {
                lower(b, None, cx);
            }
        }
    }
}

/// Which cells of a SQL leaf's answer the plan reads: decided once per plan
/// by the lowering walk (`lower`) and cached with the plan, on the leaf or
/// bind-join target it belongs to. Only this module builds one other than
/// the default: the fields are private, and so is `LiftPlan::new`. A
/// column no operator above the leaf reads is not lifted: its cells stay
/// `TermId::UNBOUND`. The guards are the one-slot conjuncts of an engine
/// FILTER directly over the leaf, on slots the leaf binds. Their
/// columns are lifted for every row, and a row one of them rejects keeps
/// no cells: the leaf hands it up as `RowId::DROPPED`, and the FILTER
/// drops it unread and still counts and charges every conjunct on it. The
/// default plan lifts everything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiftPlan {
    unread: Vec<Var>,
    guards: Vec<Expr>,
    /// Both of the above as text: what the plan adds to its leaf's
    /// lift-cache signature, since two plans of one request that lift
    /// different cells must not share an entry. Empty for the default.
    key: String,
}

impl LiftPlan {
    /// The plan that leaves `unread` unlifted and lifts the other cells of
    /// a row only when the row passes every guard.
    fn new(unread: Vec<Var>, guards: Vec<Expr>) -> Self {
        if unread.is_empty() && guards.is_empty() {
            return LiftPlan::default();
        }
        let names: Vec<&str> = unread.iter().map(Var::name).collect();
        let key = format!(":lift{names:?}{guards:?}");
        LiftPlan { unread, guards, key }
    }

    /// The variables whose cells stay unbound.
    pub fn unread(&self) -> &[Var] {
        &self.unread
    }

    /// The conjuncts a row must pass to be lifted in full.
    pub fn guards(&self) -> &[Expr] {
        &self.guards
    }

    /// What the plan adds to its leaf's cache signature.
    pub(crate) fn key(&self) -> &str {
        &self.key
    }
}

/// A SQL leaf's plan: the output variables nothing reads, and the
/// conjuncts of `filter` that read exactly one slot the leaf binds.
fn sql_lift_plan(
    outputs: &[OutputBinding],
    filter: Option<&[Expr]>,
    cx: &Lowering<'_>,
) -> Arc<LiftPlan> {
    let schema = cx.schema;
    let mut unread: Vec<Var> = Vec::new();
    for o in outputs {
        if schema.slot(&o.var).is_some_and(|s| !cx.read[s]) && !unread.contains(&o.var) {
            unread.push(o.var.clone());
        }
    }
    let bound: Vec<usize> = outputs.iter().filter_map(|o| schema.slot(&o.var)).collect();
    let guards = filter
        .unwrap_or_default()
        .iter()
        .filter(|e| e.bind(Some(schema)).single_slot().is_some_and(|s| bound.contains(&s)))
        .cloned()
        .collect();
    Arc::new(LiftPlan::new(unread, guards))
}

/// What an engine's [`crate::operators::VerdictMemo`] keeps a function of
/// one id under, rendered once per plan by the lowering walk:
///
/// * A FILTER conjunct that reads one slot: the conjunct's text after the
///   name of the variable in that slot, `?name`. The variable belongs in
///   the key because a variable the schema does not know reads as unbound,
///   so one text can be two functions of the slot's id: `?a = "x" ||
///   BOUND(?b)` in a query that binds `?a`, and in one that binds `?b`.
///   Rendered by `filter_verdict_keys`.
/// * A bind-join target's column: whether it stores a value whose lift is
///   the join term (`StarColumn::stores`), which reads the column's
///   [`Lift`] alone, so the key is the lift's text after `bind `, and two
///   targets on one template share their verdicts. No FILTER key starts
///   so. Rendered by `bind_verdict_key`.
///
/// Only this module builds one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerdictKey(Arc<str>);

/// The memo key of a bind-join target's verdicts on its join terms, for a
/// column that lifts by `lift`. The lowering walk sets it on each target;
/// a unit test's hand-built target takes it from here.
pub(crate) fn bind_verdict_key(lift: &Lift) -> VerdictKey {
    VerdictKey(format!("bind {lift:?}").into())
}

/// The memo key of each of `exprs`, the conjuncts of a FILTER over rows
/// laid out by `schema`; `None` for a conjunct that reads no slot or two.
fn filter_verdict_keys(exprs: &[Expr], schema: &RowSchema) -> Box<[Option<VerdictKey>]> {
    exprs
        .iter()
        .map(|e| {
            let var = &schema.vars()[e.bind(Some(schema)).single_slot()?];
            Some(VerdictKey(format!("?{} {e:?}", var.name()).into()))
        })
        .collect()
}

fn route_for_source(
    source_id: &str,
    lake: &DataLake,
    health: &HealthView,
) -> Option<ReplicaRoute> {
    if lake.replica_count(source_id) <= 1 {
        return None;
    }
    let endpoints = lake.replica_endpoints(source_id);
    let mut order: Vec<(u64, usize)> = endpoints
        .iter()
        .enumerate()
        .map(|(i, e)| (health.failures_of(e), i))
        .collect();
    order.sort_unstable();
    let reason = if order.iter().all(|&(f, _)| f == order[0].0) {
        format!("replica index order ({} failures each)", order[0].0)
    } else {
        let parts: Vec<String> = order
            .iter()
            .map(|&(f, i)| format!("{}={}", endpoints[i], f))
            .collect();
        format!("healthiest first (failures: {})", parts.join(", "))
    };
    let ordered: Vec<String> =
        order.into_iter().map(|(_, i)| endpoints[i].clone()).collect();
    Some(ReplicaRoute { endpoints: ordered, reason })
}

/// Plans a decomposition: the required conjunctive part and the `UNION`
/// blocks joined together, then the cross-star filters, then one
/// streaming left join per `OPTIONAL` group.
fn plan_tree(
    dec: &crate::decompose::Decomposition,
    lake: &DataLake,
    config: &PlanConfig,
    health: &HealthView,
    skipped: &mut Vec<String>,
    report: &mut PlanReport,
) -> Result<FedPlan, FedError> {
    // 1. Required units: the star-based part plus one unit per union
    //    block (each block binds the variables common to all branches).
    let mut units: Vec<(FedPlan, Vec<Var>)> = Vec::new();
    if !dec.stars.is_empty() {
        let star_vars = {
            let mut out: Vec<Var> = Vec::new();
            for st in &dec.stars {
                for v in st.vars() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            out
        };
        units.push((plan_conjunctive(dec, lake, config, health, skipped, report)?, star_vars));
    }
    for block in &dec.unions {
        let branches = block
            .iter()
            .map(|b| plan_tree(b, lake, config, health, skipped, report))
            .collect::<Result<Vec<_>, _>>()?;
        units.push((union_of(branches), crate::decompose::union_block_vars(block)));
    }
    // 2. Join the units on their shared (always-bound) variables.
    let mut units = units.into_iter();
    let Some((mut plan, mut bound_vars)) = units.next() else {
        return Err(FedError::Unsupported("empty basic graph pattern".into()));
    };
    for (right, rvars) in units {
        let on: Vec<Var> = rvars
            .iter()
            .filter(|v| bound_vars.contains(v))
            .cloned()
            .collect();
        for v in rvars {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        plan = FedPlan::Join { left: Box::new(plan), right: Box::new(right), on };
    }

    // 3. Cross-star filters. Filters fully covered by the always-bound
    //    variables apply here; the rest (e.g. BOUND over optional
    //    variables) apply after the OPTIONALs.
    let (pre, post): (Vec<Expr>, Vec<Expr>) = dec
        .cross_filters
        .iter()
        .cloned()
        .partition(|f| f.vars().iter().all(|v| bound_vars.contains(v)));
    plan = wrap_engine_filters(plan, pre);

    // 4. OPTIONAL groups as streaming left joins.
    let mut seen_optional_vars: Vec<Var> = Vec::new();
    for opt in &dec.optionals {
        let opt_vars = opt.vars();
        // Correlation between two OPTIONAL groups through variables that
        // the required part does not bind needs full compatibility
        // semantics — out of scope.
        if opt_vars
            .iter()
            .any(|v| !bound_vars.contains(v) && seen_optional_vars.contains(v))
        {
            return Err(FedError::Unsupported(
                "OPTIONAL groups correlated through optional-only variables".into(),
            ));
        }
        // Filters inside the OPTIONAL must be self-contained.
        for f in &opt.cross_filters {
            if !f.vars().iter().all(|v| opt_vars.contains(v)) {
                return Err(FedError::Unsupported(
                    "FILTER in OPTIONAL referencing outer variables".into(),
                ));
            }
        }
        let right = plan_tree(opt, lake, config, health, skipped, report)?;
        let on: Vec<Var> = opt_vars
            .iter()
            .filter(|v| bound_vars.contains(v))
            .cloned()
            .collect();
        for v in opt_vars {
            if !bound_vars.contains(&v) && !seen_optional_vars.contains(&v) {
                seen_optional_vars.push(v);
            }
        }
        plan = FedPlan::LeftJoin { left: Box::new(plan), right: Box::new(right), on };
    }

    // 5. Filters that need conditionally-bound variables.
    Ok(wrap_engine_filters(plan, post))
}

/// One join-ordering unit: a service request (a merged pair, a single
/// relational star or any other star) and what joining it reads.
struct Unit {
    /// The decomposition's stars it covers.
    stars: Vec<usize>,
    plan: FedPlan,
    /// The variables its stars bind.
    vars: Vec<Var>,
    /// Set when the unit is one relational star a bind join can reach.
    bindable: Option<Bindable>,
}

/// A unit that is one relational star: what a bind step into it needs.
struct Bindable {
    /// Index into the relational stars.
    rel: usize,
    /// The star's SQL part and estimated rows, as the unit's leaf was built
    /// from them: a bind step targets this part, not a second translation.
    part: StarPart,
    est: f64,
}

/// What the planner decides for one conjunctive group (DESIGN §15): the
/// paper's rule table decides Heuristics 1 and 2, and the rule table or
/// the cost model the join order. [`Group::units`] and [`Group::join_in_order`],
/// the one builder, read it and derive none of it again.
#[derive(Debug, Clone)]
struct Decisions {
    /// Heuristic 2, per relational star: which of its filters its SQL
    /// pushes.
    filters: Vec<FilterSplit>,
    /// Heuristic 1: the pairs of relational stars merged into one SQL
    /// request, first-fit in star order, each star in at most one.
    merges: Vec<Merge>,
    /// The order the units of the two above join in, each step with its
    /// kind (a permutation of their indices; the first step's kind is not
    /// read).
    order: Vec<(usize, StepKind)>,
}

/// Heuristic 2's decision for one relational star: its filters pushed into
/// its SQL and those kept at the engine.
#[derive(Debug, Clone, Default)]
struct FilterSplit {
    pushed: Vec<SqlFilter>,
    engine: Vec<Expr>,
}

/// Heuristic 1's decision for two relational stars on one endpoint: one
/// SQL request joining `a`'s `left_col` to `b`'s `right_col`, the columns
/// their join variable `var` maps to.
#[derive(Debug, Clone)]
struct Merge {
    /// The two stars, as indices into the group's relational stars, `a`
    /// first in star order.
    a: usize,
    b: usize,
    var: Var,
    left_col: String,
    right_col: String,
    /// Whether both stars read one row of one table ([`same_row`]), so
    /// that no join is translated at all.
    same_row: bool,
}

/// One conjunctive group's stars, each bound to its sources once
/// ([`Group::resolve`]).
struct Group<'a> {
    dec: &'a crate::decompose::Decomposition,
    lake: &'a DataLake,
    config: &'a PlanConfig,
    /// The statistics catalog, in cost mode.
    stats: Option<&'a LakeStatistics>,
    /// Each star's candidate sources.
    candidates: Vec<Vec<Candidate>>,
    /// The stars one relational source answers.
    rel: Vec<RelStar<'a>>,
    /// The other stars' indices: a SPARQL source or several candidates.
    others: Vec<usize>,
}

/// Plans the conjunctive (required) part of a decomposition: resolve,
/// decide, build.
fn plan_conjunctive(
    dec: &crate::decompose::Decomposition,
    lake: &DataLake,
    config: &PlanConfig,
    health: &HealthView,
    skipped: &mut Vec<String>,
    report: &mut PlanReport,
) -> Result<FedPlan, FedError> {
    let group = Group::resolve(dec, lake, config, health, skipped)?;
    let (decisions, units) = group.decide(report)?;
    group.join_in_order(units, &decisions)
}

impl<'a> Group<'a> {
    /// `dec`'s stars bound to their candidate sources (adding the sources
    /// the health-aware selector skipped to `skipped`), each star with one
    /// relational candidate bound to that source.
    fn resolve(
        dec: &'a crate::decompose::Decomposition,
        lake: &'a DataLake,
        config: &'a PlanConfig,
        health: &HealthView,
        skipped: &mut Vec<String>,
    ) -> Result<Self, FedError> {
        if dec.stars.is_empty() {
            return Err(FedError::Unsupported("empty basic graph pattern".into()));
        }
        let (candidates, newly_skipped) =
            select_sources_with_health(&dec.stars, lake, health, config.degraded_ok)?;
        for s in newly_skipped {
            if !skipped.contains(&s) {
                skipped.push(s);
            }
        }
        // Cost mode estimates service cardinalities from the statistics
        // catalog; heuristic mode keeps the fixed per-constraint guesses.
        let stats = config.cost_based.then(|| lake.statistics());
        let (mut rel, mut others) = (Vec::new(), Vec::new());
        for (i, (star, cands)) in dec.stars.iter().zip(&candidates).enumerate() {
            let single_relational = match cands.as_slice() {
                [cand] if !star.has_variable_predicate() => {
                    RelStar::resolve(i, star, cand, lake, stats)?
                }
                _ => None,
            };
            match single_relational {
                Some(rs) => rel.push(rs),
                None => others.push(i),
            }
        }
        Ok(Group { dec, lake, config, stats, candidates, rel, others })
    }

    /// The group's decisions, and the units they make: Heuristic 2 per
    /// relational star and Heuristic 1's pairs by the rule table, then the
    /// join order over those units by the cost model (DP / greedy over
    /// [`FederationCost`]) in cost mode, by the paper's heuristic
    /// otherwise. Cross-star filters are applied by `plan_tree`, which
    /// knows the union- and optional-bound variables.
    fn decide(&self, report: &mut PlanReport) -> Result<(Decisions, Vec<Unit>), FedError> {
        let config = self.config;
        let filters: Vec<FilterSplit> =
            self.rel.iter().map(|rs| split_filters(rs, config)).collect();
        let merges = match config.mode {
            PlanMode::Aware { h1_join_pushdown: true, .. } => pair_stars(&self.rel),
            _ => Vec::new(),
        };
        let mut decided = Decisions { filters, merges, order: Vec::new() };
        // The order is decided over the units the other two decisions make.
        let units = self.units(&decided)?;
        decided.order = match self.stats {
            Some(stats) => order_units_by_cost(&Pricing::new(self, stats, &units), report)?,
            None => heuristic_order(&units),
        };
        Ok((decided, units))
    }

    /// The units `decided`'s filters and merges make, in the order its join
    /// order indexes them: each merged pair where its first star is, each
    /// other relational star as a single service, then the other stars.
    fn units(&self, decided: &Decisions) -> Result<Vec<Unit>, FedError> {
        let (filters, merges) = (&decided.filters, &decided.merges);
        let unit = |stars: Vec<usize>, plan: FedPlan, bindable: Option<Bindable>| {
            let mut vars: Vec<Var> = Vec::new();
            for &i in &stars {
                for v in self.dec.stars[i].vars() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
            Unit { stars, plan, vars, bindable }
        };
        let mut units = Vec::new();
        for (i, rs) in self.rel.iter().enumerate() {
            if let Some(m) = merges.iter().find(|m| m.a == i) {
                let plan = self.merged_service(m, filters)?;
                units.push(unit(vec![rs.star_idx, self.rel[m.b].star_idx], plan, None));
            } else if !merges.iter().any(|m| m.b == i) {
                let (part, est) = rs.part(&filters[i], "s0")?;
                let plan = single_service(rs, &filters[i], &part, est);
                units.push(unit(vec![rs.star_idx], plan, Some(Bindable { rel: i, part, est })));
            }
        }
        for &i in &self.others {
            units.push(unit(vec![i], self.other_star(i)?, None));
        }
        Ok(units)
    }

    /// The left-deep plan that joins `units` (what [`Group::units`] made of
    /// `decided`) in its order. Each later unit joins what is bound so far
    /// on the variables they share: by a bind join into its relational star
    /// where its step says so and the join has one variable that maps to a
    /// bindable column, by an engine hash join otherwise.
    fn join_in_order(&self, units: Vec<Unit>, decided: &Decisions) -> Result<FedPlan, FedError> {
        let order = &decided.order;
        // The units moved into `order`: each sorted on its step's position.
        let mut position = vec![0; units.len()];
        for (at, &(j, _)) in order.iter().enumerate() {
            position[j] = at;
        }
        let mut in_order: Vec<(usize, Unit)> = position.into_iter().zip(units).collect();
        in_order.sort_unstable_by_key(|&(at, _)| at);
        let mut steps = in_order.into_iter().zip(order).map(|((_, unit), &(_, kind))| (unit, kind));
        let Some((first, _)) = steps.next() else {
            return Err(FedError::Internal("a join order of no units".into()));
        };
        let (mut plan, mut bound_vars) = (first.plan, first.vars);
        for (unit, kind) in steps {
            let on: Vec<Var> =
                unit.vars.iter().filter(|v| bound_vars.contains(v)).cloned().collect();
            for v in unit.vars {
                if !bound_vars.contains(&v) {
                    bound_vars.push(v);
                }
            }
            // A bind step's star is its unit's (`StepKind`).
            let bind = match (kind, unit.bindable, on.as_slice()) {
                (StepKind::Bind(_), Some(b), [var]) => {
                    bindable_column(&self.rel[b.rel], var).map(|column| (b, column))
                }
                _ => None,
            };
            plan = match bind {
                Some((b, column)) => {
                    let (rs, split) = (&self.rel[b.rel], &decided.filters[b.rel]);
                    bind_join(plan, rs, split, &on[0], column, (b.part, b.est), BIND_BATCH)
                }
                // A hash step, or a variable that maps to no bindable column.
                None => FedPlan::Join { left: Box::new(plan), right: Box::new(unit.plan), on },
            };
        }
        Ok(plan)
    }

    /// A merged pair as one SQL service under both stars' engine filters,
    /// or, under the naive translation, as the N+1 bind join it stands for.
    fn merged_service(&self, m: &Merge, filters: &[FilterSplit]) -> Result<FedPlan, FedError> {
        let (a, b) = (&self.rel[m.a], &self.rel[m.b]);
        let (fa, fb) = (&filters[m.a], &filters[m.b]);
        // Denormalized case: both stars read one row and combine under a
        // single alias with no join — whatever the translation quality
        // setting; there is no join to translate badly.
        let (pa, ea) = a.part(fa, "s0")?;
        if self.config.merge_translation == MergeTranslation::Naive && !m.same_row {
            // Ontario's unoptimized translation is an N+1 dependent join:
            // `a`'s star once, then `b`'s once per binding of the join
            // variable. That is a same-source bind join of batch 1.
            let column = bindable_column(b, &m.var).ok_or_else(|| {
                let (var, table) = (&m.var, &b.tm.table);
                FedError::Internal(format!("naive merge: {var} maps to no column of {table}"))
            })?;
            let left = single_service(a, fa, &pa, ea);
            return Ok(bind_join(left, b, fb, &m.var, column, b.part(fb, "s0")?, 1));
        }
        let (pb, eb) = b.part(fb, if m.same_row { "s0" } else { "s1" })?;
        let q = if m.same_row {
            crate::translate::sql_merged_same_table(&pa, &pb)
        } else {
            sql_merged(&pa, &pb, &m.left_col, &m.right_col)
        };
        // With statistics (both stars share a source, so both or neither
        // have them), the classic equi-join formula over the two star
        // estimates; without, the smaller of the two guesses.
        let est = if a.stats.is_some() { join_estimate(ea, ea, eb, eb) } else { ea.min(eb) };
        let covers = vec![a.star.subject.to_string(), b.star.subject.to_string()];
        let service = sql_service(a, SqlRequest::MergedOptimized(q), covers, est);
        Ok(wrap_engine_filters(service, [&fa.engine[..], &fb.engine[..]].concat()))
    }

    /// A star that is not a single-relational-candidate: SPARQL sources
    /// evaluate natively, multiple candidates become a union.
    fn other_star(&self, i: usize) -> Result<FedPlan, FedError> {
        let star = &self.dec.stars[i];
        let mut branches = Vec::with_capacity(self.candidates[i].len());
        for cand in &self.candidates[i] {
            branches.push(match RelStar::resolve(i, star, cand, self.lake, self.stats)? {
                Some(rs) => {
                    let split = split_filters(&rs, self.config);
                    let (part, est) = rs.part(&split, "s0")?;
                    single_service(&rs, &split, &part, est)
                }
                None => {
                    let est = match self.stats.and_then(|ls| ls.source(&cand.source_id)) {
                        Some(ss) => ss.estimate_star(star, &star.filters),
                        None => (cand.cardinality as f64).max(1.0),
                    };
                    let filters = star.filters.clone();
                    FedPlan::Service(ServiceNode {
                        source_id: cand.source_id.clone(),
                        route: None,
                        kind: ServiceKind::Sparql { star: star.clone(), filters },
                        estimated_rows: est,
                        lift: Arc::default(),
                    })
                }
            });
        }
        Ok(union_of(branches))
    }
}

/// Heuristic 1's pairing: first-fit in star order, each relational star in
/// at most one merge. Two stars merge when they share an endpoint and
/// [`find_merge_join`] finds their join.
fn pair_stars(rel: &[RelStar<'_>]) -> Vec<Merge> {
    let mut merges: Vec<Merge> = Vec::new();
    for i in 0..rel.len() {
        for j in (i + 1)..rel.len() {
            let taken = |k: usize| merges.iter().any(|m| m.a == k || m.b == k);
            if !taken(i) && !taken(j) && rel[i].source_id == rel[j].source_id {
                merges.extend(find_merge_join(rel, i, j));
            }
        }
    }
    merges
}

/// The paper's join order: the units by estimated rows, smallest first,
/// each step taking the smallest unit that shares a variable with those
/// before it (the smallest left when none does), joined by hash joins.
fn heuristic_order(units: &[Unit]) -> Vec<(usize, StepKind)> {
    let mut left: Vec<usize> = (0..units.len()).collect();
    let rows = |j: usize| units[j].plan.estimated_rows();
    left.sort_by(|&a, &b| rows(a).total_cmp(&rows(b)));
    let mut bound: Vec<&Var> = Vec::new();
    let mut order = Vec::with_capacity(units.len());
    while !left.is_empty() {
        let pick = left
            .iter()
            .position(|&j| units[j].vars.iter().any(|v| bound.contains(&v)))
            .unwrap_or(0);
        let j = left.remove(pick);
        bound.extend(&units[j].vars);
        order.push((j, StepKind::Hash));
    }
    order
}

/// Heuristic 2's decision: split a relational star's filters into
/// (pushed-to-source, kept-at-engine). Whether a filter *can* be pushed is
/// [`push_filter`]'s one rule, asked once per filter; whether it *is*
/// depends on the placement, the filtered column's index and the network.
fn split_filters(rs: &RelStar<'_>, config: &PlanConfig) -> FilterSplit {
    let star = rs.star;
    let mut split = FilterSplit::default();
    for f in &star.filters {
        let decided = match config.mode {
            // The unaware plan performs every operation it can at the
            // engine.
            PlanMode::Unaware => None,
            PlanMode::Aware { filters, .. } => push_filter(f, star, rs.tm, rs.schema).filter(|sql| {
                let indexed = rs.indexed(&sql.column);
                match filters {
                    crate::config::FilterPlacement::Engine => false,
                    crate::config::FilterPlacement::PushIndexed => indexed,
                    crate::config::FilterPlacement::Heuristic2 => {
                        indexed && config.network.is_slow()
                    }
                    crate::config::FilterPlacement::PushAll => true,
                }
            }),
        };
        match decided {
            Some(sql) => split.pushed.push(sql),
            None => split.engine.push(f.clone()),
        }
    }
    split
}

/// Heuristic 1's merge of relational stars `a` and `b`, when the paper's
/// indexing condition holds for the join it finds between them. Stars that
/// read one row (a denormalized design) merge without a join at all — no
/// index condition applies, since there is nothing to join.
fn find_merge_join(rel: &[RelStar<'_>], a: usize, b: usize) -> Option<Merge> {
    let (ra, rb) = (&rel[a], &rel[b]);
    let merge = |var: &Var, left_col: String, right_col: String, indexed: bool| {
        let same_row = same_row(ra, rb, &left_col, &right_col);
        let var = var.clone();
        (same_row || indexed).then_some(Merge { a, b, var, left_col, right_col, same_row })
    };
    // Case 1: an object variable of `a` is the subject of `b` (FK → PK).
    if let StarSubject::Var(vb) = &rb.star.subject {
        if let Some(t) = ra.star.triples.iter().find(|t| t.o.as_var() == Some(vb)) {
            let pred = t.p.as_term().and_then(Term::as_iri)?;
            let col = ra.tm.column_for_predicate(pred)?.column.clone();
            // The paper's condition: the join attribute is indexed.
            let indexed = ra.indexed(&col);
            return merge(vb, col, rb.tm.subject_column.clone(), indexed);
        }
    }
    // Case 1 reversed: an object variable of `b` is the subject of `a`.
    if let StarSubject::Var(va) = &ra.star.subject {
        if let Some(t) = rb.star.triples.iter().find(|t| t.o.as_var() == Some(va)) {
            let pred = t.p.as_term().and_then(Term::as_iri)?;
            let col = rb.tm.column_for_predicate(pred)?.column.clone();
            // Keep `a` as the left table: left col is a's subject.
            let indexed = rb.indexed(&col);
            return merge(va, ra.tm.subject_column.clone(), col, indexed);
        }
    }
    // Case 2: a shared object variable (column–column join); at least one
    // side must be indexed. SQL's `=` joins what the variable joins only
    // between columns that lift alike.
    let vars_b = rb.star.vars();
    for v in ra.star.vars().iter().filter(|v| vars_b.contains(v)) {
        let (Some(ca), Some(cb)) = (
            star_column(v, ra.star, ra.tm, ra.schema),
            star_column(v, rb.star, rb.tm, rb.schema),
        ) else {
            continue;
        };
        if ca.lift != cb.lift || !sql_equality_is_identity(&ca) {
            continue;
        }
        let indexed = ra.indexed(&ca.name) || rb.indexed(&cb.name);
        if let Some(m) = merge(v, ca.name, cb.name, indexed) {
            return Some(m);
        }
    }
    None
}

/// Whether two stars joined on `a.left_col = b.right_col` read one row of
/// one table: both sides name the same column, and it is one star's
/// subject column — the denormalized design, where a referenced entity's
/// attributes are copied into the row that references it. Two stars over
/// one table that share any other column are two rows (two genes of one
/// disease) and need a real join.
fn same_row(a: &RelStar, b: &RelStar, left_col: &str, right_col: &str) -> bool {
    a.tm.table == b.tm.table
        && left_col == right_col
        && (left_col == a.tm.subject_column || right_col == b.tm.subject_column)
}

impl<'l> RelStar<'l> {
    /// `star`, the `star_idx`-th of its decomposition, bound to its
    /// candidate `cand` and, in cost mode, to the catalog's entry for it
    /// in `stats`; `None` when `cand` is a SPARQL source. The one place
    /// the planner looks a star's source up.
    fn resolve(
        star_idx: usize,
        star: &'l StarSubquery,
        cand: &Candidate,
        lake: &'l DataLake,
        stats: Option<&'l LakeStatistics>,
    ) -> Result<Option<RelStar<'l>>, FedError> {
        let Some(source) = lake.source(&cand.source_id) else {
            let id = &cand.source_id;
            return Err(FedError::Internal(format!("candidate source {id} missing")));
        };
        let DataSource::Relational { id, db, mapping } = source else {
            return Ok(None);
        };
        let tm = mapping
            .for_class(&cand.class)
            .ok_or_else(|| FedError::Internal(format!("class {} not mapped", cand.class)))?;
        let table = db
            .table(&tm.table)
            .ok_or_else(|| FedError::Internal(format!("table {} missing", tm.table)))?;
        Ok(Some(RelStar {
            star_idx,
            star,
            source_id: id,
            tm,
            schema: &table.schema,
            db,
            stats: stats.and_then(|ls| ls.source(id)),
            cardinality: cand.cardinality,
        }))
    }

    /// Whether `column` of the star's table leads an index at its source:
    /// the physical-design test of both heuristics and of the cost
    /// model's bind step.
    fn indexed(&self, column: &str) -> bool {
        self.db.has_index_on(&self.tm.table, column)
    }

    /// The star's SQL fragments under `split`'s pushed filters, aliased
    /// `alias`, and its estimated rows: the statistics catalog's when there
    /// is one, the fixed per-constraint guess over those fragments
    /// otherwise.
    fn part(&self, split: &FilterSplit, alias: &str) -> Result<(StarPart, f64), FedError> {
        let part = star_part(self.star, self.tm, self.schema, &split.pushed, alias)?;
        let est = match self.stats {
            Some(ss) => ss.estimate_star(self.star, split.pushed.iter().map(|f| &f.expr)),
            None => {
                let constraints =
                    part.wheres.iter().filter(|w| !w.ends_with("IS NOT NULL")).count();
                ((self.cardinality as f64) * 0.4f64.powi(constraints as i32)).max(1.0)
            }
        };
        Ok((part, est))
    }
}

/// `plan` under an engine FILTER of `filters`, when there are any; the
/// lowering walk renders the FILTER's verdict keys.
fn wrap_engine_filters(plan: FedPlan, filters: Vec<Expr>) -> FedPlan {
    if filters.is_empty() {
        plan
    } else {
        FedPlan::Filter { input: Box::new(plan), exprs: filters, keys: Box::default() }
    }
}

/// `left` bind-joined into relational star `rs` on `join_var`, bound at
/// `column`, `batch_size` keys per shipped batch, under the star's engine
/// filters.
fn bind_join(
    left: FedPlan,
    rs: &RelStar,
    split: &FilterSplit,
    join_var: &Var,
    column: StarColumn,
    (part, estimated_rows): (StarPart, f64),
    batch_size: usize,
) -> FedPlan {
    let target = crate::fedplan::BindTarget {
        source_id: rs.source_id.to_string(),
        route: None,
        part,
        join_var: join_var.clone(),
        column,
        covers: rs.star.subject.to_string(),
        estimated_rows,
        lift: Arc::default(),
        verdict_key: None,
    };
    let plan = FedPlan::BindJoin { left: Box::new(left), right: target, batch_size };
    wrap_engine_filters(plan, split.engine.clone())
}

/// A single relational star as one SQL service of `part` (the star's under
/// `split`, estimated at `est` rows) under its engine filters.
fn single_service(rs: &RelStar, split: &FilterSplit, part: &StarPart, est: f64) -> FedPlan {
    let covers = vec![rs.star.subject.to_string()];
    let service = sql_service(rs, SqlRequest::Single(sql_single(part)), covers, est);
    wrap_engine_filters(service, split.engine.clone())
}

/// The SQL service leaf of `request` at `rs`'s source.
fn sql_service(rs: &RelStar, request: SqlRequest, covers: Vec<String>, est: f64) -> FedPlan {
    FedPlan::Service(ServiceNode {
        source_id: rs.source_id.to_string(),
        route: None,
        kind: ServiceKind::Sql { request, covers },
        estimated_rows: est,
        lift: Arc::default(),
    })
}

/// One branch as itself, several as their union.
fn union_of(branches: Vec<FedPlan>) -> FedPlan {
    match <[FedPlan; 1]>::try_from(branches) {
        Ok([only]) => only,
        Err(branches) => FedPlan::Union(branches),
    }
}

// ---------------------------------------------------------------------------
// Cost-based join ordering (`PlanConfig::cost_based`).
//
// Units (the service requests `Group::units` builds — merged or single
// relational stars plus the "other" stars) are ordered by minimizing a
// `FederationCost` estimate: per-unit fetch costs priced from the
// statistics catalog and the netsim link parameters, per-edge bind-join
// vs hash-join chosen from the estimated input cardinalities. Up to
// `DP_UNIT_LIMIT` units the enumeration is exhaustive left-deep DP over
// subsets; above it, greedy by cheapest next extension.
// ---------------------------------------------------------------------------

/// Pricing environment: the cost model and the network profile's link
/// parameters (per SNIPPETS' `FederationCost`, the network term reads the
/// per-link transfer parameters).
struct CostEnv<'a> {
    cost: &'a CostModel,
    /// Mean per-message network delay, µs.
    delay_us: f64,
    /// Rows per link message.
    rows_per_message: f64,
    /// Overlapped schedule: independent fetches run concurrently, so the
    /// plan's network critical path is the max, not the sum.
    overlap: bool,
}

impl CostEnv<'_> {
    /// Network cost of transferring `rows` in `messages` messages.
    fn transfer_us(&self, messages: f64, rows: f64) -> f64 {
        messages * (self.delay_us + self.cost.message_overhead_us)
            + rows * self.cost.row_transfer_us
    }

    /// Messages a full fetch of `rows` takes (the request plus one message
    /// per `rows_per_message` result rows).
    fn fetch_messages(&self, rows: f64) -> f64 {
        (rows / self.rows_per_message).ceil().max(1.0) + 1.0
    }
}

/// A unit's pricing inputs.
struct CostUnit {
    est_rows: f64,
    /// Engine-side cpu of fetching the unit in full, µs.
    fetch_cpu_us: f64,
    /// Source-side work of fetching the unit in full, µs.
    fetch_io_us: f64,
    /// Network cost of fetching the unit in full, µs.
    fetch_net_us: f64,
    /// Per-variable distinct-value estimates (join-key NDVs).
    var_distinct: Vec<(Var, f64)>,
}

/// Source-side + engine-side + network cost of fetching a unit plan in
/// full (services, their filters, unions of either).
fn unit_fetch_cost(plan: &FedPlan, env: &CostEnv<'_>) -> (f64, f64, f64) {
    match plan {
        FedPlan::Service(node) => {
            let rows = node.estimated_rows.max(1.0);
            let io = match &node.kind {
                ServiceKind::Sql { .. } => rows * env.cost.rdb_row_scan_us,
                ServiceKind::Sparql { star, .. } => {
                    star.triples.len() as f64 * env.cost.sparql_pattern_us
                        + rows * env.cost.sparql_row_us
                }
            };
            let net = env.transfer_us(env.fetch_messages(rows), rows);
            (rows * env.cost.engine_row_us, io, net)
        }
        FedPlan::Filter { input, exprs, .. } => {
            let (cpu, io, net) = unit_fetch_cost(input, env);
            let evals = input.estimated_rows().max(1.0) * exprs.len().max(1) as f64;
            (cpu + evals * env.cost.engine_filter_eval_us, io, net)
        }
        FedPlan::Union(branches) => branches.iter().fold((0.0, 0.0, 0.0), |acc, b| {
            let (cpu, io, net) = unit_fetch_cost(b, env);
            (acc.0 + cpu, acc.1 + io, acc.2 + net)
        }),
        // Units never contain engine joins, but price them sanely anyway.
        FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
            let (lc, li, ln) = unit_fetch_cost(left, env);
            let (rc, ri, rn) = unit_fetch_cost(right, env);
            let probes =
                (left.estimated_rows() + right.estimated_rows()) * env.cost.engine_join_probe_us;
            (lc + rc + probes, li + ri, ln + rn)
        }
        FedPlan::BindJoin { left, right, .. } => {
            let (lc, li, ln) = unit_fetch_cost(left, env);
            let rows = right.estimated_rows.max(1.0);
            (lc + rows * env.cost.engine_row_us, li + rows * env.cost.rdb_row_scan_us, ln)
        }
    }
}

/// Per-variable distinct-value estimates for the stars of one unit:
/// subject variables get the characteristic-set subject count, object
/// variables the predicate's distinct-object count, everything capped at
/// the unit's estimated rows.
fn unit_var_distincts(
    idxs: &[usize],
    dec: &crate::decompose::Decomposition,
    candidates: &[Vec<Candidate>],
    stats: &LakeStatistics,
    est_rows: f64,
) -> Vec<(Var, f64)> {
    let cap = est_rows.max(1.0);
    let mut out: Vec<(Var, f64)> = Vec::new();
    let mut push_min = |v: &Var, d: f64| match out.iter_mut().find(|(w, _)| w == v) {
        Some((_, old)) => *old = old.min(d),
        None => out.push((v.clone(), d)),
    };
    for &si in idxs {
        let star = &dec.stars[si];
        let ss = candidates[si].first().and_then(|c| stats.source(&c.source_id));
        if let StarSubject::Var(v) = &star.subject {
            let d = ss
                .map(|s| {
                    let preds: Vec<&str> = star
                        .predicates()
                        .into_iter()
                        .filter(|p| *p != vocab::rdf::TYPE)
                        .collect();
                    s.star_subjects(&preds).max(1.0)
                })
                .unwrap_or(cap);
            push_min(v, d.min(cap));
        }
        for t in &star.triples {
            let (Some(p), Some(v)) = (t.p.as_term().and_then(Term::as_iri), t.o.as_var()) else {
                continue;
            };
            if p == vocab::rdf::TYPE {
                continue;
            }
            let d = ss.and_then(|s| s.distinct_objects(p)).unwrap_or(cap);
            push_min(v, d.min(cap));
        }
    }
    out
}

/// How one unit joins onto the left-deep prefix. The derived order
/// (`Hash < Bind`) is part of the deterministic tie-break key for
/// equal-cost plans; a bind step's star index is fixed by its unit, so it
/// never decides a tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StepKind {
    /// Fetch in full and hash-join at the engine.
    Hash,
    /// Ship the left join keys as SQL `IN` batches (dependent bind join)
    /// into the relational star of this index.
    Bind(usize),
}

/// A partial left-deep plan in the enumeration. Network is tracked in
/// three pools: `net_sum`/`net_max` over the independent full fetches
/// (the serialized schedule pays the sum, the overlapped one the max) and
/// `net_seq` for bind-join round trips, which serialize behind the left
/// input under either schedule.
#[derive(Clone)]
struct DpState {
    cpu_us: f64,
    io_us: f64,
    net_sum_us: f64,
    net_max_us: f64,
    net_seq_us: f64,
    est_rows: f64,
    var_distinct: Vec<(Var, f64)>,
    /// `(unit, kind)` per step; the first entry's kind is meaningless.
    steps: Vec<(usize, StepKind)>,
}

impl DpState {
    fn of_unit(i: usize, u: &CostUnit) -> DpState {
        DpState {
            cpu_us: u.fetch_cpu_us,
            io_us: u.fetch_io_us,
            net_sum_us: u.fetch_net_us,
            net_max_us: u.fetch_net_us,
            net_seq_us: 0.0,
            est_rows: u.est_rows,
            var_distinct: u.var_distinct.clone(),
            steps: vec![(i, StepKind::Hash)],
        }
    }

    fn total_us(&self, overlap: bool) -> f64 {
        let net = if overlap { self.net_max_us } else { self.net_sum_us };
        self.cpu_us + self.io_us + net + self.net_seq_us
    }

    /// The chosen plan's cost decomposition, for the report.
    fn federation_cost(&self, overlap: bool) -> FederationCost {
        FederationCost {
            cpu_us: self.cpu_us,
            io_us: self.io_us,
            network_us: self.net_sum_us + self.net_seq_us,
            parallelism_us: if overlap { self.net_sum_us - self.net_max_us } else { 0.0 },
        }
    }

    /// True when `self` replaces `incumbent` in the enumeration: strictly
    /// cheaper, or — at exactly equal cost — smaller on the deterministic
    /// tie-break key, the lexicographic `(unit index, step kind)` step
    /// sequence. Ties must never fall back to arrival order: it depends
    /// on the enumeration's iteration pattern, which is exactly the kind
    /// of incidental ordering a refactor silently changes.
    fn beats(&self, incumbent: &DpState, overlap: bool) -> bool {
        match self.total_us(overlap).total_cmp(&incumbent.total_us(overlap)) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => self.steps < incumbent.steps,
            std::cmp::Ordering::Greater => false,
        }
    }

    /// Distinct join keys of `v` on this side, capped at the row estimate.
    fn distinct_of(&self, v: &Var) -> f64 {
        self.var_distinct
            .iter()
            .find(|(w, _)| w == v)
            .map_or(self.est_rows.max(1.0), |(_, d)| d.min(self.est_rows.max(1.0)))
    }
}

/// One conjunctive group's units as the cost model prices them.
struct Pricing<'a> {
    env: CostEnv<'a>,
    units: &'a [Unit],
    /// Each unit's pricing inputs, by unit index.
    costs: Vec<CostUnit>,
    rel_stars: &'a [RelStar<'a>],
}

impl<'a> Pricing<'a> {
    fn new(group: &'a Group<'a>, stats: &LakeStatistics, units: &'a [Unit]) -> Self {
        let config = group.config;
        let env = CostEnv {
            cost: &config.cost,
            delay_us: config.network.delay.mean_ms() * 1_000.0,
            rows_per_message: config.rows_per_message.max(1) as f64,
            overlap: config.overlap,
        };
        let costs = units
            .iter()
            .map(|u| {
                let est_rows = u.plan.estimated_rows();
                let (fetch_cpu_us, fetch_io_us, fetch_net_us) = unit_fetch_cost(&u.plan, &env);
                let mut var_distinct =
                    unit_var_distincts(&u.stars, group.dec, &group.candidates, stats, est_rows);
                // Every unit variable gets an NDV entry (fallback: the row
                // estimate), so the DP's shared-variable sets match the
                // `on` keys the built joins will actually use.
                for v in &u.vars {
                    if !var_distinct.iter().any(|(w, _)| w == v) {
                        var_distinct.push((v.clone(), est_rows.max(1.0)));
                    }
                }
                CostUnit { est_rows, fetch_cpu_us, fetch_io_us, fetch_net_us, var_distinct }
            })
            .collect();
        Pricing { env, units, costs, rel_stars: &group.rel }
    }

    /// `state` extended by unit `j` the cheaper way: by a hash join, or by
    /// a bind join when `j` is one relational star whose column for the
    /// one variable it shares with `state` is bindable. Each way priced
    /// counts in `plans_costed`.
    fn extend(&self, state: &DpState, j: usize, plans_costed: &mut u64) -> DpState {
        let unit = &self.units[j];
        let on: Vec<Var> = unit
            .vars
            .iter()
            .filter(|v| state.var_distinct.iter().any(|(w, _)| w == *v))
            .cloned()
            .collect();
        *plans_costed += 1;
        let hash = self.apply_step(state, j, StepKind::Hash, &on);
        if let (Some(b), [var]) = (&unit.bindable, on.as_slice()) {
            if bindable_column(&self.rel_stars[b.rel], var).is_some() {
                *plans_costed += 1;
                let bind = self.apply_step(state, j, StepKind::Bind(b.rel), &on);
                if bind.beats(&hash, self.env.overlap) {
                    return bind;
                }
            }
        }
        hash
    }

    /// Prices joining unit `j` onto `state` on `on` with `kind`. Returns
    /// the new state (without dedup against better states — the caller
    /// compares).
    fn apply_step(&self, state: &DpState, j: usize, kind: StepKind, on: &[Var]) -> DpState {
        let (unit, env) = (&self.costs[j], &self.env);
        let l_rows = state.est_rows.max(1.0);
        let r_rows = unit.est_rows.max(1.0);
        let out_rows = if on.is_empty() {
            // Cartesian product: legal, but priced at its full size.
            l_rows * r_rows
        } else {
            let dl = on.iter().map(|v| state.distinct_of(v)).fold(f64::MAX, f64::min);
            let dr = on
                .iter()
                .map(|v| {
                    unit.var_distinct
                        .iter()
                        .find(|(w, _)| w == v)
                        .map_or(r_rows, |(_, d)| d.min(r_rows))
                })
                .fold(f64::MAX, f64::min);
            join_estimate(l_rows, dl, r_rows, dr)
        };
        let mut next = state.clone();
        match kind {
            StepKind::Hash => {
                next.cpu_us += unit.fetch_cpu_us
                    + (l_rows + r_rows) * env.cost.engine_join_probe_us
                    + out_rows * env.cost.engine_row_us;
                next.io_us += unit.fetch_io_us;
                next.net_sum_us += unit.fetch_net_us;
                next.net_max_us = next.net_max_us.max(unit.fetch_net_us);
            }
            StepKind::Bind(ri) => {
                let rs = &self.rel_stars[ri];
                let keys = state.distinct_of(&on[0]);
                let batches = (keys / BIND_BATCH as f64).ceil().max(1.0);
                // One request message per batch, plus the matched rows
                // coming back — all after the left side finished, hence
                // sequential.
                let messages = batches + (out_rows / env.rows_per_message).ceil();
                next.net_seq_us += env.transfer_us(messages, out_rows);
                let indexed = bindable_column(rs, &on[0])
                    .is_some_and(|col| rs.indexed(&col.name));
                next.io_us += if indexed {
                    keys * env.cost.rdb_index_probe_us + out_rows * env.cost.rdb_index_row_us
                } else {
                    // Every batch rescans the (filtered) table.
                    batches * rs.cardinality as f64 * env.cost.rdb_row_scan_us
                };
                next.cpu_us +=
                    l_rows * env.cost.engine_join_probe_us + out_rows * env.cost.engine_row_us;
            }
        }
        next.est_rows = out_rows.max(1.0);
        for (v, d) in &unit.var_distinct {
            match next.var_distinct.iter_mut().find(|(w, _)| w == v) {
                Some((_, old)) => *old = old.min(*d),
                None => next.var_distinct.push((v.clone(), *d)),
            }
        }
        for (_, d) in &mut next.var_distinct {
            *d = d.min(next.est_rows);
        }
        next.steps.push((j, kind));
        next
    }
}

/// The column `join_var` maps to on the unit's star, when bind-joining on
/// it is feasible at all: its `IN` list must select exactly the join terms.
fn bindable_column(rs: &RelStar, join_var: &Var) -> Option<StarColumn> {
    star_column(join_var, rs.star, rs.tm, rs.schema).filter(sql_equality_is_identity)
}

/// Whether SQL's `=` on `column` is the identity of the terms it lifts to,
/// as a bind join's `IN` list and Heuristic 1's `ON` need: not on DOUBLE,
/// where −0.0 = 0.0 holds of two terms and NaN = NaN fails of one (and no
/// literal carries a NaN or ±INF join term).
fn sql_equality_is_identity(column: &StarColumn) -> bool {
    column.lift != Lift::Literal(DataType::Double)
}

/// The cost model's join order over the units: prices every left-deep
/// order (DP up to [`DP_UNIT_LIMIT`] units, greedy beyond) with a per-edge
/// bind-vs-hash choice, and records what it did in `report`.
fn order_units_by_cost(
    pricing: &Pricing<'_>,
    report: &mut PlanReport,
) -> Result<Vec<(usize, StepKind)>, FedError> {
    let (n, overlap) = (pricing.costs.len(), pricing.env.overlap);
    let mut plans_costed = 0u64;
    let best: DpState = if n <= DP_UNIT_LIMIT {
        report.strategy = PlanStrategy::Dp;
        let mut dp: Vec<Option<DpState>> = vec![None; 1 << n];
        for (i, u) in pricing.costs.iter().enumerate() {
            dp[1 << i] = Some(DpState::of_unit(i, u));
        }
        for mask in 1usize..(1 << n) {
            let Some(state) = dp[mask].clone() else { continue };
            for j in (0..n).filter(|j| mask & (1 << j) == 0) {
                let next = pricing.extend(&state, j, &mut plans_costed);
                let slot = &mut dp[mask | (1 << j)];
                if slot.as_ref().is_none_or(|s| next.beats(s, overlap)) {
                    *slot = Some(next);
                }
            }
        }
        dp[(1 << n) - 1].take().ok_or_else(|| {
            FedError::Internal("cost-based DP left the final state unreached".into())
        })?
    } else {
        report.strategy = PlanStrategy::GreedyCost;
        // Start from the cheapest single fetch, then repeatedly take the
        // cheapest extension. Equal-cost fetches resolve to the lowest
        // unit index (`min_by` keeps the *last* minimum, which would tie-
        // break on position — backwards and easy to destabilize).
        let first = (1..n).fold(0, |best, i| {
            let fi = DpState::of_unit(i, &pricing.costs[i]).total_us(overlap);
            let fb = DpState::of_unit(best, &pricing.costs[best]).total_us(overlap);
            if fi.total_cmp(&fb) == std::cmp::Ordering::Less {
                i
            } else {
                best
            }
        });
        let mut state = DpState::of_unit(first, &pricing.costs[first]);
        let mut used = vec![false; n];
        used[first] = true;
        for _ in 1..n {
            let (j, next) = (0..n)
                .filter(|&j| !used[j])
                .map(|j| (j, pricing.extend(&state, j, &mut plans_costed)))
                .reduce(|pick, next| if next.1.beats(&pick.1, overlap) { next } else { pick })
                .ok_or_else(|| FedError::Internal("greedy cost ordering ran out of units".into()))?;
            used[j] = true;
            state = next;
        }
        state
    };

    report.plans_costed += plans_costed;
    let binds = best.steps.iter().filter(|(_, kind)| matches!(kind, StepKind::Bind(_))).count();
    report.bind_joins += binds as u64;
    report.estimated_cost = Some(best.federation_cost(overlap));
    Ok(best.steps)
}

#[cfg(test)]
mod filter_verdicts;

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_mapping::{DatasetMapping, IriTemplate};
    use fedlake_netsim::NetworkProfile;
    use fedlake_relational::Database;
    use fedlake_sparql::parser::parse_query;

    /// Source `d`: genes, each of one disease, with `gene.disease` and
    /// `disease.name` indexed.
    fn gene_disease_lake() -> DataLake {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)").unwrap();
        db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
        for (id, disease) in [("g0", "d0"), ("g1", "d0"), ("g2", "d1"), ("g3", "d2")] {
            db.execute(&format!("INSERT INTO gene VALUES ('{id}', 'gene {id}', '{disease}')"))
                .unwrap();
        }
        for (id, name) in [("d0", "asthma"), ("d1", "cancer"), ("d2", "asthma")] {
            db.execute(&format!("INSERT INTO disease VALUES ('{id}', '{name}')")).unwrap();
        }
        db.execute("CREATE INDEX idx_gene_disease ON gene (disease)").unwrap();
        db.execute("CREATE INDEX idx_disease_name ON disease (name)").unwrap();
        let (gene_iri, disease_iri) =
            (IriTemplate::new("http://d/gene/", ""), IriTemplate::new("http://d/disease/", ""));
        let mapping = DatasetMapping::new("d")
            .with_table(
                TableMapping::new("gene", "http://v/Gene", gene_iri, "id")
                    .with_literal("label", "http://v/label")
                    .with_reference("disease", "http://v/disease", disease_iri.clone()),
            )
            .with_table(
                TableMapping::new("disease", "http://v/Disease", disease_iri, "id")
                    .with_literal("name", "http://v/name"),
            );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::relational("d", db, mapping));
        lake
    }

    /// A star looks its source up once: a relational candidate resolves to
    /// its table's mapping and asks that table's indexes, a SPARQL one
    /// resolves to no relational star, and a missing one is a typed error.
    #[test]
    fn a_star_resolves_its_source_once() {
        let mut lake = gene_disease_lake();
        lake.add_source(DataSource::sparql("r", fedlake_rdf::Graph::new()));
        let query =
            parse_query("SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d }")
                .unwrap();
        let star = &crate::decompose::decompose(&query).unwrap().stars[0];
        let resolve = |source_id: &str| {
            let class = "http://v/Gene".to_string();
            let cand = Candidate { source_id: source_id.into(), class, cardinality: 1 };
            RelStar::resolve(0, star, &cand, &lake, None)
        };
        let rs = resolve("d").unwrap().unwrap();
        assert_eq!((rs.source_id, rs.tm.table.as_str()), ("d", "gene"));
        assert!(rs.indexed("id"), "the primary key leads an index");
        assert!(rs.indexed("disease"));
        assert!(!rs.indexed("label"));
        assert!(resolve("r").unwrap().is_none());
        assert!(matches!(resolve("gone"), Err(FedError::Internal(_))));
    }

    /// The SQL services of `plan`, each as the stars it covers, merged ones
    /// first.
    fn sql_covers(plan: &FedPlan) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
        let (mut merged, mut single) = (Vec::new(), Vec::new());
        plan.visit(0, &mut |node, _| {
            if let FedPlan::Service(ServiceNode {
                kind: ServiceKind::Sql { request, covers }, ..
            }) = node
            {
                let side = if request.is_merged() { &mut merged } else { &mut single };
                side.push(covers.clone());
            }
        });
        (merged, single)
    }

    /// Heuristic 1 pairs first-fit in star order, each star in at most one
    /// merge: of three stars on one endpoint where every pair qualifies
    /// (`?g`–`?d` on the gene's disease key, `?g`–`?h` on the shared indexed
    /// `gene.disease`, `?d`–`?h` on `?h`'s disease key), the first two merge
    /// and the third stays a single service.
    #[test]
    fn heuristic_one_pairs_first_fit_in_star_order() {
        let lake = gene_disease_lake();
        let query = parse_query(
            "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d . \
             ?d <http://v/name> ?n . ?h <http://v/disease> ?d }",
        )
        .unwrap();
        let config = PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY);
        let plan = plan_query_with_health(&query, &lake, &config, &HealthView::default())
            .unwrap()
            .plan;
        let (merged, single) = sql_covers(&plan);
        assert_eq!(merged, [["?g", "?d"]], "{plan:?}");
        assert_eq!(single, [["?h"]], "{plan:?}");
    }

    /// A decision list the planner did not choose builds a plan that
    /// answers alike. The query has a Heuristic 1 merge (`?g`–`?d`) and a
    /// filter Heuristic 2 pushes (`disease.name` is indexed, the network
    /// slow); its chosen decisions are built again with the merge dropped,
    /// with the filter kept at the engine, and with the first two units of
    /// the join order swapped, and each plan is executed.
    #[test]
    fn a_decision_list_the_planner_did_not_choose_answers_alike() {
        let (lake, health) = (gene_disease_lake(), HealthView::default());
        let query = parse_query(
            "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d . \
             ?d <http://v/name> ?n . ?h <http://v/disease> ?d . FILTER(?n = \"asthma\") }",
        )
        .unwrap();
        let config = PlanConfig::new(PlanMode::AWARE_H2, NetworkProfile::GAMMA2);
        let dec = decompose_as(&query, config.decomposition).unwrap();
        let group = Group::resolve(&dec, &lake, &config, &health, &mut Vec::new()).unwrap();
        let (chosen, _) = group.decide(&mut PlanReport::default()).unwrap();
        assert_eq!(chosen.merges.len(), 1, "{chosen:?}");
        assert_eq!(chosen.filters.iter().map(|f| f.pushed.len()).sum::<usize>(), 1);
        assert_eq!(chosen.order.len(), 2, "the merged pair and `?h`");

        let engine = crate::FederatedEngine::new(gene_disease_lake(), config);
        let planned = plan_query_with_health(&query, &lake, &config, &health).unwrap();
        let run = |decided: &Decisions| {
            let mut plan = group.join_in_order(group.units(decided).unwrap(), decided).unwrap();
            let schema = &planned.schema;
            let read = read_slots(&plan, schema, &planned.projection, &planned.order_by);
            lower(&mut plan, None, &Lowering { lake: &lake, health: &health, schema, read: &read });
            let planned = PlannedQuery { plan, ..planned.clone() };
            let mut rows = engine.execute_planned(&planned).unwrap().rows;
            rows.sort();
            (planned.plan, rows)
        };
        let engine_filters = |plan: &FedPlan| {
            let mut n = 0;
            plan.visit(0, &mut |node, _| n += usize::from(matches!(node, FedPlan::Filter { .. })));
            n
        };
        let (plan, answers) = run(&chosen);
        assert_eq!(plan, planned.plan, "the chosen list builds the planner's plan");
        assert_eq!(answers.len(), 5, "two asthma genes of d0 squared, one of d2");

        let mut unmerged = chosen.clone();
        unmerged.merges.clear();
        unmerged.order = (0..3).map(|j| (j, StepKind::Hash)).collect();
        let (unmerged_plan, unmerged_answers) = run(&unmerged);
        assert_eq!(unmerged_plan.merged_service_count() + 1, plan.merged_service_count());
        assert_eq!(unmerged_answers, answers, "{unmerged_plan:?}");

        let mut at_engine = chosen.clone();
        for split in &mut at_engine.filters {
            split.engine.extend(split.pushed.drain(..).map(|f| f.expr));
        }
        let (at_engine_plan, at_engine_answers) = run(&at_engine);
        assert_eq!(engine_filters(&at_engine_plan), engine_filters(&plan) + 1);
        assert_eq!(at_engine_answers, answers, "{at_engine_plan:?}");

        let mut swapped = chosen.clone();
        swapped.order.swap(0, 1);
        let (swapped_plan, swapped_answers) = run(&swapped);
        let FedPlan::Join { left, .. } = &swapped_plan else { panic!("{swapped_plan:?}") };
        assert_eq!(sql_covers(left), (vec![], vec![vec!["?h".to_string()]]), "`?h` goes first");
        assert_ne!(swapped_plan, plan);
        assert_eq!(swapped_answers, answers, "{swapped_plan:?}");
    }

    /// A naive merge binds on the merge's own join variable: with the gene's
    /// disease named twice, that is `?e`, the disease star's subject, not
    /// `?d`, the first variable on the same column, which the disease star
    /// does not mention. The plan answers as the optimized merge does.
    #[test]
    fn a_naive_merge_binds_on_its_own_join_variable() {
        let (lake, health) = (gene_disease_lake(), HealthView::default());
        let query = parse_query(
            "SELECT * WHERE { ?g <http://v/disease> ?d . ?g <http://v/disease> ?e . \
             ?e <http://v/name> ?n }",
        )
        .unwrap();
        let answers = |translation| {
            let mut config = PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY);
            config.merge_translation = translation;
            let planned = plan_query_with_health(&query, &lake, &config, &health).unwrap();
            let engine = crate::FederatedEngine::new(gene_disease_lake(), config);
            let mut rows = engine.execute_planned(&planned).unwrap().rows;
            rows.sort();
            (planned.plan, rows)
        };
        let (naive, naive_rows) = answers(MergeTranslation::Naive);
        let FedPlan::BindJoin { right, batch_size: 1, .. } = &naive else {
            panic!("a naive merge is a bind join of batch 1: {naive:?}");
        };
        assert_eq!(right.join_var.name(), "e");
        let (optimized, rows) = answers(MergeTranslation::Optimized);
        assert_eq!(optimized.merged_service_count(), 1, "{optimized:?}");
        assert_eq!((naive_rows.len(), naive_rows), (4, rows));
    }

    /// Under the naive translation a pair Heuristic 1 merges is the N+1
    /// dependent join it stands for: the first star as one SQL service, the
    /// second re-asked per binding — a bind join of batch 1 on the merge
    /// column, with the key template that column's IRIs are minted by.
    #[test]
    fn a_naive_merge_plans_as_a_bind_join_of_batch_one() {
        let lake = gene_disease_lake();
        let disease_iri = IriTemplate::new("http://d/disease/", "");
        let query = parse_query(
            "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d . \
             ?d <http://v/name> ?n . FILTER(?n != \"cancer\") }",
        )
        .unwrap();
        let plan = |translation| {
            let mut config = PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY);
            config.merge_translation = translation;
            plan_query_with_health(&query, &lake, &config, &HealthView::default()).unwrap().plan
        };

        let optimized = plan(MergeTranslation::Optimized);
        assert_eq!(optimized.merged_service_count(), 1, "{optimized:?}");
        let mut naive = plan(MergeTranslation::Naive);
        while let FedPlan::Filter { input, .. } = naive {
            naive = *input;
        }
        let FedPlan::BindJoin { left, right, batch_size } = naive else {
            panic!("a naive merge is a bind join: {naive:?}");
        };
        assert_eq!(batch_size, 1);
        match *left {
            FedPlan::Service(ServiceNode {
                kind: ServiceKind::Sql { request: SqlRequest::Single(_), covers },
                ..
            }) => assert_eq!(covers, ["?g"]),
            other => panic!("the left side is the gene star's single service: {other:?}"),
        }
        assert_eq!(right.source_id, "d");
        assert_eq!(right.part.table, "disease");
        assert_eq!((right.join_var.name(), right.column.name.as_str()), ("d", "id"));
        assert_eq!(right.column.lift, Lift::SubjectIri(disease_iri));
    }

    /// A bind-join target's verdict key is its column's lift: equal lifts
    /// share one, unequal lifts do not, and none is a FILTER conjunct's.
    /// The lowering walk sets it on every target it plans.
    #[test]
    fn a_bind_key_is_its_lift_and_never_a_filter_key() {
        use fedlake_sparql::expr::CmpOp;
        let gene = IriTemplate::new("http://d/gene/", "");
        let lifts = [
            Lift::SubjectIri(gene.clone()),
            Lift::RefIri(gene),
            Lift::SubjectIri(IriTemplate::new("http://d/gene/", ".html")),
            Lift::RefIri(IriTemplate::new("http://d/disease/", "")),
            Lift::Literal(DataType::Int),
            Lift::Literal(DataType::Text),
        ];
        for (i, a) in lifts.iter().enumerate() {
            assert_eq!(bind_verdict_key(a), bind_verdict_key(&a.clone()), "{a:?}");
            for (j, b) in lifts.iter().enumerate() {
                assert_eq!(bind_verdict_key(a) == bind_verdict_key(b), i == j, "{a:?} {b:?}");
            }
        }

        // FILTER keys over variables named like the bind keys' text.
        let vars = ["bind", "SubjectIri", "x"].map(Var::new);
        let schema = RowSchema::new(vars.iter().cloned());
        let exprs: Vec<Expr> = vars
            .iter()
            .flat_map(|v| {
                let var = || Box::new(Expr::Var(v.clone()));
                [
                    Expr::Bound(v.clone()),
                    Expr::Cmp(var(), CmpOp::Eq, Box::new(Expr::Const(Term::integer(1)))),
                    Expr::Cmp(var(), CmpOp::Ne, Box::new(Expr::Const(Term::literal("bind")))),
                ]
            })
            .collect();
        let filter_keys: Vec<VerdictKey> =
            filter_verdict_keys(&exprs, &schema).into_vec().into_iter().flatten().collect();
        assert_eq!(filter_keys.len(), exprs.len(), "each conjunct reads one slot");
        for key in &filter_keys {
            assert!(key.0.starts_with('?'), "{key:?}");
            for lift in &lifts {
                assert_ne!(*key, bind_verdict_key(lift));
            }
        }
        for lift in &lifts {
            assert!(!bind_verdict_key(lift).0.starts_with('?'), "{lift:?}");
        }

        let lake = gene_disease_lake();
        let query = parse_query(
            "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d . \
             ?d <http://v/name> ?n }",
        )
        .unwrap();
        let mut config = PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY);
        config.merge_translation = MergeTranslation::Naive;
        let health = HealthView::default();
        let plan = plan_query_with_health(&query, &lake, &config, &health).unwrap().plan;
        let mut targets = 0;
        plan.visit(0, &mut |node, _| {
            if let FedPlan::BindJoin { right, .. } = node {
                targets += 1;
                assert_eq!(right.verdict_key, Some(bind_verdict_key(&right.column.lift)));
            }
        });
        assert_eq!(targets, 1, "{plan:?}");
    }
}
