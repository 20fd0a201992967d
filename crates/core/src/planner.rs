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

use crate::config::{EngineJoin, MergeTranslation, PlanConfig, PlanMode};
use crate::decompose::{decompose_as, StarSubject, StarSubquery};
use crate::error::FedError;
use crate::fedplan::{FedPlan, ReplicaRoute, ServiceKind, ServiceNode, SqlRequest};
use crate::health::HealthView;
use crate::lake::DataLake;
use crate::selection::{select_sources_with_health, Candidate};
use crate::source::DataSource;
use crate::stats::{join_estimate, FederationCost, LakeStatistics};
use crate::translate::{
    push_filter, sql_merged, sql_single, star_column, star_part, Lift, OutputBinding, SqlFilter,
    StarColumn, StarPart,
};
use crate::wrapper::LiftPlan;
use fedlake_mapping::TableMapping;
use fedlake_netsim::CostModel;
use fedlake_relational::{DataType, TableSchema};
use fedlake_sparql::ast::{OrderKey, SelectQuery};
use fedlake_sparql::binding::{RowSchema, Var};
use fedlake_sparql::expr::Expr;
use fedlake_rdf::{vocab, Term};
use std::sync::Arc;

/// Unit count above which the cost-based planner switches from exhaustive
/// left-deep DP enumeration to greedy cost-based ordering.
pub const DP_UNIT_LIMIT: usize = 10;

/// Bind-join batch size the cost-based planner assumes (and emits) when
/// the config does not already force [`EngineJoin::Bind`].
pub const DEFAULT_BIND_BATCH: usize = 16;

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
    /// Stable 64-bit fingerprint of the plan's normalized logical IR
    /// (see [`crate::ir`]): identical for a cached replay and its cold
    /// original, interner-independent.
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
    /// What each node's lift reads: one [`LiftPlan`] per plan node, in the
    /// pre-order the executor numbers nodes in, decided once by
    /// [`lift_plans`] and cached with the plan. A node past its end lifts
    /// every cell.
    pub lifts: Arc<[LiftPlan]>,
    /// Sources the health-aware selector skipped because every replica
    /// endpoint was past the failure threshold (only under `degraded_ok`;
    /// the engine marks such answers degraded).
    pub skipped_sources: Vec<String>,
    /// What the planner did (strategy taken, plans costed, estimates).
    pub report: PlanReport,
}

/// One star bound to one relational source, with everything translation
/// needs.
struct RelStar {
    star_idx: usize,
    source_id: String,
    tm: TableMapping,
    schema: TableSchema,
    pushed: Vec<SqlFilter>,
    engine_filters: Vec<Expr>,
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
    // The logical identity is fixed before physical lowering: replica
    // routes are assigned below and deliberately do not shift it.
    report.fingerprint = crate::ir::LogicalPlan::of(&plan).normalized().fingerprint();
    assign_routes(&mut plan, lake, health);
    let projection = query.effective_projection();
    // The schema covers every variable an operator may bind or project.
    let schema = Arc::new(RowSchema::new(
        query.pattern.vars().into_iter().chain(projection.iter().cloned()),
    ));
    let lifts = lift_plans(&plan, &schema, &projection, &query.order_by);
    Ok(PlannedQuery {
        plan,
        schema,
        projection: projection.into(),
        distinct: query.distinct,
        order_by: query.order_by.clone(),
        limit: query.limit,
        offset: query.offset.unwrap_or(0),
        lifts,
        skipped_sources: skipped,
        report,
    })
}

/// Decides, once per plan, which cells of each SQL leaf and bind-join
/// target anything above it reads (DESIGN §19): one [`LiftPlan`] per plan
/// node, in pre-order. A slot is read when it is projected or an ORDER BY
/// key, an engine FILTER mentions it, it is a join variable, or two or
/// more leaves bind it (`RowArena::merge` compares every slot both sides
/// bind). An engine FILTER directly over a SQL leaf lends the leaf, as
/// guards, its conjuncts that read exactly one slot the leaf binds. A
/// SPARQL leaf, and every node that is no leaf, lifts everything.
fn lift_plans(
    plan: &FedPlan,
    schema: &RowSchema,
    projection: &[Var],
    order_by: &[OrderKey],
) -> Arc<[LiftPlan]> {
    let mut read = vec![false; schema.len()];
    let mut binders = vec![0usize; schema.len()];
    mark_read(projection.iter().chain(order_by.iter().map(|k| &k.var)), schema, &mut read);
    count_reads(plan, schema, &mut read, &mut binders);
    for (read, n) in read.iter_mut().zip(&binders) {
        *read |= *n >= 2;
    }
    let mut out = Vec::new();
    push_lift_plans(plan, None, schema, &read, &mut out);
    out.into()
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

/// Marks the slots `plan`'s engine operators read and counts the leaves
/// that bind each slot.
fn count_reads(plan: &FedPlan, schema: &RowSchema, read: &mut [bool], binders: &mut [usize]) {
    match plan {
        FedPlan::Service(node) => match &node.kind {
            ServiceKind::Sql {
                request: SqlRequest::Single(q) | SqlRequest::MergedOptimized(q), ..
            } => mark_bound(q.outputs.iter().map(|o| &o.var), schema, binders),
            ServiceKind::Sparql { star, .. } => mark_bound(&star.vars(), schema, binders),
        },
        FedPlan::Join { left, right, on } | FedPlan::LeftJoin { left, right, on } => {
            mark_read(on, schema, read);
            count_reads(left, schema, read, binders);
            count_reads(right, schema, read, binders);
        }
        FedPlan::BindJoin { left, right, .. } => {
            mark_read([&right.join_var], schema, read);
            mark_bound(right.part.outputs.iter().map(|o| &o.var), schema, binders);
            count_reads(left, schema, read, binders);
        }
        FedPlan::Filter { input, exprs } => {
            for e in exprs {
                mark_read(&e.vars(), schema, read);
            }
            count_reads(input, schema, read, binders);
        }
        FedPlan::Union(branches) => {
            for b in branches {
                count_reads(b, schema, read, binders);
            }
        }
    }
}

/// Appends the [`LiftPlan`] of `plan` and of every node below it, in
/// pre-order; `filter` is the engine FILTER directly over `plan`, if any.
fn push_lift_plans(
    plan: &FedPlan,
    filter: Option<&[Expr]>,
    schema: &RowSchema,
    read: &[bool],
    out: &mut Vec<LiftPlan>,
) {
    match plan {
        FedPlan::Service(node) => out.push(match &node.kind {
            ServiceKind::Sql {
                request: SqlRequest::Single(q) | SqlRequest::MergedOptimized(q), ..
            } => sql_lift_plan(&q.outputs, filter, schema, read),
            ServiceKind::Sparql { .. } => LiftPlan::default(),
        }),
        FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
            out.push(LiftPlan::default());
            push_lift_plans(left, None, schema, read, out);
            push_lift_plans(right, None, schema, read, out);
        }
        FedPlan::BindJoin { left, right, .. } => {
            out.push(sql_lift_plan(&right.part.outputs, None, schema, read));
            push_lift_plans(left, None, schema, read, out);
        }
        FedPlan::Filter { input, exprs } => {
            out.push(LiftPlan::default());
            push_lift_plans(input, Some(exprs), schema, read, out);
        }
        FedPlan::Union(branches) => {
            out.push(LiftPlan::default());
            for b in branches {
                push_lift_plans(b, None, schema, read, out);
            }
        }
    }
}

/// A SQL leaf's plan: the output variables nothing reads, and the
/// conjuncts of `filter` that read exactly one slot the leaf binds.
fn sql_lift_plan(
    outputs: &[OutputBinding],
    filter: Option<&[Expr]>,
    schema: &RowSchema,
    read: &[bool],
) -> LiftPlan {
    let mut unread: Vec<Var> = Vec::new();
    for o in outputs {
        if schema.slot(&o.var).is_some_and(|s| !read[s]) && !unread.contains(&o.var) {
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
    LiftPlan::new(unread, guards)
}

/// Walks a plan and decides, per service leaf, the replica endpoints to
/// contact and in which order: failures ascending (healthiest first),
/// replica index breaking ties. Unreplicated sources keep `route: None`
/// and behave exactly as before replicas existed.
pub fn assign_routes(plan: &mut FedPlan, lake: &DataLake, health: &HealthView) {
    match plan {
        FedPlan::Service(node) => {
            node.route = route_for_source(&node.source_id, lake, health);
        }
        FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
            assign_routes(left, lake, health);
            assign_routes(right, lake, health);
        }
        FedPlan::BindJoin { left, right, .. } => {
            assign_routes(left, lake, health);
            right.route = route_for_source(&right.source_id, lake, health);
        }
        FedPlan::Filter { input, .. } => assign_routes(input, lake, health),
        FedPlan::Union(branches) => {
            for b in branches {
                assign_routes(b, lake, health);
            }
        }
    }
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
        let plan = if branches.len() == 1 {
            branches.into_iter().next().expect("length checked")
        } else {
            FedPlan::Union(branches)
        };
        units.push((plan, crate::decompose::union_block_vars(block)));
    }
    if units.is_empty() {
        return Err(FedError::Unsupported("empty basic graph pattern".into()));
    }

    // 2. Join the units on their shared (always-bound) variables.
    let (mut plan, mut bound_vars) = units.remove(0);
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
    if !pre.is_empty() {
        plan = FedPlan::Filter { input: Box::new(plan), exprs: pre };
    }

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
    if !post.is_empty() {
        plan = FedPlan::Filter { input: Box::new(plan), exprs: post };
    }
    Ok(plan)
}

/// Plans the conjunctive (required) part of a decomposition.
fn plan_conjunctive(
    dec: &crate::decompose::Decomposition,
    lake: &DataLake,
    config: &PlanConfig,
    health: &HealthView,
    skipped: &mut Vec<String>,
    report: &mut PlanReport,
) -> Result<FedPlan, FedError> {
    if dec.stars.is_empty() {
        return Err(FedError::Unsupported("empty basic graph pattern".into()));
    }
    // Cost mode estimates service cardinalities from the statistics
    // catalog; heuristic mode keeps the fixed per-constraint guesses.
    let stats: Option<&LakeStatistics> = config.cost_based.then(|| lake.statistics());
    let (candidates, newly_skipped) =
        select_sources_with_health(&dec.stars, lake, health, config.degraded_ok)?;
    for s in newly_skipped {
        if !skipped.contains(&s) {
            skipped.push(s);
        }
    }

    // Classify stars: single relational candidate vs. everything else.
    let mut rel_stars: Vec<RelStar> = Vec::new();
    let mut other_units: Vec<(usize, FedPlan)> = Vec::new();
    for (i, (star, cands)) in dec.stars.iter().zip(&candidates).enumerate() {
        let single_relational = cands.len() == 1
            && lake
                .source(&cands[0].source_id)
                .is_some_and(DataSource::is_relational)
            && !star.has_variable_predicate();
        if single_relational {
            rel_stars.push(RelStar::new(i, star, &cands[0], lake, config)?);
        } else {
            other_units.push((i, plan_other_star(star, cands, lake, config, stats)?));
        }
    }

    // Heuristic 1: pairwise merging of relational stars on one endpoint.
    let h1 = matches!(
        config.mode,
        PlanMode::Aware { h1_join_pushdown: true, .. }
    );
    let mut merged_away: Vec<Option<usize>> = vec![None; rel_stars.len()]; // partner index
    if h1 {
        for i in 0..rel_stars.len() {
            if merged_away[i].is_some() {
                continue;
            }
            for j in (i + 1)..rel_stars.len() {
                if merged_away[j].is_some() || merged_away[i].is_some() {
                    continue;
                }
                if rel_stars[i].source_id != rel_stars[j].source_id {
                    continue;
                }
                let source = lake.source(&rel_stars[i].source_id).expect("selected");
                if find_merge_join(&dec.stars, &rel_stars[i], &rel_stars[j], source).is_some()
                {
                    merged_away[i] = Some(j);
                    merged_away[j] = Some(i);
                }
            }
        }
    }

    // Build service units. Single relational stars remember their
    // RelStar index so the join loop can convert them into bind joins.
    let mut units: Vec<(Vec<usize>, FedPlan, Option<usize>)> = Vec::new();
    let mut consumed = vec![false; rel_stars.len()];
    for i in 0..rel_stars.len() {
        if consumed[i] {
            continue;
        }
        consumed[i] = true;
        match merged_away[i] {
            Some(j) if !consumed[j] => {
                consumed[j] = true;
                let source = lake.source(&rel_stars[i].source_id).expect("selected");
                let unit = build_merged_service(
                    &dec.stars,
                    &rel_stars[i],
                    &rel_stars[j],
                    source,
                    config,
                    stats,
                )?;
                units.push((vec![rel_stars[i].star_idx, rel_stars[j].star_idx], unit, None));
            }
            _ => {
                let unit = build_single_service(&dec.stars, &rel_stars[i], stats)?;
                units.push((vec![rel_stars[i].star_idx], unit, Some(i)));
            }
        }
    }
    for (i, plan) in other_units {
        units.push((vec![i], plan, None));
    }

    // Join ordering over units: cost-based (DP / greedy over the
    // FederationCost model) or the paper's heuristic greedy.
    let star_vars: Vec<Vec<Var>> = dec.stars.iter().map(StarSubquery::vars).collect();
    let unit_vars = |star_idxs: &[usize]| -> Vec<Var> {
        let mut out = Vec::new();
        for &i in star_idxs {
            for v in &star_vars[i] {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    };
    if let Some(stats) = stats {
        let unit_var_list: Vec<Vec<Var>> = units.iter().map(|(idxs, _, _)| unit_vars(idxs)).collect();
        return order_units_by_cost(
            dec,
            lake,
            config,
            stats,
            &candidates,
            &rel_stars,
            units,
            unit_var_list,
            report,
        );
    }
    units.sort_by(|a, b| a.1.estimated_rows().total_cmp(&b.1.estimated_rows()));
    let (first_idxs, mut plan, _) = units.remove(0);
    let mut bound_vars = unit_vars(&first_idxs);
    while !units.is_empty() {
        // Prefer the smallest connected unit.
        let pick = units
            .iter()
            .position(|(idxs, _, _)| {
                unit_vars(idxs).iter().any(|v| bound_vars.contains(v))
            })
            .unwrap_or(0);
        let (idxs, right, bindable) = units.remove(pick);
        let right_vars = unit_vars(&idxs);
        let on: Vec<Var> = right_vars
            .iter()
            .filter(|v| bound_vars.contains(v))
            .cloned()
            .collect();
        for v in right_vars {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        plan = match (config.engine_join, bindable) {
            (crate::config::EngineJoin::Bind { batch_size }, Some(ri)) if on.len() == 1 => {
                match build_bind_join(plan, &dec.stars, &rel_stars[ri], &on[0], batch_size, None)? {
                    Ok(bound_plan) => bound_plan,
                    // The variable does not map to a column: fall back.
                    Err(left) => FedPlan::Join {
                        left: Box::new(left),
                        right: Box::new(right),
                        on,
                    },
                }
            }
            _ => FedPlan::Join { left: Box::new(plan), right: Box::new(right), on },
        };
    }

    // Cross-star filters are applied by `plan_tree`, which knows the
    // union- and optional-bound variables.
    Ok(plan)
}

/// Heuristic 2's decision: split a relational star's filters into
/// (pushed-to-source, kept-at-engine). Whether a filter *can* be pushed is
/// [`push_filter`]'s one rule, asked once per filter; whether it *is*
/// depends on the placement, the filtered column's index and the network.
fn split_filters(
    star: &StarSubquery,
    tm: &TableMapping,
    schema: &TableSchema,
    source: &DataSource,
    config: &PlanConfig,
) -> (Vec<SqlFilter>, Vec<Expr>) {
    let mut pushed = Vec::new();
    let mut engine = Vec::new();
    for f in &star.filters {
        let decided = match config.mode {
            // The unaware plan performs every operation it can at the
            // engine.
            PlanMode::Unaware => None,
            PlanMode::Aware { filters, .. } => push_filter(f, star, tm, schema).filter(|sql| {
                let indexed = source.has_index_on(&tm.table, &sql.column);
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
            Some(sql) => pushed.push(sql),
            None => engine.push(f.clone()),
        }
    }
    (pushed, engine)
}

/// The join columns Heuristic 1 would merge two stars on, when the paper's
/// indexing condition holds. Returns `(left_col_on_a, right_col_on_b)`.
fn find_merge_join(
    stars: &[StarSubquery],
    a: &RelStar,
    b: &RelStar,
    source: &DataSource,
) -> Option<(String, String)> {
    let sa = &stars[a.star_idx];
    let sb = &stars[b.star_idx];
    // Stars that read one row (a denormalized design) merge without a join
    // at all — no index condition applies, since there is nothing to join.
    // Case 1: an object variable of `a` is the subject of `b` (FK → PK).
    if let crate::decompose::StarSubject::Var(vb) = &sb.subject {
        for t in &sa.triples {
            if t.o.as_var() == Some(vb) {
                let pred = t.p.as_term().and_then(Term::as_iri)?;
                let col = a.tm.column_for_predicate(pred)?.column.clone();
                let right = b.tm.subject_column.clone();
                // The paper's condition: the join attribute is indexed.
                if same_row(a, b, &col, &right) || source.has_index_on(&a.tm.table, &col) {
                    return Some((col, right));
                }
                return None;
            }
        }
    }
    // Case 1 reversed: an object variable of `b` is the subject of `a`.
    if let crate::decompose::StarSubject::Var(va) = &sa.subject {
        for t in &sb.triples {
            if t.o.as_var() == Some(va) {
                let pred = t.p.as_term().and_then(Term::as_iri)?;
                let col = b.tm.column_for_predicate(pred)?.column.clone();
                // Keep `a` as the left table: left col is a's subject.
                let left = a.tm.subject_column.clone();
                if same_row(a, b, &left, &col) || source.has_index_on(&b.tm.table, &col) {
                    return Some((left, col));
                }
                return None;
            }
        }
    }
    // Case 2: a shared object variable (column–column join); at least one
    // side must be indexed. SQL's `=` joins what the variable joins only
    // between columns that lift alike.
    let vars_a = sa.vars();
    let vars_b = sb.vars();
    for v in &vars_a {
        if !vars_b.contains(v) {
            continue;
        }
        let (Some(ca), Some(cb)) = (
            star_column(v, sa, &a.tm, &a.schema),
            star_column(v, sb, &b.tm, &b.schema),
        ) else {
            continue;
        };
        if ca.lift != cb.lift || !sql_equality_is_identity(&ca) {
            continue;
        }
        let (ca, cb) = (ca.name, cb.name);
        if same_row(a, b, &ca, &cb)
            || source.has_index_on(&a.tm.table, &ca)
            || source.has_index_on(&b.tm.table, &cb)
        {
            return Some((ca, cb));
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

impl RelStar {
    /// The filters Heuristic 2 pushed, as the query states them.
    fn pushed_exprs(&self) -> impl Iterator<Item = &Expr> {
        self.pushed.iter().map(|f| &f.expr)
    }

    /// `star`, the `star_idx`-th of its decomposition, bound to its
    /// relational candidate `cand`, with Heuristic 2's split of its filters.
    fn new(
        star_idx: usize,
        star: &StarSubquery,
        cand: &Candidate,
        lake: &DataLake,
        config: &PlanConfig,
    ) -> Result<RelStar, FedError> {
        let source = lake.source(&cand.source_id);
        let Some(source @ DataSource::Relational { db, mapping, .. }) = source else {
            let id = &cand.source_id;
            return Err(FedError::Internal(format!("candidate source {id} is not relational")));
        };
        let tm = mapping
            .for_class(&cand.class)
            .ok_or_else(|| FedError::Internal(format!("class {} not mapped", cand.class)))?
            .clone();
        let schema = db
            .table(&tm.table)
            .ok_or_else(|| FedError::Internal(format!("table {} missing", tm.table)))?
            .schema
            .clone();
        let (pushed, engine_filters) = split_filters(star, &tm, &schema, source, config);
        Ok(RelStar {
            star_idx,
            source_id: cand.source_id.clone(),
            tm,
            schema,
            pushed,
            engine_filters,
            cardinality: cand.cardinality,
        })
    }
}

fn estimate(cardinality: usize, part: &StarPart) -> f64 {
    let constraints = part
        .wheres
        .iter()
        .filter(|w| !w.ends_with("IS NOT NULL"))
        .count();
    ((cardinality as f64) * 0.4f64.powi(constraints as i32)).max(1.0)
}

/// The statistics-based cardinality estimate of `star` at `source_id`,
/// when cost mode is on and the catalog knows the source.
fn stats_estimate<'f>(
    stats: Option<&LakeStatistics>,
    source_id: &str,
    star: &StarSubquery,
    filters: impl IntoIterator<Item = &'f Expr>,
) -> Option<f64> {
    stats.and_then(|ls| ls.source(source_id)).map(|ss| ss.estimate_star(star, filters))
}

fn wrap_engine_filters(plan: FedPlan, filters: Vec<Expr>) -> FedPlan {
    if filters.is_empty() {
        plan
    } else {
        FedPlan::Filter { input: Box::new(plan), exprs: filters }
    }
}

/// Converts a single relational star into the right side of a dependent
/// bind join on `join_var`. Returns `Err(left)` (giving the left plan
/// back) when the variable does not map to a column of the star.
#[allow(clippy::result_large_err)]
fn build_bind_join(
    left: FedPlan,
    stars: &[StarSubquery],
    rs: &RelStar,
    join_var: &Var,
    batch_size: usize,
    stats: Option<&LakeStatistics>,
) -> Result<Result<FedPlan, FedPlan>, FedError> {
    let star = &stars[rs.star_idx];
    let Some(column) = bindable_column(stars, rs, join_var) else {
        return Ok(Err(left));
    };
    let part = star_part(star, &rs.tm, &rs.schema, &rs.pushed, "s0")?;
    let est = stats_estimate(stats, &rs.source_id, star, rs.pushed_exprs())
        .unwrap_or_else(|| estimate(rs.cardinality, &part));
    let target = crate::fedplan::BindTarget {
        source_id: rs.source_id.clone(),
        route: None,
        part,
        join_var: join_var.clone(),
        column,
        covers: star.subject.to_string(),
        estimated_rows: est,
    };
    let plan = FedPlan::BindJoin { left: Box::new(left), right: target, batch_size };
    Ok(Ok(wrap_engine_filters(plan, rs.engine_filters.clone())))
}

/// A single relational star as one SQL service under its engine filters.
fn build_single_service(
    stars: &[StarSubquery],
    rs: &RelStar,
    stats: Option<&LakeStatistics>,
) -> Result<FedPlan, FedError> {
    let star = &stars[rs.star_idx];
    let part = star_part(star, &rs.tm, &rs.schema, &rs.pushed, "s0")?;
    let est = stats_estimate(stats, &rs.source_id, star, rs.pushed_exprs())
        .unwrap_or_else(|| estimate(rs.cardinality, &part));
    let q = sql_single(&part);
    let service = FedPlan::Service(ServiceNode {
        source_id: rs.source_id.clone(),
        route: None,
        kind: ServiceKind::Sql {
            request: SqlRequest::Single(q),
            covers: vec![star.subject.to_string()],
        },
        estimated_rows: est,
    });
    Ok(wrap_engine_filters(service, rs.engine_filters.clone()))
}

fn build_merged_service(
    stars: &[StarSubquery],
    a: &RelStar,
    b: &RelStar,
    source: &DataSource,
    config: &PlanConfig,
    stats: Option<&LakeStatistics>,
) -> Result<FedPlan, FedError> {
    let (left_col, right_col) = find_merge_join(stars, a, b, source)
        .ok_or_else(|| FedError::Internal("merge pair lost its join".into()))?;
    let sa = &stars[a.star_idx];
    let sb = &stars[b.star_idx];
    // Denormalized case: both stars read one row and combine under a
    // single alias with no join — whatever the translation quality setting;
    // there is no join to translate badly.
    let same_row = same_row(a, b, &left_col, &right_col);
    if config.merge_translation == MergeTranslation::Naive && !same_row {
        // Ontario's unoptimized translation is an N+1 dependent join: `a`'s
        // star once, then `b`'s once per binding of the shared variable —
        // the one mapped to `left_col` on `a`'s side. That is a same-source
        // bind join of batch 1.
        let join_var = sa
            .vars()
            .into_iter()
            .find(|v| star_column(v, sa, &a.tm, &a.schema).is_some_and(|c| c.name == left_col))
            .ok_or_else(|| FedError::Internal("naive merge: join variable not found".into()))?;
        let left = build_single_service(stars, a, stats)?;
        return build_bind_join(left, stars, b, &join_var, 1, stats)?.map_err(|_| {
            let table = &b.tm.table;
            FedError::Internal(format!("naive merge: {join_var} maps to no column of {table}"))
        });
    }

    let pa = star_part(sa, &a.tm, &a.schema, &a.pushed, "s0")?;
    let pb = star_part(sb, &b.tm, &b.schema, &b.pushed, if same_row { "s0" } else { "s1" })?;
    let q = if same_row {
        crate::translate::sql_merged_same_table(&pa, &pb)
    } else {
        sql_merged(&pa, &pb, &left_col, &right_col)
    };
    // Stats-based merged estimate: the classic equi-join formula over the
    // two star estimates (`None` outside cost mode).
    let est = match (
        stats_estimate(stats, &a.source_id, sa, a.pushed_exprs()),
        stats_estimate(stats, &b.source_id, sb, b.pushed_exprs()),
    ) {
        (Some(ea), Some(eb)) => join_estimate(ea, ea, eb, eb),
        _ => estimate(a.cardinality, &pa).min(estimate(b.cardinality, &pb)),
    };
    let service = FedPlan::Service(ServiceNode {
        source_id: a.source_id.clone(),
        route: None,
        kind: ServiceKind::Sql {
            request: SqlRequest::MergedOptimized(q),
            covers: vec![sa.subject.to_string(), sb.subject.to_string()],
        },
        estimated_rows: est,
    });
    let mut filters = a.engine_filters.clone();
    filters.extend(b.engine_filters.clone());
    Ok(wrap_engine_filters(service, filters))
}

/// Plans a star that is not a single-relational-candidate: SPARQL sources
/// evaluate natively, multiple candidates become a union.
fn plan_other_star(
    star: &StarSubquery,
    cands: &[Candidate],
    lake: &DataLake,
    config: &PlanConfig,
    stats: Option<&LakeStatistics>,
) -> Result<FedPlan, FedError> {
    let mut branches = Vec::new();
    for cand in cands {
        let source = lake
            .source(&cand.source_id)
            .ok_or_else(|| FedError::Internal("candidate source missing".into()))?;
        match source {
            DataSource::Sparql { .. } => {
                let est = stats_estimate(stats, &cand.source_id, star, &star.filters)
                    .unwrap_or_else(|| (cand.cardinality as f64).max(1.0));
                branches.push(FedPlan::Service(ServiceNode {
                    source_id: cand.source_id.clone(),
                    route: None,
                    kind: ServiceKind::Sparql {
                        star: star.clone(),
                        filters: star.filters.clone(),
                    },
                    estimated_rows: est,
                }));
            }
            DataSource::Relational { .. } => {
                let rs = RelStar::new(0, star, cand, lake, config)?;
                branches.push(build_single_service(std::slice::from_ref(star), &rs, stats)?);
            }
        }
    }
    Ok(if branches.len() == 1 {
        branches.remove(0)
    } else {
        FedPlan::Union(branches)
    })
}

// ---------------------------------------------------------------------------
// Cost-based join ordering (`PlanConfig::cost_based`).
//
// Units (the service requests `plan_conjunctive` built — merged or single
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

/// One join-ordering unit with its pricing inputs.
struct CostUnit {
    plan: Option<FedPlan>,
    /// Index into `rel_stars` when the unit is one bind-convertible star.
    bindable: Option<usize>,
    vars: Vec<Var>,
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
        FedPlan::Filter { input, exprs } => {
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
/// equal-cost plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StepKind {
    /// Fetch in full and hash-join at the engine.
    Hash,
    /// Ship the left join keys as SQL `IN` batches (dependent bind join).
    Bind,
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

/// Prices joining unit `j` onto `state` with `kind`. Returns the new
/// state (without dedup against better states — the caller compares).
#[allow(clippy::too_many_arguments)]
fn apply_step(
    state: &DpState,
    j: usize,
    kind: StepKind,
    unit: &CostUnit,
    on: &[Var],
    env: &CostEnv<'_>,
    stars: &[StarSubquery],
    rel_stars: &[RelStar],
    lake: &DataLake,
    bind_batch: usize,
) -> DpState {
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
        StepKind::Bind => {
            let ri = unit.bindable.expect("bind step requires a bindable unit");
            let rs = &rel_stars[ri];
            let keys = state.distinct_of(&on[0]);
            let batches = (keys / bind_batch as f64).ceil().max(1.0);
            // One request message per batch, plus the matched rows coming
            // back — all after the left side finished, hence sequential.
            let messages = batches + (out_rows / env.rows_per_message).ceil();
            next.net_seq_us += env.transfer_us(messages, out_rows);
            let indexed = bindable_column(stars, rs, &on[0]).is_some_and(|col| {
                lake.source(&rs.source_id)
                    .is_some_and(|s| s.has_index_on(&rs.tm.table, &col.name))
            });
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

/// The column `join_var` maps to on the unit's star, when bind-joining on
/// it is feasible at all: its `IN` list must select exactly the join terms.
fn bindable_column(stars: &[StarSubquery], rs: &RelStar, join_var: &Var) -> Option<StarColumn> {
    star_column(join_var, &stars[rs.star_idx], &rs.tm, &rs.schema)
        .filter(sql_equality_is_identity)
}

/// Whether SQL's `=` on `column` is the identity of the terms it lifts to,
/// as a bind join's `IN` list and Heuristic 1's `ON` need: not on DOUBLE,
/// where −0.0 = 0.0 holds of two terms and NaN = NaN fails of one (and no
/// literal carries a NaN or ±INF join term).
fn sql_equality_is_identity(column: &StarColumn) -> bool {
    column.lift != Lift::Literal(DataType::Double)
}

/// Cost-based replacement for the greedy ordering in `plan_conjunctive`:
/// prices every left-deep order (DP up to [`DP_UNIT_LIMIT`] units, greedy
/// beyond) with per-edge bind-vs-hash choice, rebuilds the chosen plan
/// through the same construction paths the heuristic planner uses, and
/// records what it did in `report`.
#[allow(clippy::too_many_arguments)]
fn order_units_by_cost(
    dec: &crate::decompose::Decomposition,
    lake: &DataLake,
    config: &PlanConfig,
    stats: &LakeStatistics,
    candidates: &[Vec<Candidate>],
    rel_stars: &[RelStar],
    units: Vec<(Vec<usize>, FedPlan, Option<usize>)>,
    unit_var_list: Vec<Vec<Var>>,
    report: &mut PlanReport,
) -> Result<FedPlan, FedError> {
    let env = CostEnv {
        cost: &config.cost,
        delay_us: config.network.delay.mean_ms() * 1_000.0,
        rows_per_message: config.rows_per_message.max(1) as f64,
        overlap: config.overlap,
    };
    let bind_batch = match config.engine_join {
        EngineJoin::Bind { batch_size } => batch_size,
        EngineJoin::SymmetricHash => DEFAULT_BIND_BATCH,
    };
    let mut cost_units: Vec<CostUnit> = Vec::with_capacity(units.len());
    for ((idxs, plan, bindable), vars) in units.into_iter().zip(unit_var_list) {
        let est_rows = plan.estimated_rows();
        let (fetch_cpu_us, fetch_io_us, fetch_net_us) = unit_fetch_cost(&plan, &env);
        let mut var_distinct = unit_var_distincts(&idxs, dec, candidates, stats, est_rows);
        // Every unit variable gets an NDV entry (fallback: the row
        // estimate), so the DP's shared-variable sets match the `on` keys
        // the rebuilt joins will actually use.
        for v in &vars {
            if !var_distinct.iter().any(|(w, _)| w == v) {
                var_distinct.push((v.clone(), est_rows.max(1.0)));
            }
        }
        cost_units.push(CostUnit {
            plan: Some(plan),
            bindable,
            vars,
            est_rows,
            fetch_cpu_us,
            fetch_io_us,
            fetch_net_us,
            var_distinct,
        });
    }

    let n = cost_units.len();
    if n == 1 {
        report.strategy = PlanStrategy::Dp;
        let mut only = cost_units.into_iter().next().expect("one unit");
        let state = DpState::of_unit(0, &only);
        report.estimated_cost = Some(state.federation_cost(env.overlap));
        return Ok(only.plan.take().expect("unit plan present"));
    }

    // Feasible (hash, bind) options for extending a state by unit `j`.
    let options = |state: &DpState, j: usize| -> (Vec<Var>, Vec<StepKind>) {
        let on: Vec<Var> = cost_units[j]
            .vars
            .iter()
            .filter(|v| state.var_distinct.iter().any(|(w, _)| w == *v))
            .cloned()
            .collect();
        let mut kinds = vec![StepKind::Hash];
        if on.len() == 1 {
            if let Some(ri) = cost_units[j].bindable {
                if bindable_column(&dec.stars, &rel_stars[ri], &on[0]).is_some() {
                    kinds.push(StepKind::Bind);
                }
            }
        }
        (on, kinds)
    };

    let mut plans_costed = 0u64;
    let best: DpState = if n <= DP_UNIT_LIMIT {
        report.strategy = PlanStrategy::Dp;
        let mut dp: Vec<Option<DpState>> = vec![None; 1 << n];
        for (i, u) in cost_units.iter().enumerate() {
            dp[1 << i] = Some(DpState::of_unit(i, u));
        }
        for mask in 1usize..(1 << n) {
            let Some(state) = dp[mask].clone() else { continue };
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let (on, kinds) = options(&state, j);
                for kind in kinds {
                    plans_costed += 1;
                    let next = apply_step(
                        &state,
                        j,
                        kind,
                        &cost_units[j],
                        &on,
                        &env,
                        &dec.stars,
                        rel_stars,
                        lake,
                        bind_batch,
                    );
                    let slot = &mut dp[mask | (1 << j)];
                    let better = slot.as_ref().is_none_or(|s| next.beats(s, env.overlap));
                    if better {
                        *slot = Some(next);
                    }
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
            let fi = DpState::of_unit(i, &cost_units[i]).total_us(env.overlap);
            let fb = DpState::of_unit(best, &cost_units[best]).total_us(env.overlap);
            if fi.total_cmp(&fb) == std::cmp::Ordering::Less {
                i
            } else {
                best
            }
        });
        let mut state = DpState::of_unit(first, &cost_units[first]);
        let mut used = vec![false; n];
        used[first] = true;
        for _ in 1..n {
            let mut pick: Option<DpState> = None;
            for j in 0..n {
                if used[j] {
                    continue;
                }
                let (on, kinds) = options(&state, j);
                for kind in kinds {
                    plans_costed += 1;
                    let next = apply_step(
                        &state,
                        j,
                        kind,
                        &cost_units[j],
                        &on,
                        &env,
                        &dec.stars,
                        rel_stars,
                        lake,
                        bind_batch,
                    );
                    let better = pick.as_ref().is_none_or(|p| next.beats(p, env.overlap));
                    if better {
                        pick = Some(next);
                    }
                }
            }
            state = pick.expect("some unit remains");
            used[state.steps.last().expect("step pushed").0] = true;
        }
        state
    };

    report.plans_costed += plans_costed;
    report.estimated_cost = Some(best.federation_cost(env.overlap));

    // Rebuild the chosen order through the same construction paths the
    // heuristic planner uses, so plan nodes stay byte-identical for a
    // given shape.
    let mut steps = best.steps.iter();
    let &(first, _) = steps.next().expect("at least one step");
    let mut plan = cost_units[first].plan.take().expect("unit plan present");
    let mut bound_vars = cost_units[first].vars.clone();
    for &(j, kind) in steps {
        let right_vars = cost_units[j].vars.clone();
        let on: Vec<Var> =
            right_vars.iter().filter(|v| bound_vars.contains(v)).cloned().collect();
        for v in right_vars {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        let right = cost_units[j].plan.take().expect("unit plan present");
        plan = match kind {
            StepKind::Bind if on.len() == 1 => {
                let ri = cost_units[j].bindable.expect("bind step requires bindable");
                match build_bind_join(
                    plan,
                    &dec.stars,
                    &rel_stars[ri],
                    &on[0],
                    bind_batch,
                    Some(stats),
                )? {
                    Ok(bound_plan) => {
                        report.bind_joins += 1;
                        bound_plan
                    }
                    Err(left) => FedPlan::Join {
                        left: Box::new(left),
                        right: Box::new(right),
                        on,
                    },
                }
            }
            _ => {
                FedPlan::Join { left: Box::new(plan), right: Box::new(right), on }
            }
        };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_mapping::{DatasetMapping, IriTemplate};
    use fedlake_netsim::NetworkProfile;
    use fedlake_relational::Database;
    use fedlake_sparql::parser::parse_query;

    /// Under the naive translation a pair Heuristic 1 merges is the N+1
    /// dependent join it stands for: the first star as one SQL service, the
    /// second re-asked per binding — a bind join of batch 1 on the merge
    /// column, with the key template that column's IRIs are minted by.
    #[test]
    fn a_naive_merge_plans_as_a_bind_join_of_batch_one() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)").unwrap();
        db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
        db.execute("INSERT INTO gene VALUES ('g0', 'gene 0', 'd0')").unwrap();
        db.execute("INSERT INTO disease VALUES ('d0', 'asthma')").unwrap();
        db.execute("CREATE INDEX idx_gene_disease ON gene (disease)").unwrap();
        let (gene_iri, disease_iri) =
            (IriTemplate::new("http://d/gene/{}"), IriTemplate::new("http://d/disease/{}"));
        let mapping = DatasetMapping::new("d")
            .with_table(
                TableMapping::new("gene", "http://v/Gene", gene_iri, "id")
                    .with_literal("label", "http://v/label")
                    .with_reference("disease", "http://v/disease", disease_iri.clone()),
            )
            .with_table(
                TableMapping::new("disease", "http://v/Disease", disease_iri.clone(), "id")
                    .with_literal("name", "http://v/name"),
            );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::relational("d", db, mapping));
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
}
