//! Federated query execution plans.
//!
//! A [`FedPlan`] is the tree the paper's Figure 1 depicts: `Service` leaves
//! (one request to one source, possibly carrying a pushed-down join or
//! filter) combined by engine-level operators (symmetric hash joins,
//! filters, union). The difference between the physical-design-unaware and
//! -aware plans is entirely in how much work sits in the leaves versus the
//! engine operators.

use crate::decompose::StarSubquery;
use crate::planner::{LiftPlan, VerdictKey};
use crate::translate::TranslatedQuery;
use fedlake_sparql::binding::Var;
use fedlake_sparql::expr::Expr;
use std::sync::Arc;

/// The request a SQL wrapper sends to a relational source. Heuristic 1
/// with Ontario's unoptimized translation is no request of its own: the
/// planner lowers it to a bind join of batch 1 ([`FedPlan::BindJoin`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlRequest {
    /// One star, one `SELECT`.
    Single(TranslatedQuery),
    /// Heuristic 1 with optimized translation: one flat join `SELECT`.
    MergedOptimized(TranslatedQuery),
}

impl SqlRequest {
    /// The translated query.
    pub(crate) fn query(&self) -> &TranslatedQuery {
        match self {
            SqlRequest::Single(q) | SqlRequest::MergedOptimized(q) => q,
        }
    }

    /// The SQL text.
    pub fn sql(&self) -> &str {
        &self.query().sql
    }

    /// True for the merged form (Heuristic 1 applied).
    pub(crate) fn is_merged(&self) -> bool {
        !matches!(self, SqlRequest::Single(_))
    }
}

/// A service leaf: one request to one source.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceKind {
    /// SPARQL endpoint: evaluate the star (with its filters) natively.
    Sparql {
        /// The star to evaluate.
        star: StarSubquery,
        /// Filters evaluated at the endpoint.
        filters: Vec<Expr>,
    },
    /// Relational endpoint: send translated SQL through the wrapper.
    Sql {
        /// The request.
        request: SqlRequest,
        /// Subjects covered (for explain output).
        covers: Vec<String>,
    },
}

/// The planner's routing decision for a replicated source: the replica
/// endpoints to use, preferred (healthiest) first, with the reason the
/// order was chosen. Decided once at plan time from the session's health
/// snapshot, so any re-execution of the same plan contacts replicas in
/// exactly the same order. `None` on an unreplicated source: the service
/// talks to the plain source id as before.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRoute {
    /// Replica endpoint ids, preferred first; later entries are the
    /// failover order when an earlier replica exhausts its retry budget.
    pub endpoints: Vec<String>,
    /// Human-readable routing rationale (shown by EXPLAIN).
    pub reason: String,
}

impl ReplicaRoute {
    /// The endpoint the service contacts first.
    pub(crate) fn primary(&self) -> &str {
        &self.endpoints[0]
    }
}

/// The right side of an engine-level bind join: a relational star whose
/// SQL is re-issued per batch of left bindings with an `IN` list on the
/// join column (ANAPSID's dependent-join lineage).
#[derive(Debug, Clone, PartialEq)]
pub struct BindTarget {
    /// Target source.
    pub source_id: String,
    /// Replica routing decision (`None` = unreplicated).
    pub route: Option<ReplicaRoute>,
    /// The star's reusable SQL fragments (without the IN restriction).
    pub part: crate::translate::StarPart,
    /// The shared variable whose left-side bindings are shipped.
    pub join_var: Var,
    /// The column the bindings restrict, and what it stores: each join
    /// term is asked about as the value whose lift it is.
    pub column: crate::translate::StarColumn,
    /// For explain output.
    pub covers: String,
    /// Optimizer's cardinality estimate of the unrestricted star.
    pub estimated_rows: f64,
    /// What the plan reads of the target's answers, set by the planner's
    /// lowering walk (the default lifts every cell). Shared, so a cached
    /// plan's clone copies no lift plan.
    pub lift: Arc<LiftPlan>,
    /// The verdict-memo key of `column`'s verdicts on join terms (whether
    /// it stores a value lifting to the term), set by the planner's
    /// lowering walk: `None` decides them for one operator alone.
    pub verdict_key: Option<VerdictKey>,
}

/// A leaf of the federated plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceNode {
    /// Target source.
    pub source_id: String,
    /// Replica routing decision (`None` = unreplicated).
    pub route: Option<ReplicaRoute>,
    /// The request.
    pub kind: ServiceKind,
    /// Optimizer's cardinality estimate (drives join ordering).
    pub estimated_rows: f64,
    /// What the plan reads of a SQL leaf's answers, set by the planner's
    /// lowering walk (the default lifts every cell). Shared, so a cached
    /// plan's clone copies no lift plan.
    pub lift: Arc<LiftPlan>,
}

/// A federated execution plan.
// Plans are built once per query, a handful of nodes each; the size skew of
// the leaf variants is irrelevant next to indirection on every match.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum FedPlan {
    /// A source request.
    Service(ServiceNode),
    /// Engine-level symmetric hash join (ANAPSID's adaptive join) on the
    /// shared variables.
    Join {
        /// Left input.
        left: Box<FedPlan>,
        /// Right input.
        right: Box<FedPlan>,
        /// Join variables (empty = cartesian).
        on: Vec<Var>,
    },
    /// Engine-level filter (instantiations kept at the engine by
    /// Heuristic 2, plus all cross-star filters).
    Filter {
        /// Input plan.
        input: Box<FedPlan>,
        /// Conjunctive expressions.
        exprs: Vec<Expr>,
        /// The verdict-memo key of each conjunct, set by the planner's
        /// lowering walk: `None` for a conjunct that reads no slot or two.
        keys: Box<[Option<VerdictKey>]>,
    },
    /// Union of alternative services for the same star.
    Union(Vec<FedPlan>),
    /// Engine-level streaming left join (from `OPTIONAL`): left rows
    /// without a compatible right row pass through unextended.
    LeftJoin {
        /// Required input.
        left: Box<FedPlan>,
        /// Optional input.
        right: Box<FedPlan>,
        /// Join variables.
        on: Vec<Var>,
    },
    /// Engine-level dependent (bind) join: left bindings are shipped to
    /// the right source in batches as SQL `IN` lists instead of fetching
    /// the right star in full.
    BindJoin {
        /// Left input.
        left: Box<FedPlan>,
        /// The parameterized right star.
        right: BindTarget,
        /// Left rows per shipped batch.
        batch_size: usize,
    },
}

impl FedPlan {
    /// Calls `f` on this node and every node below it, with its depth
    /// (this node's is `depth`): pre-order, a node before its inputs, the
    /// inputs left to right. A bind join's target is part of its node, not
    /// an input. The one walk every traversal of a plan folds over; the
    /// executor numbers operators in the same order.
    pub fn visit<'a>(&'a self, depth: usize, f: &mut impl FnMut(&'a FedPlan, usize)) {
        f(self, depth);
        match self {
            FedPlan::Service(_) => {}
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                left.visit(depth + 1, f);
                right.visit(depth + 1, f);
            }
            FedPlan::BindJoin { left, .. } => left.visit(depth + 1, f),
            FedPlan::Filter { input, .. } => input.visit(depth + 1, f),
            FedPlan::Union(branches) => branches.iter().for_each(|b| b.visit(depth + 1, f)),
        }
    }

    /// The nodes `counts` says yes to.
    fn count(&self, counts: impl Fn(&FedPlan) -> bool) -> usize {
        let mut n = 0;
        self.visit(0, &mut |node, _| n += usize::from(counts(node)));
        n
    }

    /// Number of service leaves (= requests sent to sources), bind-join
    /// targets included.
    pub fn service_count(&self) -> usize {
        self.count(|node| matches!(node, FedPlan::Service(_) | FedPlan::BindJoin { .. }))
    }

    /// Number of *independent* service fetches — those an overlapped
    /// schedule can run concurrently. The right side of a bind join is
    /// excluded: its requests depend on the left input's rows, so the
    /// fetch is inherently sequential.
    pub fn independent_service_count(&self) -> usize {
        self.count(|node| matches!(node, FedPlan::Service(_)))
    }

    /// Number of engine-level operators (joins + filters + unions) — the
    /// quantity Figure 1 contrasts between the two plan types.
    pub(crate) fn engine_operator_count(&self) -> usize {
        self.count(|node| !matches!(node, FedPlan::Service(_)))
    }

    /// Number of services whose request pushes a join down (Heuristic 1).
    pub(crate) fn merged_service_count(&self) -> usize {
        self.count(|node| {
            matches!(node, FedPlan::Service(s)
                if matches!(&s.kind, ServiceKind::Sql { request, .. } if request.is_merged()))
        })
    }

    /// Estimated output cardinality (used for join ordering).
    pub(crate) fn estimated_rows(&self) -> f64 {
        match self {
            FedPlan::Service(s) => s.estimated_rows,
            FedPlan::Join { left, right, .. } => {
                // Containment-style guess: the smaller side bounds the join.
                left.estimated_rows().min(right.estimated_rows()).max(1.0)
            }
            FedPlan::Filter { input, .. } => (input.estimated_rows() * 0.5).max(1.0),
            FedPlan::Union(branches) => branches.iter().map(FedPlan::estimated_rows).sum(),
            // A left join preserves at least every left row.
            FedPlan::LeftJoin { left, .. } => left.estimated_rows(),
            FedPlan::BindJoin { left, .. } => left.estimated_rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(est: f64) -> FedPlan {
        named_service("s", est)
    }

    fn named_service(id: &str, est: f64) -> FedPlan {
        FedPlan::Service(ServiceNode {
            source_id: id.into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT 1".into(),
                    outputs: Vec::new(),
                }),
                covers: vec!["?x".into()],
            },
            estimated_rows: est,
            lift: Arc::default(),
        })
    }

    fn filter(input: FedPlan) -> FedPlan {
        FedPlan::Filter { input: Box::new(input), exprs: Vec::new(), keys: Box::default() }
    }

    fn join(left: FedPlan, right: FedPlan) -> FedPlan {
        FedPlan::Join { left: Box::new(left), right: Box::new(right), on: vec![Var::new("x")] }
    }

    fn bind_join(left: FedPlan, target: &str) -> FedPlan {
        use crate::translate::{Lift, StarColumn, StarPart};
        let right = BindTarget {
            source_id: target.into(),
            route: None,
            part: StarPart {
                table: "t".into(),
                alias: "s0".into(),
                select: Vec::new(),
                wheres: Vec::new(),
                outputs: Vec::new(),
                distinct: false,
            },
            join_var: Var::new("x"),
            column: StarColumn {
                name: "id".into(),
                lift: Lift::Literal(fedlake_relational::DataType::Int),
            },
            covers: "?x".into(),
            estimated_rows: 1.0,
            lift: Arc::default(),
            verdict_key: None,
        };
        FedPlan::BindJoin { left: Box::new(left), right, batch_size: 2 }
    }

    /// A node's kind, and its source when it is a leaf.
    fn describe(node: &FedPlan) -> String {
        match node {
            FedPlan::Service(s) => format!("Service[{}]", s.source_id),
            FedPlan::Join { .. } => "Join".into(),
            FedPlan::LeftJoin { .. } => "LeftJoin".into(),
            FedPlan::Filter { .. } => "Filter".into(),
            FedPlan::Union(_) => "Union".into(),
            FedPlan::BindJoin { right, .. } => format!("BindJoin[{}]", right.source_id),
        }
    }

    #[test]
    fn counting() {
        let plan = filter(join(service(10.0), service(5.0)));
        assert_eq!(plan.service_count(), 2);
        assert_eq!(plan.engine_operator_count(), 2);
        assert_eq!(plan.merged_service_count(), 0);
        assert_eq!(plan.estimated_rows(), 2.5);

        // A bind join under a union: its target is part of its node.
        let plan = FedPlan::Union(vec![
            bind_join(named_service("a", 1.0), "t"),
            filter(join(named_service("b", 1.0), named_service("c", 1.0))),
        ]);
        let mut visited = Vec::new();
        plan.visit(0, &mut |node, depth| visited.push((describe(node), depth)));
        let want = [
            ("Union", 0),
            ("BindJoin[t]", 1),
            ("Service[a]", 2),
            ("Filter", 1),
            ("Join", 2),
            ("Service[b]", 3),
            ("Service[c]", 3),
        ];
        let want: Vec<(String, usize)> = want.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        assert_eq!(visited, want, "pre-order, node before inputs, inputs left to right");
        assert!(
            visited.iter().all(|(n, _)| n != "Service[t]"),
            "the bind target is not visited as an input"
        );
        assert_eq!(plan.service_count(), 4, "a, b, c and the bind target t");
        assert_eq!(plan.independent_service_count(), 3, "the bind target depends on its left");
        assert_eq!(plan.engine_operator_count(), 4, "union, bind join, filter, join");
        assert_eq!(plan.merged_service_count(), 0);
    }

    #[test]
    fn merged_detection() {
        let merged = FedPlan::Service(ServiceNode {
            source_id: "s".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::MergedOptimized(TranslatedQuery {
                    sql: "SELECT 1".into(),
                    outputs: Vec::new(),
                }),
                covers: vec!["?a".into(), "?b".into()],
            },
            estimated_rows: 1.0,
            lift: Arc::default(),
        });
        assert_eq!(merged.merged_service_count(), 1);
        assert_eq!(merged.engine_operator_count(), 0);
    }
}
