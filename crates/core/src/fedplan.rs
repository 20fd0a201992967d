//! Federated query execution plans.
//!
//! A [`FedPlan`] is the tree the paper's Figure 1 depicts: `Service` leaves
//! (one request to one source, possibly carrying a pushed-down join or
//! filter) combined by engine-level operators (symmetric hash joins,
//! filters, union). The difference between the physical-design-unaware and
//! -aware plans is entirely in how much work sits in the leaves versus the
//! engine operators.

use crate::decompose::StarSubquery;
use crate::translate::TranslatedQuery;
use fedlake_sparql::binding::Var;
use fedlake_sparql::expr::Expr;

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
    /// The SQL text.
    pub fn sql(&self) -> &str {
        match self {
            SqlRequest::Single(q) | SqlRequest::MergedOptimized(q) => &q.sql,
        }
    }

    /// True for the merged form (Heuristic 1 applied).
    pub fn is_merged(&self) -> bool {
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
    pub fn primary(&self) -> &str {
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
    /// Number of service leaves (= requests sent to sources).
    pub fn service_count(&self) -> usize {
        match self {
            FedPlan::Service(_) => 1,
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                left.service_count() + right.service_count()
            }
            FedPlan::BindJoin { left, .. } => left.service_count() + 1,
            FedPlan::Filter { input, .. } => input.service_count(),
            FedPlan::Union(branches) => branches.iter().map(FedPlan::service_count).sum(),
        }
    }

    /// Number of *independent* service fetches — those an overlapped
    /// schedule can run concurrently. The right side of a bind join is
    /// excluded: its requests depend on the left input's rows, so the
    /// fetch is inherently sequential.
    pub fn independent_service_count(&self) -> usize {
        match self {
            FedPlan::Service(_) => 1,
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                left.independent_service_count() + right.independent_service_count()
            }
            FedPlan::BindJoin { left, .. } => left.independent_service_count(),
            FedPlan::Filter { input, .. } => input.independent_service_count(),
            FedPlan::Union(branches) => {
                branches.iter().map(FedPlan::independent_service_count).sum()
            }
        }
    }

    /// Number of engine-level operators (joins + filters + unions) — the
    /// quantity Figure 1 contrasts between the two plan types.
    pub fn engine_operator_count(&self) -> usize {
        match self {
            FedPlan::Service(_) => 0,
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                1 + left.engine_operator_count() + right.engine_operator_count()
            }
            FedPlan::BindJoin { left, .. } => 1 + left.engine_operator_count(),
            FedPlan::Filter { input, .. } => 1 + input.engine_operator_count(),
            FedPlan::Union(branches) => {
                1 + branches.iter().map(FedPlan::engine_operator_count).sum::<usize>()
            }
        }
    }

    /// Number of services whose request pushes a join down (Heuristic 1).
    pub fn merged_service_count(&self) -> usize {
        match self {
            FedPlan::Service(s) => match &s.kind {
                ServiceKind::Sql { request, .. } if request.is_merged() => 1,
                _ => 0,
            },
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                left.merged_service_count() + right.merged_service_count()
            }
            FedPlan::BindJoin { left, .. } => left.merged_service_count(),
            FedPlan::Filter { input, .. } => input.merged_service_count(),
            FedPlan::Union(branches) => {
                branches.iter().map(FedPlan::merged_service_count).sum()
            }
        }
    }

    /// Estimated output cardinality (used for join ordering).
    pub fn estimated_rows(&self) -> f64 {
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
        FedPlan::Service(ServiceNode {
            source_id: "s".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT 1".into(),
                    outputs: Vec::new(),
                }),
                covers: vec!["?x".into()],
            },
            estimated_rows: est,
        })
    }

    #[test]
    fn counting() {
        let plan = FedPlan::Filter {
            input: Box::new(FedPlan::Join {
                left: Box::new(service(10.0)),
                right: Box::new(service(5.0)),
                on: vec![Var::new("x")],
            }),
            exprs: Vec::new(),
        };
        assert_eq!(plan.service_count(), 2);
        assert_eq!(plan.engine_operator_count(), 2);
        assert_eq!(plan.merged_service_count(), 0);
        assert_eq!(plan.estimated_rows(), 2.5);
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
        });
        assert_eq!(merged.merged_service_count(), 1);
        assert_eq!(merged.engine_operator_count(), 0);
    }
}
