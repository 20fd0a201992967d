//! Human-readable rendering of federated plans — the textual counterpart
//! of the paper's Figure 1 plan diagrams.

use crate::fedplan::{FedPlan, ServiceKind, ServiceNode, SqlRequest};

/// Renders a federated plan as an indented tree, one operator per line,
/// with a summary header of the quantities Figure 1 contrasts.
pub fn explain_plan(plan: &FedPlan) -> String {
    let mut out = format!(
        "# services: {}, engine operators: {}, pushed-down joins: {}\n",
        plan.service_count(),
        plan.engine_operator_count(),
        plan.merged_service_count()
    );
    plan.visit(0, &mut |node, depth| {
        indent(&mut out, depth);
        out.push_str(&node_line(node));
        out.push('\n');
        if let FedPlan::Service(ServiceNode { kind: ServiceKind::Sql { request, .. }, .. }) = node {
            indent(&mut out, depth + 1);
            out.push_str(&format!("query: {}\n", request.sql()));
        }
    });
    out
}

pub(crate) fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// The one-line description of a plan node (no children, no trailing
/// newline) — shared by the static tree above and by
/// [`crate::obs::explain_analyze`], so the analyzed tree annotates exactly
/// the lines the plain EXPLAIN shows.
pub(crate) fn node_line(plan: &FedPlan) -> String {
    match plan {
        FedPlan::Service(s) => {
            let line = match &s.kind {
                ServiceKind::Sparql { star, filters } => format!(
                    "Service[{}] SPARQL star {} ({} patterns, {} filters)",
                    s.source_id,
                    star.subject,
                    star.triples.len(),
                    filters.len()
                ),
                ServiceKind::Sql { request, covers } => {
                    let kind = match request {
                        SqlRequest::Single(_) => "SQL",
                        SqlRequest::MergedOptimized(_) => "SQL merged(optimized)",
                    };
                    format!("Service[{}] {kind} covering {}", s.source_id, covers.join(", "))
                }
            };
            match &s.route {
                Some(r) => format!("{line} via {} [{}]", r.primary(), r.reason),
                None => line,
            }
        }
        FedPlan::Join { on, .. } => {
            let vars: Vec<String> = on.iter().map(|v| v.to_string()).collect();
            if vars.is_empty() {
                "SymmetricHashJoin (cartesian)".to_string()
            } else {
                format!("SymmetricHashJoin on {}", vars.join(", "))
            }
        }
        FedPlan::Filter { exprs, .. } => {
            let fs: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
            format!("EngineFilter: {}", fs.join(" && "))
        }
        FedPlan::Union(_) => "Union".to_string(),
        FedPlan::BindJoin { right, batch_size, .. } => {
            let line = format!(
                "BindJoin on {} -> Service[{}] column {} (batches of {})",
                right.join_var, right.source_id, right.column.name, batch_size
            );
            match &right.route {
                Some(r) => format!("{line} via {} [{}]", r.primary(), r.reason),
                None => line,
            }
        }
        FedPlan::LeftJoin { on, .. } => {
            let vars: Vec<String> = on.iter().map(|v| v.to_string()).collect();
            format!("LeftJoin (OPTIONAL) on {}", vars.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::TranslatedQuery;

    #[test]
    fn explain_contains_summary_and_sql() {
        let plan = FedPlan::Service(ServiceNode {
            source_id: "diseasome".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT g.id AS g_id FROM gene g".into(),
                    outputs: Vec::new(),
                }),
                covers: vec!["?g".into()],
            },
            estimated_rows: 10.0,
            lift: Default::default(),
        });
        let text = explain_plan(&plan);
        assert!(text.contains("# services: 1, engine operators: 0"));
        assert!(text.contains("Service[diseasome] SQL covering ?g"));
        assert!(text.contains("SELECT g.id AS g_id FROM gene g"));
    }

    #[test]
    fn explain_shows_the_routed_replica_and_reason() {
        let plan = FedPlan::Service(ServiceNode {
            source_id: "diseasome".into(),
            route: Some(crate::fedplan::ReplicaRoute {
                endpoints: vec!["diseasome#r1".into(), "diseasome#r0".into()],
                reason: "healthiest first (failures: diseasome#r1=0, diseasome#r0=6)".into(),
            }),
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT g.id AS g_id FROM gene g".into(),
                    outputs: Vec::new(),
                }),
                covers: vec!["?g".into()],
            },
            estimated_rows: 10.0,
            lift: Default::default(),
        });
        let text = explain_plan(&plan);
        assert!(text.contains(
            "Service[diseasome] SQL covering ?g via diseasome#r1 \
             [healthiest first (failures: diseasome#r1=0, diseasome#r0=6)]"
        ));
    }
}
