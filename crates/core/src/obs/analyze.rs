//! `EXPLAIN ANALYZE`: the static plan tree annotated with what actually
//! happened — per-operator row counts and simulated emit times, plus the
//! link traffic, retries and faults of every source the node talked to.
//!
//! The node order here is the contract between the recorder and the
//! executor: [`plan_nodes`] is [`FedPlan::visit`]'s order (node before
//! inputs, inputs left to right, a bind join's target part of its node),
//! and `build_operator` assigns span node ids by incrementing a counter in
//! exactly the same order, so node `i` in the report is line `i` of the
//! analyzed tree.

use crate::explain::{indent, node_line};
use crate::fedplan::FedPlan;
use crate::obs::span::{NodeReport, TraceReport};
use std::time::Duration;

/// The plan's node table in [`FedPlan::visit`] order (the node-id order),
/// actuals at zero.
pub fn plan_nodes(plan: &FedPlan) -> Vec<NodeReport> {
    let mut nodes = Vec::new();
    plan.visit(0, &mut |node, depth| {
        let source = match node {
            FedPlan::Service(s) => Some(s.source_id.clone()),
            FedPlan::BindJoin { right, .. } => Some(right.source_id.clone()),
            _ => None,
        };
        nodes.push(NodeReport {
            depth,
            label: node_line(node),
            source,
            service: matches!(node, FedPlan::Service(_)),
            estimated: node.estimated_rows(),
            rows_out: 0,
            first: None,
            done: None,
        });
    });
    nodes
}

/// Milliseconds with fixed precision; deterministic for equal durations.
pub(crate) fn fmt_ms(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

fn fmt_opt(t: Option<Duration>) -> String {
    t.map_or_else(|| "-".to_string(), fmt_ms)
}

/// The q-error of an estimate against the actual row count: the factor
/// (≥ 1) by which the estimate was off, in either direction. Actuals are
/// floored at one row so an operator that emitted nothing still gets a
/// finite error.
pub(crate) fn q_error(estimated: f64, actual: u64) -> f64 {
    let est = estimated.max(1.0);
    let act = (actual as f64).max(1.0);
    (est / act).max(act / est)
}

/// Renders the analyzed plan tree of a traced execution.
pub fn explain_analyze(report: &TraceReport) -> String {
    let mut out = format!(
        "# EXPLAIN ANALYZE ({}, {}): answers={}, exec={}, messages={}, rows transferred={}, retries={}\n",
        report.plan_label,
        report.network,
        report.answers_total,
        fmt_ms(report.total_time),
        report.messages,
        report.rows_transferred,
        report.retries,
    );
    for node in &report.nodes {
        indent(&mut out, node.depth);
        out.push_str(&format!(
            "{}  [rows={} est={:.0} err=x{:.1} first={} done={}]\n",
            node.label,
            node.rows_out,
            node.estimated.max(1.0),
            q_error(node.estimated, node.rows_out),
            fmt_opt(node.first),
            fmt_opt(node.done),
        ));
        if let Some(source) = &node.source {
            if let Some(s) = report.sources.get(source) {
                indent(&mut out, node.depth + 1);
                out.push_str(&format!(
                    "link[{source}]: {} msgs, {} rows, delay={}, retries={}, faults={}\n",
                    s.link.messages,
                    s.link.rows,
                    fmt_ms(s.link.delay),
                    s.retries,
                    s.link.faults(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedplan::{ServiceKind, ServiceNode, SqlRequest};
    use crate::translate::TranslatedQuery;
    use fedlake_sparql::binding::Var;

    fn service(id: &str) -> FedPlan {
        FedPlan::Service(ServiceNode {
            source_id: id.into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: format!("SELECT * FROM {id}"),
                    outputs: Vec::new(),
                }),
                covers: vec!["?x".into()],
            },
            estimated_rows: 1.0,
            lift: Default::default(),
        })
    }

    #[test]
    fn plan_nodes_are_preorder_with_sources() {
        let plan = FedPlan::Join {
            left: Box::new(service("a")),
            right: Box::new(FedPlan::Filter {
                input: Box::new(service("b")),
                exprs: Vec::new(),
                keys: Box::default(),
            }),
            on: vec![Var::new("x")],
        };
        let nodes = plan_nodes(&plan);
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[0].depth, 0);
        assert!(nodes[0].label.starts_with("SymmetricHashJoin"));
        assert_eq!(nodes[1].source.as_deref(), Some("a"));
        assert_eq!(nodes[2].depth, 1, "filter sits under the join");
        assert_eq!(nodes[3].source.as_deref(), Some("b"));
        assert_eq!(nodes[3].depth, 2);
    }

    #[test]
    fn fmt_helpers_are_stable() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.500ms");
        assert_eq!(fmt_opt(None), "-");
    }
}
