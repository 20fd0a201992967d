//! Fingerprints: stable 64-bit FNV-1a identities built from term text,
//! never interner ids.
//!
//! * [`plan_fingerprint`] folds a [`FedPlan`] into one S-expression (its
//!   grammar is in DESIGN §17) and hashes it. Adjacent joins are one n-ary
//!   `join` over their merged, sorted variables and adjacent unions one
//!   `union`, each with its operands sorted by text, so commuted or
//!   re-associated joins and unions share a fingerprint; a left join, a bind
//!   join and a filter keep their order. The text leaves out what the
//!   planner's lowering walk sets (routes, lift plans, verdict keys). The
//!   fingerprint labels a plan in EXPLAIN and the flight recorder.
//! * [`query_fingerprint`] and `config_fingerprint` are the plan cache's
//!   key: the SPARQL AST and the planner configuration, each folded as
//!   written, so any textual difference is a different key and the cache
//!   never returns a plan for a query it was not built from. The query's
//!   text is streamed into the hash, never built as a string; the engine
//!   folds its configuration once, when it is set.

use crate::config::PlanConfig;
use crate::fedplan::{FedPlan, ServiceKind};
use fedlake_sparql::ast::{GroupGraphPattern, Order, PatternElement, SelectQuery};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a 64-bit folder — the deterministic, dependency-free
/// hash used for every fingerprint in this module and the plan cache.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh folder at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold raw bytes.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold a string (its UTF-8 bytes plus a separator so that
    /// `"ab","c"` and `"a","bc"` fold differently).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_bytes(s.as_bytes());
        self.push_bytes(&[0xff]);
        self
    }

    /// Fold a value's `Display` text plus the separator: the bytes
    /// `push_str(&value.to_string())` folds, streamed without the string.
    pub(crate) fn push_display(&mut self, value: &impl std::fmt::Display) -> &mut Self {
        use std::fmt::Write;
        // Folding bytes cannot fail, and a `Display` that reports an error
        // would have made `to_string` panic instead.
        let _ = write!(self, "{value}");
        self.push_bytes(&[0xff])
    }

    /// Fold a 64-bit value (little-endian bytes).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// The folded hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds text written into it, without a separator.
impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push_bytes(s.as_bytes());
        Ok(())
    }
}

/// Stable 64-bit fingerprint of a plan: FNV-1a over its text (see the
/// module doc). Routes, lift plans and verdict keys are not part of the
/// text, so a plan fingerprints the same before and after lowering.
pub fn plan_fingerprint(plan: &FedPlan) -> u64 {
    Fnv64::new().push_str(&plan_text(plan)).finish()
}

/// The plan's text, as an S-expression over term text only.
fn plan_text(plan: &FedPlan) -> String {
    let mut out = String::new();
    write_plan(plan, &mut out);
    out
}

fn write_plan(plan: &FedPlan, out: &mut String) {
    use std::fmt::Write;
    match plan {
        FedPlan::Service(s) => match &s.kind {
            ServiceKind::Sparql { star, filters } => {
                let _ = write!(out, "(bgp-req {}", s.source_id);
                for t in &star.triples {
                    let _ = write!(out, " {:?}", t.to_string());
                }
                for f in filters {
                    let _ = write!(out, " (filter {:?})", f.to_string());
                }
                out.push(')');
            }
            ServiceKind::Sql { request, .. } => {
                let form = if request.is_merged() { "merged" } else { "single" };
                let sql = format!("{form}:{}", request.sql());
                let _ = write!(out, "(req {} {sql:?})", s.source_id);
            }
        },
        FedPlan::Join { .. } => {
            let (mut on, mut operands) = (Vec::new(), Vec::new());
            join_operands(plan, &mut on, &mut operands);
            on.sort_unstable();
            on.dedup();
            let _ = write!(out, "(join [{}]", on.join(","));
            write_sorted(operands, out);
        }
        FedPlan::Union(_) => {
            let mut operands = Vec::new();
            union_operands(plan, &mut operands);
            out.push_str("(union");
            write_sorted(operands, out);
        }
        FedPlan::LeftJoin { left, right, on } => {
            let on: Vec<String> = on.iter().map(|v| v.to_string()).collect();
            let _ = write!(out, "(leftjoin [{}] ", on.join(","));
            write_plan(left, out);
            out.push(' ');
            write_plan(right, out);
            out.push(')');
        }
        FedPlan::BindJoin { left, right, batch_size } => {
            let req = format!(
                "{}[{}] batch:{batch_size}",
                right.part.table,
                right.part.wheres.join(" AND ")
            );
            let _ = write!(
                out,
                "(bind {} {req:?} [{}={}] ",
                right.source_id, right.join_var, right.column.name
            );
            write_plan(left, out);
            out.push(')');
        }
        FedPlan::Filter { input, exprs, .. } => {
            out.push_str("(filter");
            for e in exprs {
                let _ = write!(out, " {:?}", e.to_string());
            }
            out.push(' ');
            write_plan(input, out);
            out.push(')');
        }
    }
}

/// The operands of the run of adjacent joins at `plan`, as text, and the
/// run's join variables: joins commute and associate, so the run is one
/// n-ary join.
fn join_operands(plan: &FedPlan, on: &mut Vec<String>, operands: &mut Vec<String>) {
    match plan {
        FedPlan::Join { left, right, on: vars } => {
            on.extend(vars.iter().map(|v| v.to_string()));
            join_operands(left, on, operands);
            join_operands(right, on, operands);
        }
        other => operands.push(plan_text(other)),
    }
}

/// The operands of the run of adjacent unions at `plan`, as text.
fn union_operands(plan: &FedPlan, operands: &mut Vec<String>) {
    match plan {
        FedPlan::Union(branches) => branches.iter().for_each(|b| union_operands(b, operands)),
        other => operands.push(plan_text(other)),
    }
}

/// Writes commutative operands in sorted order, then closes the node.
fn write_sorted(mut operands: Vec<String>, out: &mut String) {
    operands.sort_unstable();
    for operand in operands {
        out.push(' ');
        out.push_str(&operand);
    }
    out.push(')');
}

/// Canonical fingerprint of a SPARQL query AST — the lookup key the plan
/// cache computes *without* planning. Order-preserving (no commutative
/// sorting): identical ASTs always collide, different ASTs practically
/// never do, and a conservative key can only cause misses, never wrong
/// hits.
pub fn query_fingerprint(query: &SelectQuery) -> u64 {
    let mut h = Fnv64::new();
    h.push_str("select");
    for v in &query.projection {
        h.push_display(v);
    }
    h.push_str(if query.distinct { "distinct" } else { "all" });
    fold_pattern(&mut h, &query.pattern);
    for key in &query.order_by {
        h.push_display(&key.var);
        h.push_str(match key.order {
            Order::Asc => "asc",
            Order::Desc => "desc",
        });
    }
    h.push_u64(query.limit.map_or(u64::MAX, |l| l as u64));
    h.push_u64(query.offset.map_or(u64::MAX, |o| o as u64));
    h.finish()
}

fn fold_pattern(h: &mut Fnv64, pattern: &GroupGraphPattern) {
    h.push_str("{");
    for el in &pattern.elements {
        match el {
            PatternElement::Triple(t) => {
                h.push_str("t").push_display(t);
            }
            PatternElement::Filter(e) => {
                h.push_str("f").push_display(e);
            }
            PatternElement::Optional(g) => {
                h.push_str("opt");
                fold_pattern(h, g);
            }
            PatternElement::Union(branches) => {
                h.push_str("union");
                for g in branches {
                    fold_pattern(h, g);
                }
            }
            PatternElement::Group(g) => {
                h.push_str("group");
                fold_pattern(h, g);
            }
        }
    }
    h.push_str("}");
}

/// Fingerprint of every configuration field that can influence a plan.
/// Hashes the full `Debug` rendering: over-approximating (fields that
/// cannot affect planning still separate entries) is safe — it only
/// splits cache lines, never shares a plan across configs that would
/// plan differently.
pub(crate) fn config_fingerprint(config: &PlanConfig) -> u64 {
    Fnv64::new().push_str(&format!("{config:?}")).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedplan::{BindTarget, ServiceNode, SqlRequest};
    use crate::translate::{Lift, StarColumn, StarPart, TranslatedQuery};
    use fedlake_relational::DataType;
    use fedlake_sparql::binding::Var;
    use fedlake_sparql::parser::parse_query;

    fn req(source: &str, sql: &str) -> FedPlan {
        FedPlan::Service(ServiceNode {
            source_id: source.into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: sql.into(),
                    outputs: Vec::new(),
                }),
                covers: Vec::new(),
            },
            estimated_rows: 10.0,
            lift: Default::default(),
        })
    }

    fn join(left: FedPlan, right: FedPlan, on: &str) -> FedPlan {
        FedPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            on: vec![Var::new(on)],
        }
    }

    fn left_join(left: FedPlan, right: FedPlan) -> FedPlan {
        FedPlan::LeftJoin { left: Box::new(left), right: Box::new(right), on: vec![Var::new("x")] }
    }

    fn bind_join(left: FedPlan) -> FedPlan {
        let right = BindTarget {
            source_id: "t".into(),
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
            column: StarColumn { name: "id".into(), lift: Lift::Literal(DataType::Int) },
            covers: "?x".into(),
            estimated_rows: 1.0,
            lift: Default::default(),
            verdict_key: None,
        };
        FedPlan::BindJoin { left: Box::new(left), right, batch_size: 2 }
    }

    #[test]
    fn commuted_joins_share_a_fingerprint() {
        let (a, b) = (|| req("a", "SELECT 1"), || req("b", "SELECT 2"));
        let ab = plan_fingerprint(&join(a(), b(), "x"));
        assert_eq!(ab, plan_fingerprint(&join(b(), a(), "x")), "joins commute");
        let union = plan_fingerprint(&FedPlan::Union(vec![a(), b()]));
        assert_eq!(union, plan_fingerprint(&FedPlan::Union(vec![b(), a()])), "unions commute");
        assert_ne!(
            plan_fingerprint(&left_join(a(), b())),
            plan_fingerprint(&left_join(b(), a())),
            "a left join's sides are not interchangeable"
        );
        assert_ne!(
            plan_fingerprint(&bind_join(a())),
            plan_fingerprint(&bind_join(b())),
            "a bind join's input distinguishes"
        );
    }

    #[test]
    fn nested_joins_flatten_and_merge_variables() {
        let nested = join(join(req("c", "C"), req("a", "A"), "y"), req("b", "B"), "x");
        assert_eq!(
            plan_text(&nested),
            r#"(join [?x,?y] (req a "single:A") (req b "single:B") (req c "single:C"))"#
        );
        let reassociated = join(req("a", "A"), join(req("b", "B"), req("c", "C"), "x"), "y");
        assert_eq!(plan_fingerprint(&nested), plan_fingerprint(&reassociated));
    }

    #[test]
    fn different_requests_fingerprint_differently() {
        let a = plan_fingerprint(&req("a", "SELECT 1"));
        assert_ne!(a, plan_fingerprint(&req("a", "SELECT 2")), "sql text distinguishes");
        assert_ne!(a, plan_fingerprint(&req("b", "SELECT 1")), "source distinguishes");
    }

    #[test]
    fn query_fingerprint_separates_queries_and_is_stable() {
        let q1 = parse_query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        let q1b = parse_query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        let q2 = parse_query("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 5").unwrap();
        let q3 = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o . }").unwrap();
        assert_eq!(query_fingerprint(&q1), query_fingerprint(&q1b));
        assert_ne!(query_fingerprint(&q1), query_fingerprint(&q2));
        assert_ne!(query_fingerprint(&q1), query_fingerprint(&q3));
    }

    #[test]
    fn config_fingerprint_tracks_planner_relevant_fields() {
        let base = PlanConfig::default();
        let mut cost = base;
        cost.cost_based = !cost.cost_based;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&cost));
    }
}
