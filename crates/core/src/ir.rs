//! FedQPL-style logical plan IR.
//!
//! [`LogicalPlan`] is an explicit logical algebra for federated plans —
//! `req` / `bgp-req` / `join` / `union` / `bind` over source-annotated
//! sub-expressions, after the FedQPL formalization. It is lowered from a
//! freshly built [`FedPlan`] *before* physical annotations (replica
//! routes) are assigned, so two plans that request the same work from the
//! same sources share one IR regardless of interner state or routing.
//!
//! The IR exists to be **serializable and hashable**:
//!
//! * [`LogicalPlan::normalized`] puts a plan in canonical normal form —
//!   adjacent commutative operators (joins, unions) are flattened to
//!   n-ary nodes and their children sorted by canonical text, so
//!   syntactically different but logically identical shapes coincide.
//! * [`LogicalPlan::canonical`] renders the normal form as a stable
//!   S-expression built only from term *text* (never interner ids), so
//!   fingerprints are interner-independent.
//! * [`LogicalPlan::fingerprint`] folds that text through FNV-1a into a
//!   stable 64-bit plan fingerprint — the identity used by EXPLAIN, the
//!   flight recorder and the normalized-plan cache.
//!
//! [`query_fingerprint`] and [`config_fingerprint`] provide the matching
//! *lookup-side* identities: a canonical rendering of the SPARQL AST and
//! of the planner-relevant configuration. Both are conservative — any
//! textual difference is a different key — so the plan cache can never
//! return a plan for a query it was not built from.

use crate::config::PlanConfig;
use crate::fedplan::{FedPlan, ServiceKind, SqlRequest};
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
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
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

    /// Fold a 64-bit value (little-endian bytes).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// The folded hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The logical plan algebra, per FedQPL: requests, joins, unions and
/// dependent (bind) joins over source-annotated sub-expressions. All
/// payloads are plain text extracted from the physical plan so the IR is
/// trivially serializable and its hash interner-independent.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogicalPlan {
    /// `req`: one translated SQL request against one relational source.
    Req {
        /// Logical source id.
        source: String,
        /// The request text.
        sql: String,
    },
    /// `bgp-req`: one star-shaped BGP evaluated natively at a SPARQL
    /// source (the triple-pattern-fragment flavour of `req`).
    BgpReq {
        /// Logical source id.
        source: String,
        /// Canonical triple-pattern texts (query order).
        patterns: Vec<String>,
        /// Filters pushed to the endpoint.
        filters: Vec<String>,
    },
    /// `join`: n-ary engine-level join on the given variables.
    Join {
        /// Sub-expressions, sorted canonically in normal form.
        children: Vec<LogicalPlan>,
        /// Union of the binary join variables, sorted + deduped.
        on: Vec<String>,
    },
    /// Left (optional) join — not commutative, stays binary.
    LeftJoin {
        /// Required input.
        left: Box<LogicalPlan>,
        /// Optional input.
        right: Box<LogicalPlan>,
        /// Join variables.
        on: Vec<String>,
    },
    /// `union`: n-ary union of alternative sub-expressions.
    Union(Vec<LogicalPlan>),
    /// `bind`: dependent join — the input's bindings parameterize a
    /// request to the annotated source.
    Bind {
        /// The driving input.
        input: Box<LogicalPlan>,
        /// Logical source id of the parameterized request.
        source: String,
        /// The restricted star (table + selected columns + conjuncts).
        req: String,
        /// The shipped variable and restricted column.
        on: String,
    },
    /// Engine-level filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Conjunct texts (query order).
        exprs: Vec<String>,
    },
}

impl LogicalPlan {
    /// Lowers a physical plan to its logical IR. Routes and cardinality
    /// estimates are physical annotations and are deliberately dropped;
    /// every remaining payload is text.
    pub fn of(plan: &FedPlan) -> Self {
        match plan {
            FedPlan::Service(s) => match &s.kind {
                ServiceKind::Sparql { star, filters } => LogicalPlan::BgpReq {
                    source: s.source_id.clone(),
                    patterns: star.triples.iter().map(|t| t.to_string()).collect(),
                    filters: filters.iter().map(|e| e.to_string()).collect(),
                },
                ServiceKind::Sql { request, .. } => LogicalPlan::Req {
                    source: s.source_id.clone(),
                    sql: match request {
                        SqlRequest::Single(q) => format!("single:{}", q.sql),
                        SqlRequest::MergedOptimized(q) => format!("merged:{}", q.sql),
                    },
                },
            },
            FedPlan::Join { left, right, on } => LogicalPlan::Join {
                children: vec![Self::of(left), Self::of(right)],
                on: on.iter().map(|v| v.to_string()).collect(),
            },
            FedPlan::LeftJoin { left, right, on } => LogicalPlan::LeftJoin {
                left: Box::new(Self::of(left)),
                right: Box::new(Self::of(right)),
                on: on.iter().map(|v| v.to_string()).collect(),
            },
            FedPlan::Union(branches) => {
                LogicalPlan::Union(branches.iter().map(Self::of).collect())
            }
            FedPlan::BindJoin { left, right, batch_size } => LogicalPlan::Bind {
                input: Box::new(Self::of(left)),
                source: right.source_id.clone(),
                req: format!(
                    "{}[{}] batch:{batch_size}",
                    right.part.table,
                    right.part.wheres.join(" AND ")
                ),
                on: format!("{}={}", right.join_var, right.column.name),
            },
            FedPlan::Filter { input, exprs, .. } => LogicalPlan::Filter {
                input: Box::new(Self::of(input)),
                exprs: exprs.iter().map(|e| e.to_string()).collect(),
            },
        }
    }

    /// Canonical normal form: flattens nested joins/unions into n-ary
    /// nodes (merging join variables) and sorts commutative children by
    /// canonical text. Idempotent.
    pub fn normalized(self) -> Self {
        match self {
            LogicalPlan::Join { children, on } => {
                let mut flat = Vec::new();
                let mut vars = on;
                for child in children {
                    match child.normalized() {
                        LogicalPlan::Join { children: inner, on: inner_on } => {
                            flat.extend(inner);
                            vars.extend(inner_on);
                        }
                        other => flat.push(other),
                    }
                }
                vars.sort_unstable();
                vars.dedup();
                flat.sort_by_key(|child| child.canonical());
                LogicalPlan::Join { children: flat, on: vars }
            }
            LogicalPlan::Union(branches) => {
                let mut flat = Vec::new();
                for b in branches {
                    match b.normalized() {
                        LogicalPlan::Union(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                flat.sort_by_key(|child| child.canonical());
                LogicalPlan::Union(flat)
            }
            LogicalPlan::LeftJoin { left, right, on } => LogicalPlan::LeftJoin {
                left: Box::new(left.normalized()),
                right: Box::new(right.normalized()),
                on,
            },
            LogicalPlan::Bind { input, source, req, on } => LogicalPlan::Bind {
                input: Box::new(input.normalized()),
                source,
                req,
                on,
            },
            LogicalPlan::Filter { input, exprs } => {
                LogicalPlan::Filter { input: Box::new(input.normalized()), exprs }
            }
            leaf @ (LogicalPlan::Req { .. } | LogicalPlan::BgpReq { .. }) => leaf,
        }
    }

    /// The serializable canonical form: a stable S-expression over term
    /// text only. Equal strings ⇔ equal normalized IR.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            LogicalPlan::Req { source, sql } => {
                let _ = write!(out, "(req {source} {sql:?})");
            }
            LogicalPlan::BgpReq { source, patterns, filters } => {
                let _ = write!(out, "(bgp-req {source}");
                for p in patterns {
                    let _ = write!(out, " {p:?}");
                }
                for f in filters {
                    let _ = write!(out, " (filter {f:?})");
                }
                out.push(')');
            }
            LogicalPlan::Join { children, on } => {
                let _ = write!(out, "(join [{}]", on.join(","));
                for c in children {
                    out.push(' ');
                    c.write_canonical(out);
                }
                out.push(')');
            }
            LogicalPlan::LeftJoin { left, right, on } => {
                let _ = write!(out, "(leftjoin [{}] ", on.join(","));
                left.write_canonical(out);
                out.push(' ');
                right.write_canonical(out);
                out.push(')');
            }
            LogicalPlan::Union(branches) => {
                out.push_str("(union");
                for b in branches {
                    out.push(' ');
                    b.write_canonical(out);
                }
                out.push(')');
            }
            LogicalPlan::Bind { input, source, req, on } => {
                let _ = write!(out, "(bind {source} {req:?} [{on}] ");
                input.write_canonical(out);
                out.push(')');
            }
            LogicalPlan::Filter { input, exprs } => {
                out.push_str("(filter");
                for e in exprs {
                    let _ = write!(out, " {e:?}");
                }
                out.push(' ');
                input.write_canonical(out);
                out.push(')');
            }
        }
    }

    /// Stable 64-bit fingerprint of the canonical form. Call on a
    /// [`normalized`](Self::normalized) plan for the canonical identity.
    pub fn fingerprint(&self) -> u64 {
        Fnv64::new().push_str(&self.canonical()).finish()
    }
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
        h.push_str(&v.to_string());
    }
    h.push_str(if query.distinct { "distinct" } else { "all" });
    fold_pattern(&mut h, &query.pattern);
    for key in &query.order_by {
        h.push_str(&key.var.to_string());
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
                h.push_str("t");
                h.push_str(&t.to_string());
            }
            PatternElement::Filter(e) => {
                h.push_str("f");
                h.push_str(&e.to_string());
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
pub fn config_fingerprint(config: &PlanConfig) -> u64 {
    Fnv64::new().push_str(&format!("{config:?}")).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedplan::ServiceNode;
    use crate::translate::TranslatedQuery;
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

    #[test]
    fn commuted_joins_share_a_fingerprint() {
        let ab = LogicalPlan::of(&join(req("a", "SELECT 1"), req("b", "SELECT 2"), "x"));
        let ba = LogicalPlan::of(&join(req("b", "SELECT 2"), req("a", "SELECT 1"), "x"));
        assert_ne!(ab, ba, "raw lowering preserves order");
        let (nab, nba) = (ab.normalized(), ba.normalized());
        assert_eq!(nab, nba, "normal form is order-free");
        assert_eq!(nab.fingerprint(), nba.fingerprint());
    }

    #[test]
    fn nested_joins_flatten_and_merge_variables() {
        let nested = join(
            join(req("a", "A"), req("b", "B"), "x"),
            req("c", "C"),
            "y",
        );
        match LogicalPlan::of(&nested).normalized() {
            LogicalPlan::Join { children, on } => {
                assert_eq!(children.len(), 3);
                assert_eq!(on, vec!["?x".to_string(), "?y".to_string()]);
            }
            other => panic!("expected flattened join, got {other:?}"),
        }
    }

    #[test]
    fn different_requests_fingerprint_differently() {
        let a = LogicalPlan::of(&req("a", "SELECT 1")).normalized();
        let b = LogicalPlan::of(&req("a", "SELECT 2")).normalized();
        let c = LogicalPlan::of(&req("b", "SELECT 1")).normalized();
        assert_ne!(a.fingerprint(), b.fingerprint(), "sql text distinguishes");
        assert_ne!(a.fingerprint(), c.fingerprint(), "source distinguishes");
    }

    #[test]
    fn normalization_is_idempotent() {
        let plan = LogicalPlan::of(&join(
            join(req("c", "C"), req("a", "A"), "x"),
            req("b", "B"),
            "x",
        ));
        let once = plan.normalized();
        assert_eq!(once.clone().normalized(), once);
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
