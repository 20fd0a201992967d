//! Generated queries against the oracle: random walks over the ten-dataset
//! lake's interlinks give star, chain and hybrid shapes, and every answer
//! the engine returns is checked against a local evaluation over the lifted
//! graph.
//!
//! Each case draws its query from its own seeded [`Prng`], so a case is a
//! pure function of `(SEED, case)`. The walk starts at a typed entity, takes
//! 1–3 hops along IRI-valued predicates in either direction (shared gene and
//! drug IRIs cross sources), attaches 0–2 more predicates per node and
//! variabilizes the nodes, so the walked entities are one answer of the
//! pattern. Optional parts ride along, each with its own probability: a
//! FILTER, a self-contained OPTIONAL, a UNION of two star variants,
//! DISTINCT, and ORDER BY over every projected variable with LIMIT / OFFSET
//! (a total order, so the sequence is exact). The FILTER's constant is one
//! of the predicate's objects, or — to draw the SPARQL↔SQL boundary — one
//! from the value classes of `crates/core/tests/sql_boundary.rs`: that
//! object restated (a language tag, `xsd:string`, a number as a string or
//! with a leading zero, a recoded IRI) or a shared literal of any class. Its
//! operator is any comparison, `CONTAINS`, `STRSTARTS`, `STRENDS` or an
//! anchored `REGEX`, over the variable or `STR` of it.
//!
//! Each query runs in the six cells of the shared matrix
//! (`tests/common/mod.rs`) × {unaware, aware} × {NoDelay, Gamma2}, each on a
//! fresh engine. Its sorted answer multiset must equal the oracle's, and an
//! ORDER BY query's sequence too. The one allowed error is a documented
//! [`FedError::Unsupported`], and at least 90 % of the queries must answer.
//! Across the aware runs the set must reach both sides of each heuristic:
//! an H1 merge, a FILTER pushed and one kept, a plan over two sources — and
//! both parts of the lift plan: a leaf column nothing reads, and a leaf
//! whose engine FILTER guards its rows.
//!
//! `ORACLE_QUERIES` sets the number of queries — a harness knob like
//! `CHAOS_ITERS`:
//!
//! ```text
//! ORACLE_QUERIES=2000 cargo test --test generated_oracle
//! ```

mod common;
#[path = "../crates/core/tests/boundary/pool.rs"]
mod pool;

use common::{Cell, CELLS};
use fedlake::core::explain::explain_plan;
use fedlake::core::fedplan::FedPlan;
use fedlake::core::ir::{query_fingerprint, Fnv64};
use fedlake::core::planner::plan_query_with_health;
use fedlake::core::{DataLake, FedError, FederatedEngine, HealthView, PlanConfig, PlanMode};
use fedlake::datagen::{build_lake, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::rdf::{vocab, Graph, Term, TermId, Triple, TriplePattern};
use fedlake::sparql::ast::{GroupGraphPattern, Order, PatternElement, SelectQuery};
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use fedlake::sparql::Row;
use fedlake_prng::Prng;
use std::collections::BTreeSet;

/// The base seed; case `i` draws from `SEED + i`.
const SEED: u64 = 0x6E_0AC1E;

/// Queries per run unless `ORACLE_QUERIES` says otherwise.
const DEFAULT_QUERIES: u64 = 120;

fn queries() -> u64 {
    std::env::var("ORACLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_QUERIES)
}

/// The `Unsupported` messages the planner, the translator and the wrapper
/// routes document (planner.rs, translate.rs, wrapper/route.rs).
const DOCUMENTED: [&str; 6] = [
    "empty basic graph pattern",
    "OPTIONAL groups correlated through optional-only variables",
    "FILTER in OPTIONAL referencing outer variables",
    "variable predicate over RDB",
    "variable class over RDB",
    "rows_per_message = 0: a message must carry at least one row",
];

/// A documented refusal; `object {term} has no SQL literal` is matched by
/// its ends.
fn documented(e: &FedError) -> bool {
    match e {
        FedError::Unsupported(m) => {
            DOCUMENTED.contains(&m.as_str())
                || (m.starts_with("object ") && m.ends_with(" has no SQL literal"))
        }
        _ => false,
    }
}

/// The oracle graph as the walk reads it.
struct Walker<'g> {
    graph: &'g Graph,
    rdf_type: TermId,
    /// Every `rdf:type` triple: the walk's possible starts.
    typed: Vec<Triple>,
}

impl<'g> Walker<'g> {
    fn new(graph: &'g Graph) -> Self {
        let rdf_type = graph.id(&Term::iri(vocab::rdf::TYPE)).expect("the lake has typed entities");
        let typed = graph.match_pattern(&TriplePattern::any().with_p(rdf_type));
        Walker { graph, rdf_type, typed }
    }

    fn term(&self, id: TermId) -> &Term {
        self.graph.term(id).expect("an id of the graph")
    }

    /// `entity`'s triples other than its type, predicates in `used` left out.
    fn properties(&self, entity: TermId, used: &[TermId]) -> Vec<Triple> {
        let mut out = self.graph.match_pattern(&TriplePattern::any().with_s(entity));
        out.retain(|t| t.p != self.rdf_type && !used.contains(&t.p));
        out
    }

    fn class_of(&self, entity: TermId) -> Option<TermId> {
        let typed = TriplePattern::any().with_s(entity).with_p(self.rdf_type);
        self.graph.match_pattern(&typed).first().map(|t| t.o)
    }
}

/// One node of the walk: a variable for one walked entity.
struct Node {
    var: String,
    entity: TermId,
    /// Predicates the query already gives this node as a subject.
    used: Vec<TermId>,
}

/// A generated query and what the coverage checks read off it.
struct Generated {
    sparql: String,
    filtered: bool,
    ordered: bool,
}

fn pick<'a, T>(rng: &mut Prng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Draws one query.
fn generate(w: &Walker, rng: &mut Prng) -> Generated {
    let mut patterns: Vec<String> = Vec::new();
    let mut vars: Vec<String> = Vec::new();
    // (variable, predicate) pairs of the required group where the variable
    // is the predicate's object: what a FILTER may constrain.
    let mut slots: Vec<(String, TermId)> = Vec::new();

    let start = *pick(rng, &w.typed);
    let mut nodes = vec![Node { var: "?n0".into(), entity: start.s, used: Vec::new() }];
    patterns.push(format!("?n0 a {}", w.term(start.o)));
    vars.push("?n0".into());

    for _ in 0..rng.gen_range(1..=3) {
        let from = rng.gen_range(0..nodes.len());
        let entity = nodes[from].entity;
        let fresh = |e: TermId| !nodes.iter().any(|n| n.entity == e);
        let mut edges: Vec<(Triple, bool)> = w
            .properties(entity, &nodes[from].used)
            .into_iter()
            .filter(|t| w.term(t.o).is_iri() && fresh(t.o))
            .map(|t| (t, true))
            .collect();
        let incoming = w.graph.match_pattern(&TriplePattern::any().with_o(entity));
        edges.extend(incoming.into_iter().filter(|t| fresh(t.s)).map(|t| (t, false)));
        if edges.is_empty() {
            continue;
        }
        let (t, forward) = *pick(rng, &edges);
        let var = format!("?n{}", nodes.len());
        let entity = if forward { t.o } else { t.s };
        let mut node = Node { var: var.clone(), entity, used: Vec::new() };
        let p = w.term(t.p);
        if forward {
            patterns.push(format!("{} {p} {var}", nodes[from].var));
            nodes[from].used.push(t.p);
            slots.push((var.clone(), t.p));
        } else {
            patterns.push(format!("{var} {p} {}", nodes[from].var));
            node.used.push(t.p);
            slots.push((nodes[from].var.clone(), t.p));
        }
        if rng.gen_bool(0.5) {
            if let Some(class) = w.class_of(node.entity) {
                patterns.push(format!("{var} a {}", w.term(class)));
            }
        }
        vars.push(var);
        nodes.push(node);
    }

    for node in &mut nodes {
        for _ in 0..rng.gen_range(0..=2) {
            let props = w.properties(node.entity, &node.used);
            if props.is_empty() {
                break;
            }
            let t = *pick(rng, &props);
            let var = format!("?v{}", vars.len());
            patterns.push(format!("{} {} {var}", node.var, w.term(t.p)));
            node.used.push(t.p);
            slots.push((var.clone(), t.p));
            vars.push(var);
        }
    }

    let mut blocks: Vec<String> = Vec::new();
    let filtered = rng.gen_bool(0.5) && !slots.is_empty();
    if filtered {
        let (var, p) = pick(rng, &slots).clone();
        let objects = w.graph.match_pattern(&TriplePattern::any().with_p(p));
        let mut constant = w.term(pick(rng, &objects).o).clone();
        if rng.gen_bool(0.35) {
            let restated = pool::restated(&constant);
            constant = match restated.is_empty() || rng.gen_bool(0.5) {
                true => pick(rng, &pool::literals()).clone(),
                false => pick(rng, &restated).clone(),
            };
        }
        blocks.push(filter(rng, &var, &constant));
    }
    if rng.gen_bool(0.25) {
        let at = rng.gen_range(0..nodes.len());
        let node = &mut nodes[at];
        let props = w.properties(node.entity, &node.used);
        let ps: BTreeSet<TermId> = props.iter().map(|t| t.p).collect();
        if ps.len() >= 2 {
            let ps: Vec<TermId> = ps.into_iter().collect();
            let first = rng.gen_range(0..ps.len());
            let second = (first + rng.gen_range(1..ps.len())) % ps.len();
            let var = format!("?u{}", vars.len());
            let n = &node.var;
            blocks.push(format!(
                "{{ {n} {} {var} }} UNION {{ {n} {} {var} }}",
                w.term(ps[first]),
                w.term(ps[second])
            ));
            node.used.extend([ps[first], ps[second]]);
            vars.push(var);
        }
    }
    if rng.gen_bool(0.3) {
        let at = rng.gen_range(0..nodes.len());
        let node = &mut nodes[at];
        let props = w.properties(node.entity, &node.used);
        if !props.is_empty() {
            let t = *pick(rng, &props);
            let var = format!("?o{}", vars.len());
            let mut inner = format!("{} {} {var}", node.var, w.term(t.p));
            node.used.push(t.p);
            vars.push(var.clone());
            // A second pattern on the optional object makes a two-star
            // OPTIONAL, still joined to the rest through the node alone.
            let further = w.properties(t.o, &[]);
            if !further.is_empty() && rng.gen_bool(0.5) {
                let second = format!("?o{}", vars.len());
                inner.push_str(&format!(" . {var} {} {second}", w.term(pick(rng, &further).p)));
                vars.push(second);
            }
            blocks.push(format!("OPTIONAL {{ {inner} }}"));
        }
    }

    let distinct = rng.gen_bool(0.3);
    let mut projection: Vec<String> = vars.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
    if projection.is_empty() {
        projection.push(pick(rng, &vars).clone());
    }
    let ordered = rng.gen_bool(0.3);
    let mut modifiers = String::new();
    if ordered {
        let keys: Vec<String> = projection
            .iter()
            .map(|v| if rng.gen_bool(0.5) { format!("ASC({v})") } else { format!("DESC({v})") })
            .collect();
        modifiers = format!(" ORDER BY {} LIMIT {}", keys.join(" "), rng.gen_range(1..=20));
        if rng.gen_bool(0.5) {
            modifiers.push_str(&format!(" OFFSET {}", rng.gen_range(1..=5)));
        }
    }
    let sparql = format!(
        "SELECT {}{} WHERE {{ {} . {} }}{modifiers}",
        if distinct { "DISTINCT " } else { "" },
        projection.join(" "),
        patterns.join(" . "),
        blocks.join(" "),
    );
    Generated { sparql, filtered, ordered }
}

/// A FILTER on `var`, or on `STR(var)`, against `constant`, with an
/// operator that fits the constant: every comparison, the three string
/// functions and an anchored `REGEX` on a string; the comparisons on a
/// number; equality on an IRI.
fn filter(rng: &mut Prng, var: &str, constant: &Term) -> String {
    const COMPARISONS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];
    let arg = if rng.gen_bool(0.25) { format!("STR({var})") } else { var.to_string() };
    let cmp = |op: &str| format!("FILTER({arg} {op} {constant})");
    match constant {
        Term::Literal(l) if !l.is_numeric() => {
            let chars: Vec<char> = l.lexical.chars().collect();
            let start = rng.gen_range(0..=chars.len());
            let end = rng.gen_range(start..=chars.len());
            let piece = |from: usize, to: usize| -> String { chars[from..to].iter().collect() };
            let call = |f: &str, needle: String| format!("FILTER({f}({arg}, {}))", Term::literal(needle));
            match rng.gen_range(0usize..10) {
                op @ 0..=5 => cmp(COMPARISONS[op]),
                6 => call("CONTAINS", piece(start, end)),
                7 => call("STRSTARTS", piece(0, end)),
                8 => call("STRENDS", piece(start, chars.len())),
                _ => {
                    let (pre, post) = *pick(rng, &[("^", ""), ("", "$"), ("^", "$"), ("", "")]);
                    let (from, to) = match (pre, post) {
                        ("^", "$") => (0, chars.len()),
                        ("^", _) => (0, end),
                        (_, "$") => (start, chars.len()),
                        _ => (start, end),
                    };
                    call("REGEX", format!("{pre}{}{post}", piece(from, to)))
                }
            }
        }
        Term::Literal(_) => cmp(COMPARISONS[rng.gen_range(0..COMPARISONS.len())]),
        _ => cmp(pick::<&str>(rng, &["=", "!="])),
    }
}

/// The answers as comparable lines: in order for an ORDER BY query, else
/// sorted (a multiset).
fn lines(rows: &[Row], ordered: bool) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    if !ordered {
        out.sort();
    }
    out
}

/// What a failed comparison prints: both counts, and up to five lines
/// each side has that the other lacks.
fn difference(want: &[String], got: &[String]) -> String {
    let only = |a: &[String], b: &[String]| -> Vec<String> {
        a.iter().filter(|r| !b.contains(r)).take(5).cloned().collect()
    };
    let (missing, extra) = (only(want, got), only(got, want));
    let counts = format!("{} answers, the oracle {}", got.len(), want.len());
    format!("{counts}\nmissing {missing:?}\nextra {extra:?}")
}

/// Which side of each heuristic the aware runs reached, and which sides of
/// the lift plan: a leaf that leaves a column unlifted, and one whose
/// engine FILTER guards its rows.
#[derive(Debug, Default)]
struct Coverage {
    merged: bool,
    pushed: bool,
    kept: bool,
    multi_source: bool,
    unread_slot: bool,
    guarded_leaf: bool,
}

/// Everything needed to rerun a failing execution.
fn context(case: u64, cell: &Cell, mode: PlanMode, network: &str, sparql: &str) -> String {
    format!(
        "seed {SEED:#x} case {case} (draws from seed {:#x})\ncell {cell:?}\nmode {} network \
         {network}\n{sparql}",
        SEED + case,
        mode.label()
    )
}

#[test]
fn generated_queries_match_the_oracle() {
    let lake = build_lake(&LakeConfig { scale: 0.1, ..Default::default() });
    let oracle = lake.oracle_graph();
    let walker = Walker::new(&oracle);
    let lakes: Vec<DataLake> = CELLS
        .iter()
        .map(|cell| {
            let mut lake = lake.clone();
            cell.replicate(&mut lake);
            lake
        })
        .collect();

    let n = queries();
    let (mut answered, mut coverage) = (0u64, Coverage::default());
    for case in 0..n {
        let q = generate(&walker, &mut Prng::seed_from_u64(SEED + case));
        let ast = parse_query(&q.sparql)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", q.sparql));
        let rows = evaluate(&ast, &oracle)
            .unwrap_or_else(|e| panic!("case {case}: the oracle fails: {e}\n{}", q.sparql));
        let want = lines(&rows, q.ordered);
        let mut answers = true;
        for (cell, lake) in CELLS.iter().zip(&lakes) {
            for mode in [PlanMode::Unaware, PlanMode::AWARE] {
                for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
                    let config = cell.config(PlanConfig::new(mode, network));
                    let engine = FederatedEngine::new(lake.clone(), config);
                    let at = || context(case, cell, mode, network.name, &q.sparql);
                    let planned = match engine.plan(&ast) {
                        Ok(planned) => planned,
                        Err(e) if documented(&e) => {
                            answers = false;
                            continue;
                        }
                        Err(e) => panic!("{}\nplanning fails: {e}", at()),
                    };
                    let result = match engine.execute_planned(&planned) {
                        Ok(result) => result,
                        Err(e) if documented(&e) => {
                            answers = false;
                            continue;
                        }
                        Err(e) => panic!("{}\nfails: {e}\n{}", at(), explain_plan(&planned.plan)),
                    };
                    let got = lines(&result.rows, q.ordered);
                    assert!(
                        got == want,
                        "{}\nordered: {}\n{}\n{}",
                        at(),
                        q.ordered,
                        difference(&want, &got),
                        result.explain
                    );
                    if mode == PlanMode::AWARE {
                        coverage.merged |= result.stats.merged_services > 0;
                        // Whether the plan keeps a FILTER at the engine, the
                        // sources it sends requests to, and what its leaves
                        // and bind-join targets lift.
                        let (mut kept, mut ids) = (false, BTreeSet::new());
                        planned.plan.visit(0, &mut |node, _| {
                            let lift = match node {
                                FedPlan::Service(s) => {
                                    ids.insert(s.source_id.as_str());
                                    &s.lift
                                }
                                FedPlan::BindJoin { right, .. } => {
                                    ids.insert(right.source_id.as_str());
                                    &right.lift
                                }
                                FedPlan::Filter { .. } => {
                                    kept = true;
                                    return;
                                }
                                _ => return,
                            };
                            coverage.unread_slot |= !lift.unread().is_empty();
                            coverage.guarded_leaf |= !lift.guards().is_empty();
                        });
                        if q.filtered {
                            coverage.kept |= kept;
                            coverage.pushed |= !kept;
                        }
                        coverage.multi_source |= ids.len() >= 2;
                    }
                }
            }
        }
        answered += u64::from(answers);
    }
    eprintln!("{answered} of {n} generated queries answered; aware coverage {coverage:?}");
    assert!(answered * 10 >= n * 9, "only {answered} of {n} generated queries answered");
    let Coverage { merged, pushed, kept, multi_source, unread_slot, guarded_leaf } = coverage;
    assert!(merged, "no aware plan merged two stars (H1)");
    assert!(pushed && kept, "H2 must both push and keep a FILTER: {coverage:?}");
    assert!(multi_source, "no aware plan spans two sources");
    assert!(unread_slot, "no aware plan left a column unlifted");
    assert!(guarded_leaf, "no aware plan guarded a leaf's rows with its FILTER");
}

/// The plan fingerprint (`PlanReport::fingerprint`) keeps its value over
/// generated plans: one digest over the first 120 cases, whatever
/// `ORACLE_QUERIES` says, × {unaware, aware, cost-based aware} × {NoDelay,
/// Gamma2}. A documented refusal is folded as its message.
#[test]
fn generated_plan_fingerprints_keep_their_values() {
    const PINNED_CASES: u64 = 120;
    let lake = build_lake(&LakeConfig { scale: 0.1, ..Default::default() });
    let oracle = lake.oracle_graph();
    let walker = Walker::new(&oracle);
    let mut digest = Fnv64::new();
    for case in 0..PINNED_CASES {
        let q = generate(&walker, &mut Prng::seed_from_u64(SEED + case));
        let ast = parse_query(&q.sparql)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", q.sparql));
        for (mode, cost_based) in
            [(PlanMode::Unaware, false), (PlanMode::AWARE, false), (PlanMode::AWARE, true)]
        {
            for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
                let mut config = PlanConfig::new(mode, network);
                config.cost_based = cost_based;
                match plan_query_with_health(&ast, &lake, &config, &HealthView::empty()) {
                    Ok(planned) => digest.push_u64(planned.report.fingerprint),
                    Err(e) if documented(&e) => digest.push_str(&e.to_string()),
                    Err(e) => panic!("case {case} {config:?}: planning fails: {e}\n{}", q.sparql),
                };
            }
        }
    }
    assert_eq!(digest.finish(), 0xf1e2_53c5_f9ff_13b1, "the plan fingerprints moved");
}

/// The plan cache's query key as it was first written: each variable,
/// triple and FILTER rendered to a `String`, then folded. The engine's
/// `ir::query_fingerprint` streams the same text into the hash without the
/// strings; this is the reference it must equal.
fn string_fold(query: &SelectQuery) -> u64 {
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

/// The streamed query fingerprint keeps the string fold's values on the
/// stock queries (QM, Q1–Q5) and on 300 generated ones, which reach
/// FILTERs of every operator, OPTIONAL, UNION, DISTINCT and ORDER BY.
#[test]
fn query_fingerprints_equal_the_string_fold() {
    const CASES: u64 = 300;
    let lake = build_lake(&LakeConfig { scale: 0.1, ..Default::default() });
    let oracle = lake.oracle_graph();
    let walker = Walker::new(&oracle);
    let stock = fedlake::datagen::workload::all().into_iter().map(|q| q.sparql);
    let generated =
        (0..CASES).map(|case| generate(&walker, &mut Prng::seed_from_u64(SEED + case)).sparql);
    let mut keys = BTreeSet::new();
    for sparql in stock.chain(generated) {
        let ast = parse_query(&sparql).unwrap_or_else(|e| panic!("{e}\n{sparql}"));
        let key = query_fingerprint(&ast);
        assert_eq!(key, string_fold(&ast), "{sparql}");
        keys.insert(key);
    }
    assert!(keys.len() > 250, "only {} distinct keys: the generator repeats itself", keys.len());
}
