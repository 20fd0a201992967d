#!/usr/bin/env bash
# Tier-1 gate: offline release build, the source greps, one test pass,
# fedbench's unit tests and its four workloads in smoke mode, the lake_shell
# surfaces, rustdoc and clippy clean.
# Run from anywhere; operates on the repository that contains this script.
#
# Prefer the compiler to a grep: the clippy step holds panic freedom (each
# library crate's lint attribute), the environment and thread-local bans
# (crates/clippy.toml) and every "only the planner builds it" rule
# (visibility). A grep passes when the same code comes back under a new
# name, so a change adds a name-grep step only if it says, in the step's
# comment, why the compiler cannot hold that invariant.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --release --offline --workspace --all-targets

# No process-global state: a cache or a delay tape belongs to one engine, so
# engines over one lake stay independent and a run stays a pure function of
# its seeds. clippy bans thread_local! (crates/clippy.toml), but no lint
# rejects a static item, so no static item under crates/*/src. (The trailing
# /* matters: git matches a wildcard pathspec against whole paths, so
# 'crates/*/src' alone selects no file and the gate would pass vacuously.)
echo "== no static items under crates/*/src =="
globals=0
git grep -nE '^\s*(pub(\([a-z]+\))? )?static ' -- 'crates/*/src/*' || globals=$?
# git grep exits 1 when nothing matches; 0 is a hit, anything else an error.
[ "$globals" -eq 1 ] || { echo "a static item is under crates/*/src (or git grep failed)"; exit 1; }

# One pull protocol: an operator has poll_next and nothing else, a message
# crosses a route through one retry chain, a link has one transfer body and
# a bind join one way to ship a batch. The serialized schedule is a policy
# (ExecCtx::serialized), not a second set of bodies to keep byte-identical.
echo "== one pull protocol under crates/*/src =="
blocking_pulls=0
git grep -nE "fn next\(&mut self, _?ctx: &mut ExecCtx" -- 'crates/*/src/*' || blocking_pulls=$?
[ "$blocking_pulls" -eq 1 ] || { echo "a blocking next() is back under crates/*/src (or git grep failed)"; exit 1; }
second_bodies=0
git grep -n "fn transfer_with_retry\|fn transfer_inner\|fn ship_batch" -- 'crates/*/src/*' || second_bodies=$?
[ "$second_bodies" -eq 1 ] || { echo "a second transfer body is back under crates/*/src (or git grep failed)"; exit 1; }

# A source answer is lifted where it lies: a leaf or a bind-join batch reads
# the source's rows in place (Database::query_borrowed) into the lift cache,
# the one cache of source answers. The naive N+1 translation is a bind join
# of batch 1, not a wrapper of its own beside it.
echo "== the SQL memo stays out of the leaf path =="
memo_callers=0
git grep -n query_cached -- 'crates/core/src/*' || memo_callers=$?
[ "$memo_callers" -eq 1 ] || { echo "query_cached is back under crates/core/src (or git grep failed)"; exit 1; }
naive_wrapper=0
git grep -nE 'NaiveStream|MergedNaive|NaiveJoin' -- 'crates/*/src/*' || naive_wrapper=$?
[ "$naive_wrapper" -eq 1 ] || { echo "a naive N+1 wrapper is back under crates/*/src (or git grep failed)"; exit 1; }

# A plan node carries its own decisions (DESIGN §17): the lowering walk sets
# each leaf's and bind-join target's route and lift plan and each FILTER's
# verdict keys on the node, and open_service / BindJoinOp::new read them
# there. A PlannedQuery side table of per-node LiftPlans or verdict keys,
# indexed by a pre-order number that every walker must keep in step, or a
# second constructor that takes an entry of one, is what that replaced.
echo "== a plan node carries its own decisions =="
side_tables=0
git grep -nE '(^|[^A-Za-z0-9_])(open_leaf|verdict_keys)([^A-Za-z0-9_]|$)|BindJoinOp::planned|(\[|Vec<)(Arc<)?LiftPlan' \
    -- 'crates/core/src/*' || side_tables=$?
[ "$side_tables" -eq 1 ] || { echo "a per-node side table or a second constructor is back under crates/core/src (or git grep failed)"; exit 1; }
git grep -q 'pub lift: Arc<LiftPlan>' -- crates/core/src/fedplan.rs \
    || { echo "fedplan.rs carries no lift plan on a node: the gate above matches nothing"; exit 1; }

# One plan tree: FedPlan is the plan, and the plan fingerprint is a fold
# over it (ir::plan_fingerprint). A second plan enum mirroring FedPlan's
# variants, kept in step with it by hand, is what that replaced. Exactly
# one: zero would mean the gate no longer matches what it guards.
echo "== one plan enum under crates/core/src =="
plan_enums="$(git grep -cE 'enum [A-Za-z0-9_]*Plan([^A-Za-z0-9_]|$)' -- 'crates/core/src/*' | awk -F: '{ n += $2 } END { print n + 0 }')"
[ "$plan_enums" -eq 1 ] || { echo "crates/core/src declares $plan_enums plan enums, want exactly one (FedPlan)"; exit 1; }
git grep -q 'pub enum FedPlan ' -- crates/core/src/fedplan.rs \
    || { echo "fedplan.rs no longer declares FedPlan: the gate above counts the wrong enum"; exit 1; }

# The planner reads the physical design through one star (DESIGN §15):
# RelStar::resolve looks a star's source up once, and Heuristic 1,
# Heuristic 2 and the cost model's bind step ask RelStar::indexed. One
# builder, join_in_order, joins the heuristic order and the cost order. An
# index test on DataSource, a source looked up again per decision, or the
# cost path's own rebuild of its order (taking unit plans out of their
# slots) is what that replaced, not a second path to keep beside it. (The
# lookups' expect("selected") needs no pattern: clippy's expect_used lint
# rejects any expect in the crate's non-test code.)
echo "== the planner reads the physical design through one star =="
source_index=0
git grep -n 'fn has_index_on' -- crates/core/src/source.rs || source_index=$?
[ "$source_index" -eq 1 ] || { echo "DataSource::has_index_on is back in source.rs (or git grep failed)"; exit 1; }
planner=crates/core/src/planner.rs
# Each has_index_on( in planner.rs with the fn it sits in: only RelStar::indexed may ask.
index_calls="$(awk '/^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ { name = $0; sub(/^ *(pub(\([a-z]+\))? )?fn /, "", name); sub(/[^a-z_0-9].*/, "", name) }
    /has_index_on\(/ { print FNR ": " name }' "$planner")"
[ -n "$index_calls" ] || { echo "planner.rs never calls has_index_on: the gate below matches nothing"; exit 1; }
if echo "$index_calls" | grep -v ': indexed$'; then
    echo "planner.rs calls has_index_on outside RelStar::indexed"; exit 1
fi
rebuilds=0
git grep -n '\.plan\.take()' -- "$planner" || rebuilds=$?
[ "$rebuilds" -eq 1 ] || { echo "the cost path's rebuild is back in planner.rs (or git grep failed)"; exit 1; }
git grep -q 'fn join_in_order(' -- "$planner" \
    || { echo "planner.rs has no join_in_order: the gate above matches nothing"; exit 1; }

# The SQL optimizer resolves each FROM table once (DESIGN §19): plan_select
# turns the FROM clause into parts (alias, catalog name, &Table) in FROM
# order and qualifies every column reference to the index of the part that
# owns it. A catalog trait over the one map is what that replaced. (A table
# looked up again or an owner re-derived behind an expect, or any other
# panic site, fails clippy: the crate denies them outside its tests.)
echo "== the SQL optimizer resolves each FROM table once =="
second_lookups=0
git grep -n 'trait CatalogView' -- crates/relational/src || second_lookups=$?
[ "$second_lookups" -eq 1 ] || { echo "a catalog trait is back under crates/relational/src (or git grep failed)"; exit 1; }

# One table per join side: both joins keep a side's rows in one vector,
# chained per folded key (operators.rs, BuildSide). A map from boxed key to a
# vector of rows — one block per key to allocate and to free — is the
# representation it replaced, not a second one to keep beside it.
echo "== one table per join side in crates/core/src/operators.rs =="
boxed_keys=0
git grep -nE 'FastMap<Box<\[TermId\]>|fn key_of' -- crates/core/src/operators.rs || boxed_keys=$?
[ "$boxed_keys" -eq 1 ] || { echo "boxed join keys are back in operators.rs (or git grep failed)"; exit 1; }
git grep -q 'struct BuildSide' -- crates/core/src/operators.rs \
    || { echo "operators.rs no longer holds BuildSide: the gate above matches nothing"; exit 1; }

# One row representation: an execution's rows live in its RowArena
# (fedlake_sparql::binding, owned by ExecCtx) and operators pass 4-byte
# RowId handles. A row boxed on its own — one block per delivered, merged or
# copied row, allocated and freed one by one — is the representation it
# replaced, not a second one to keep beside it. The one Box<[TermId]> left
# under crates/*/src is a bind-join batch's cache key (LiftKey::ids in
# wrapper/lift.rs), not a row.
echo "== one row representation under crates/*/src =="
boxed_rows=0
git grep -nE 'SlotRow|Box<\[TermId\]>' -- 'crates/*/src/*' ':!crates/core/src/wrapper/lift.rs' \
    || boxed_rows=$?
[ "$boxed_rows" -eq 1 ] || { echo "a boxed id row is back under crates/*/src (or git grep failed)"; exit 1; }
boxed_rows=0
git grep -n 'SlotRow' -- crates/core/src/wrapper/lift.rs || boxed_rows=$?
[ "$boxed_rows" -eq 1 ] || { echo "a boxed id row is back in wrapper/lift.rs (or git grep failed)"; exit 1; }
lift_boxes="$(git grep -c 'Box<\[TermId\]>' -- crates/core/src/wrapper/lift.rs | awk -F: '{ n += $2 } END { print n + 0 }')"
[ "$lift_boxes" -eq 1 ] || { echo "wrapper/lift.rs holds $lift_boxes Box<[TermId]>, want one (LiftKey::ids)"; exit 1; }
git grep -q 'pub struct RowArena' -- crates/sparql/src/binding.rs \
    || { echo "binding.rs no longer holds RowArena: the gates above match nothing"; exit 1; }

# A row a guarded leaf's guards reject never enters the arena: the leaf
# hands it up as RowId::DROPPED, the handle of no row, and the engine FILTER
# straight over the leaf (the only operator planner::lower lets a guarded
# leaf feed) counts, charges and drops it unread. The compiler cannot hold
# who names it: RowId is a plain Copy value and DROPPED a pub const of
# another crate, so any operator could pass one on or read a row through
# it. So exactly three code lines under crates/*/src name it (comments
# aside): its definition in binding.rs, where it is made in wrapper/leaf.rs
# and where FilterOp drops it in operators.rs.
echo "== RowId::DROPPED is named in three places under crates/*/src =="
dropped_sites="$(git grep -nw DROPPED -- 'crates/*/src/*' | grep -vE '^[^:]+:[0-9]+:\s*//' \
    | cut -d: -f1 | sort | uniq -c | awk '{ printf "%s:%s ", $2, $1 }')"
want_sites="crates/core/src/operators.rs:1 crates/core/src/wrapper/leaf.rs:1 crates/sparql/src/binding.rs:1 "
[ "$dropped_sites" = "$want_sites" ] || {
    echo "DROPPED is named at: ${dropped_sites:-nowhere}"; echo "want: $want_sites"; exit 1
}

# Cached answers are rows: a LiftedSource holds its rows at the schema's
# width, the arena's own layout, so a warm leaf appends one with a slice
# copy (RowArena::push_row) and a bind-join probe overlays one
# (RowArena::merge_row). A column buffer per slot, and the arena's
# closure-per-cell entry points that gathered a row from one, are the
# layout they replaced, not a second one to keep beside it.
echo "== cached answers are rows under crates/*/src =="
cell_rows=0
git grep -nE 'Vec<Vec<TermId>>|vec!\[vec!\[TermId' -- 'crates/core/src/wrapper/*' || cell_rows=$?
[ "$cell_rows" -eq 1 ] || { echo "a per-slot column buffer is back under crates/core/src/wrapper (or git grep failed)"; exit 1; }
cell_rows=0
git grep -nE '\b(push_with|merge_cells)\b' -- 'crates/*/src/*' || cell_rows=$?
[ "$cell_rows" -eq 1 ] || { echo "a closure-per-cell arena entry point is back under crates/*/src (or git grep failed)"; exit 1; }
git grep -q 'pub fn push_row(&mut self, row: &\[TermId\])' -- crates/sparql/src/binding.rs \
    || { echo "binding.rs no longer holds RowArena::push_row: the gates above match nothing"; exit 1; }

# One recorder: every observability hook appends one event to one per-query
# handle (obs/recorder.rs), the one NetObserver on links and the event queue,
# and one node wrapper around the executor's operators feeds its node table.
# A second recorder, a fan-out between two, a per-executor wrapper or a
# separate service-leaf table is the design it replaced, not a second path
# beside it.
echo "== one recorder under crates/*/src =="
second_recorder=0
git grep -nE 'FanoutObserver|RecordServiceOp|SpanRefOp|fn service_estimates' -- 'crates/*/src/*' || second_recorder=$?
[ "$second_recorder" -eq 1 ] || { echo "a second recorder path is back under crates/*/src (or git grep failed)"; exit 1; }
# Exactly one: zero would mean the gate no longer matches what it guards.
observers="$(git grep -c 'impl NetObserver for' -- 'crates/core/src/*' | awk -F: '{ n += $2 } END { print n + 0 }')"
[ "$observers" -eq 1 ] || { echo "crates/core/src has $observers NetObserver impls, want exactly one"; exit 1; }

# One executor: the engine's operators over slot rows. The schedule digest
# pins counters and timing, and the oracle suites check answers; a second
# executor over term rows, kept in step with the first by hand, is what
# that replaced.
echo "== one executor under crates/, tests/ and src/ =="
second_executor=0
git grep -nE 'execute_planned_reference|build_ref_operator|RefOp' -- 'crates/*' 'tests/*' src || second_executor=$?
[ "$second_executor" -eq 1 ] || { echo "a second executor is back (or git grep failed)"; exit 1; }

# One SPARQL-SQL boundary: every term that enters SQL is decided in
# crates/core/src/translate.rs — a star variable's column (star_column), the
# stored value whose lift is a term (StarColumn::stored: ground patterns and
# bind-join keys), what a FILTER may push (push_filter) and the one renderer
# (sql_literal) — and crates/core/tests/sql_boundary.rs holds them to the
# engine's verdicts. A second place that lowers a term or renders a value,
# or one of the decisions that was kept in step by hand, is what that
# replaced. REGEX anchors have one reader, fedlake_sparql::expr::split_anchors.
echo "== the SPARQL-SQL boundary is one module =="
writers=0
git grep -nE 'term_to_value|sql_literal\(' -- 'crates/core/src/*' ':!crates/core/src/translate.rs' || writers=$?
[ "$writers" -eq 1 ] || { echo "a term is written into SQL outside translate.rs (or git grep failed)"; exit 1; }
git grep -q 'fn sql_literal' -- crates/core/src/translate.rs \
    || { echo "translate.rs no longer holds sql_literal: the gate above matches nothing"; exit 1; }
second_decisions=0
git grep -nE 'fn filter_column\(|filter_to_sql\(|was pushed but is not translatable|bind batch without a key|does not match (ref )?template' \
    -- 'crates/core/src/*' || second_decisions=$?
[ "$second_decisions" -eq 1 ] || { echo "a second boundary decision is back under crates/core/src (or git grep failed)"; exit 1; }
anchors="$(git grep -c "starts_with('^')" -- 'crates/*/src/*' | awk -F: '{ n += $2 } END { print n + 0 }')"
[ "$anchors" -eq 1 ] || { echo "crates/*/src reads REGEX anchors in $anchors places, want one (split_anchors)"; exit 1; }

# One measuring regime: fedbench (BENCHMARK.json) times the engine, on the
# simulated clock and on the host. No crate declares a bench target, no
# BENCH_*.json is committed beside it, and nothing imports a bench harness
# module; what the old regime asserted about itself is held by the suites
# below on the simulated clock.
echo "== fedbench is the only measuring regime =="
bench_tables=0
git grep -n '^\[\[bench\]\]' -- 'crates/*/Cargo.toml' || bench_tables=$?
[ "$bench_tables" -eq 1 ] || { echo "a [[bench]] table is back under crates/ (or git grep failed)"; exit 1; }
bench_json="$(git ls-files 'BENCH_*.json' '*/BENCH_*.json')"
[ -z "$bench_json" ] || { echo "$bench_json"; echo "a BENCH_*.json is tracked: fedbench's output is the only benchmark record"; exit 1; }
harness_uses=0
git grep -n "harness::" -- crates || harness_uses=$?
[ "$harness_uses" -eq 1 ] || { echo "a bench harness module is back under crates/ (or git grep failed)"; exit 1; }

# The one test pass. The combinations that used to be re-runs of this pass
# under process state — schedule x planner x tracing x recorder x replicas —
# are enumerated in process by tests/common/mod.rs (a pairwise covering
# table with its own coverage test) and iterated by the chaos, overlap,
# serve-determinism, golden and oracle suites. CHAOS_ITERS is the chaos
# suite's fault schedules per query/profile/cell: 32 is the gate, raise it
# for soak runs; ORACLE_QUERIES is the generated-oracle suite's query count
# (its default is the gate), e.g.
#   CHAOS_ITERS=512 ORACLE_QUERIES=1000 scripts/tier1.sh
echo "== cargo test -q (offline, CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --workspace

# The benchmark's own unit tests, then all four workloads in smoke mode:
# paper_matrix and serve_open (warm engines: filter evaluation and answer
# decode do the work), mutate_requery (writes beside reads) and adhoc_cold
# (every cache empty: SQL execution, plan-time statistics and the lift).
# None may fail an operation; building them is also the gate's proof that
# fedbench/src/api.rs still compiles against the crates.
#
# A smoke's end-to-end sim_* values are a pure function of its seed (the
# default, 7): they move only when the simulation does — a plan, a message
# count, a delay, a cost constant. Each is diffed, to the last printed digit,
# against results/fedbench_smoke_sim.txt, so a host-side change that claims
# to leave the simulation alone is held to it. A change that moves the
# simulation on purpose re-records the file (the lines this loop prints
# after "== sim_* values ==") and gives the cause in CHANGES.md.
#
# Its per-layer values of unit count or rows (messages, rows shipped, SQL
# queries, filter evaluations, bind joins planned, ...; 17 per smoke) are
# diffed the same way against results/fedbench_smoke_counts.txt. They move
# only when a plan, a message or a row does, so a change that leaves all
# three alone leaves them alone. alloc.calls_per_op is left out: any code
# change moves it. A change that moves one on purpose re-records the file
# (the lines printed after "== count values ==") and gives the cause in
# CHANGES.md.
echo "== fedbench unit tests =="
cargo test -q --offline --manifest-path fedbench/Cargo.toml

sim_values=""
count_values=""
for workload in paper_matrix serve_open mutate_requery adhoc_cold; do
    echo "== fedbench smoke (run --quick --workload $workload) =="
    smoke="$(cargo run -q --offline --release --manifest-path fedbench/Cargo.toml -- \
        run --quick --workload "$workload")"
    echo "$smoke" | tail -n 1 | grep -q '"failed": 0' || {
        echo "$smoke"
        echo "fedbench smoke ($workload): failed operations"
        exit 1
    }
    values="$(echo "$smoke" | tail -n 1 | grep -o '"sim_[a-z0-9_]*": {"value": [^,}]*' \
        | sed -E "s/^\"(sim_[a-z0-9_]*)\": \{\"value\": (.*)\$/$workload \1 \2/")" || true
    [ -n "$values" ] || { echo "fedbench smoke ($workload) printed no sim_* value"; exit 1; }
    sim_values+="$values"$'\n'
    values="$(echo "$smoke" | tail -n 1 \
        | grep -oE '"[a-z0-9_.]+": \{"value": [^,}]*, "unit": "(count|rows)"\}' \
        | grep -v '"alloc.calls_per_op"' \
        | sed -E "s/^\"([a-z0-9_.]+)\": \{\"value\": ([^,]*), .*\$/$workload \1 \2/")" || true
    [ -n "$values" ] || { echo "fedbench smoke ($workload) printed no count value"; exit 1; }
    count_values+="$values"$'\n'
done
echo "== fedbench smoke sim_* values equal results/fedbench_smoke_sim.txt =="
diff results/fedbench_smoke_sim.txt <(printf '%s' "$sim_values") || {
    echo "== sim_* values =="
    printf '%s' "$sim_values"
    echo "a smoke's simulated numbers moved (< recorded, > this tree)"
    exit 1
}
echo "== fedbench smoke count values equal results/fedbench_smoke_counts.txt =="
diff results/fedbench_smoke_counts.txt <(printf '%s' "$count_values") || {
    echo "== count values =="
    printf '%s' "$count_values"
    echo "a smoke's counts moved (< recorded, > this tree)"
    exit 1
}

echo "== serve smoke (lake_shell --serve, fixed seed) =="
cargo run -q --offline --release -p fedlake-bench --bin lake_shell -- \
    --serve --scale 0.02 --seed 7 --clients 4 --queries-per-client 2 \
    --arrival 0.5 --in-flight 2 > /dev/null

echo "== serve smoke, recorded (lake_shell --serve --recorder + exports) =="
obs_tmp="$(mktemp -d)"
cargo run -q --offline --release -p fedlake-bench --bin lake_shell -- \
    --serve --scale 0.02 --seed 7 --clients 4 --queries-per-client 1 \
    --arrival 0.5 --in-flight 2 --recorder --watchdog \
    --slow-log "$obs_tmp/slow.json" --prom-out "$obs_tmp/metrics.prom" \
    --serve-trace "$obs_tmp/serve.trace.json" --serve-html "$obs_tmp/serve.html" > /dev/null
for f in slow.json metrics.prom serve.trace.json serve.html; do
    [ -s "$obs_tmp/$f" ] || { echo "missing serve export $f"; exit 1; }
done
rm -rf "$obs_tmp"

# A flag that cannot do what it says is a hard error (exit code 2), never a
# silent no-op: serve-only observability flags without --serve, and values
# that do not parse.
echo "== lake_shell flag validation (exit code 2, never a silent no-op) =="
expect_exit_2() {
    local status=0
    cargo run -q --offline --release -p fedlake-bench --bin lake_shell -- \
        "$@" --scale 0.02 --query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 1' \
        > /dev/null 2>&1 || status=$?
    [ "$status" -eq 2 ] || { echo "lake_shell $*: exit code $status, want 2"; exit 1; }
}
expect_exit_2 --watchdog
expect_exit_2 --scale x

# Clippy clean, warnings as errors. A function under crates/*/src is pub only
# when something outside its crate calls it (DESIGN §6), so rustc's
# dead_code lint sees every other caller: this step also fails on a
# crate-internal function that has lost its last non-test caller. It also
# holds the invariants the header names: a panic site outside a library
# crate's tests (unwrap, expect, panic!, unreachable!, todo!,
# unimplemented!) unless an item-level #[allow] carries its proof, an
# environment read or a thread_local! under crates/, and a LiftPlan or a
# VerdictKey built, or a plan lowered, outside the planner module.
# Rustdoc clean, warnings as errors: an intra-doc link to an item that is
# gone or private to its crate fails here. A compiler check, not a grep.
echo "== cargo doc -D warnings (offline) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo clippy -D warnings (offline) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "tier-1: OK (wall time ${SECONDS}s)"
