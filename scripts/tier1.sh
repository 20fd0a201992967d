#!/usr/bin/env bash
# Tier-1 gate: offline release build, the source greps, one test pass,
# fedbench's unit tests and its four workloads in smoke mode, the lake_shell
# surfaces, clippy clean.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --release --offline --workspace --all-targets

# Engine defaults are constants: no source file may read the environment,
# so a test means the same thing in every shell. (The trailing /* matters:
# git matches a wildcard pathspec against whole paths, so 'crates/*/src'
# alone selects no file and the gate would pass vacuously.)
echo "== no environment reads under crates/*/src =="
env_reads=0
git grep -n "std::env::var" -- 'crates/*/src/*' || env_reads=$?
# git grep exits 1 when nothing matches; 0 is a hit, anything else an error.
[ "$env_reads" -eq 1 ] || { echo "environment read under crates/*/src (or git grep failed)"; exit 1; }

# No process-global state: a cache or a delay tape belongs to one engine, so
# engines over one lake stay independent and a run stays a pure function of
# its seeds. No static item and no thread-local under crates/*/src.
echo "== no process-global state under crates/*/src =="
globals=0
git grep -nE '^\s*(pub(\([a-z]+\))? )?static |thread_local!' -- 'crates/*/src/*' || globals=$?
[ "$globals" -eq 1 ] || { echo "a static or thread-local is under crates/*/src (or git grep failed)"; exit 1; }

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

# A leaf lifts only the cells its plan reads, and what a plan reads is
# decided once, by the planner, and cached with the plan (DESIGN §19):
# deciding it each time a session opened the plan cost serve_open 3.5 %
# host_qps. So nothing in the wrapper, the engine's sessions or the serve
# loop builds a LiftPlan.
echo "== the lift plan is decided at plan time =="
lift_plan_builders=0
git grep -n 'LiftPlan::new\|lift_plans(' -- crates/core/src/wrapper crates/core/src/engine.rs \
    crates/core/src/serve.rs || lift_plan_builders=$?
[ "$lift_plan_builders" -eq 1 ] || { echo "a lift plan is built outside the planner (or git grep failed)"; exit 1; }
git grep -q 'LiftPlan::new' -- crates/core/src/planner.rs \
    || { echo "planner.rs builds no LiftPlan: the gate above matches nothing"; exit 1; }

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
echo "== fedbench unit tests =="
cargo test -q --offline --manifest-path fedbench/Cargo.toml

for workload in paper_matrix serve_open mutate_requery adhoc_cold; do
    echo "== fedbench smoke (run --quick --workload $workload) =="
    smoke="$(cargo run -q --offline --release --manifest-path fedbench/Cargo.toml -- \
        run --quick --workload "$workload")"
    echo "$smoke" | tail -n 1 | grep -q '"failed": 0' || {
        echo "$smoke"
        echo "fedbench smoke ($workload): failed operations"
        exit 1
    }
done

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

echo "== cargo clippy -D warnings (offline) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "tier-1: OK (wall time ${SECONDS}s)"
