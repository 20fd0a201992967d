#!/usr/bin/env bash
# Tier-1 gate: offline release build, full test suite, clippy clean.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --release --offline --workspace --all-targets

echo "== cargo test -q (offline) =="
cargo test -q --offline --workspace

# Scheduler equivalence: overlapped execution must be answer-identical to
# serialized and strictly faster on multi-source queries with delay.
echo "== overlap equivalence =="
cargo test -q --offline --test overlap_equivalence

# Seeded chaos suite: CHAOS_ITERS fault schedules per query/profile cell,
# run under both schedules (FEDLAKE_OVERLAP=1 switches the suite to the
# event-driven scheduler). The default (32) is the gate; raise for soak
# runs, e.g.
#   CHAOS_ITERS=512 scripts/tier1.sh
echo "== chaos suite, serialized (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, overlapped (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_OVERLAP=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# Observability: span-tree/reconciliation/determinism invariants of the
# trace recorder, plus one chaos pass with tracing enabled — recording is
# contractually passive, so every chaos property must hold unchanged.
echo "== trace invariants =="
cargo test -q --offline --test trace_invariants

echo "== chaos suite, traced (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_TRACE=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# Replicas: FEDLAKE_REPLICAS=2 reruns the chaos property test with every
# source replicated two ways, so fault schedules also exercise replica
# failover and health-aware routing — under both schedules and with the
# trace recorder attached.
echo "== chaos suite, replicas (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_REPLICAS=2 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, replicas + overlapped (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_REPLICAS=2 FEDLAKE_OVERLAP=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, replicas + traced (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_REPLICAS=2 FEDLAKE_TRACE=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# Vectorized execution: FEDLAKE_BATCH=1 flips PlanConfig::default() to the
# batched driver, so the whole suite — equivalence, chaos, tracing —
# re-runs over RowBatch morsels. Plain, overlapped, traced and chaos
# passes mirror the row-mode gates above.
echo "== full suite, batched =="
FEDLAKE_BATCH=1 cargo test -q --offline --workspace

echo "== overlap equivalence, batched =="
FEDLAKE_BATCH=1 cargo test -q --offline --test overlap_equivalence

echo "== trace invariants, batched =="
FEDLAKE_BATCH=1 cargo test -q --offline --test trace_invariants

echo "== chaos suite, batched (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_BATCH=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, batched + overlapped (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_BATCH=1 FEDLAKE_OVERLAP=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, batched + traced (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_BATCH=1 FEDLAKE_TRACE=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# Cost-based planning: FEDLAKE_COST=1 flips PlanConfig::default() to the
# statistics-driven cost-based planner, so the whole suite — equivalence,
# chaos, tracing — re-runs over cost-ordered plans with bind joins chosen
# from the statistics catalog. The dedicated cost suite runs in the plain
# workspace pass above; here the other gates repeat under cost plans.
echo "== full suite, cost-based =="
FEDLAKE_COST=1 cargo test -q --offline --workspace

echo "== overlap equivalence, cost-based =="
FEDLAKE_COST=1 cargo test -q --offline --test overlap_equivalence

echo "== chaos suite, cost-based (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_COST=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, cost-based + overlapped (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_COST=1 FEDLAKE_OVERLAP=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, cost-based + traced (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_COST=1 FEDLAKE_TRACE=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# Serving layer: the determinism contract (same seed → bit-identical
# answers, stats and report; every served answer byte-equal to its solo
# execution), exact contention bounds under a constant-delay link,
# deadline isolation and the admission-gauge bound — plus a fixed-seed
# FEDLAKE_SERVE=1 mini-load smoke through the full lake_shell path.
echo "== serve determinism =="
FEDLAKE_SERVE=1 cargo test -q --offline --test serve_determinism

echo "== serve contention =="
cargo test -q --offline --test serve_contention

# Fleet observability: the flight recorder's passivity/determinism
# contract, the slow-query-log golden snapshot and the three watchdog
# anomaly families — then the serve and chaos determinism gates re-run
# with FEDLAKE_RECORDER=1, so every default-config engine records while
# the contracts above must hold unchanged (recording is passive).
echo "== fleet observability =="
cargo test -q --offline --test fleet_observability

echo "== serve determinism, recorded =="
FEDLAKE_RECORDER=1 FEDLAKE_SERVE=1 cargo test -q --offline --test serve_determinism

echo "== chaos suite, recorded (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_RECORDER=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, recorded + traced (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_RECORDER=1 FEDLAKE_TRACE=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# Normalized plan cache: the dedicated equivalence suite (cache hits must
# replay byte-identical plans; mutations, drift and health flips must
# invalidate exactly the affected entries), then FEDLAKE_PLAN_CACHE=1
# flips PlanConfig::default() so the workspace, serve and chaos gates
# re-run with every repeat query served from the cache — the cache is
# contractually invisible, so every property must hold unchanged.
echo "== plan cache equivalence =="
cargo test -q --offline --test plan_cache

echo "== full suite, plan-cached =="
FEDLAKE_PLAN_CACHE=1 cargo test -q --offline --workspace

echo "== serve determinism, plan-cached =="
FEDLAKE_PLAN_CACHE=1 FEDLAKE_SERVE=1 cargo test -q --offline --test serve_determinism

echo "== chaos suite, plan-cached (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_PLAN_CACHE=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

echo "== chaos suite, plan-cached + cost-based (CHAOS_ITERS=${CHAOS_ITERS:-32}) =="
FEDLAKE_PLAN_CACHE=1 FEDLAKE_COST=1 CHAOS_ITERS="${CHAOS_ITERS:-32}" cargo test -q --offline --test chaos_federation

# One cache contract: a warm engine must see every write — answers equal
# to the oracle and to a fresh engine, FedStats included — across the
# three planners, both schedules, solo and served.
echo "== cache invalidation =="
cargo test -q --offline --test cache_invalidation

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
    --serve --scale 0.02 --seed 7 --clients 4 --queries-per-client 1 \
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

echo "== serve smoke, plan-cached (lake_shell --serve --plan-cache) =="
cargo run -q --offline --release -p fedlake-bench --bin lake_shell -- \
    --serve --scale 0.02 --seed 7 --clients 4 --queries-per-client 2 \
    --arrival 0.5 --in-flight 2 --plan-cache > /dev/null

# Serve-only observability flags without --serve are a hard error (exit
# code 2), never a silent no-op.
echo "== lake_shell flag validation (obs flags require --serve) =="
if cargo run -q --offline --release -p fedlake-bench --bin lake_shell -- \
    --watchdog --query 'SELECT ?s WHERE { ?s ?p ?o }' > /dev/null 2>&1; then
    echo "lake_shell accepted --watchdog without --serve"
    exit 1
fi

echo "== cargo clippy -D warnings (offline) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "tier-1: OK (wall time ${SECONDS}s)"
