#!/usr/bin/env bash
# Runs alternating fedbench pairs of a parent revision and the working tree
# and prints the pair tables a performance claim is judged by.
#
#   scripts/pairs.sh <workload|all> <parent-rev> <seed>...
#   scripts/pairs.sh paper_matrix HEAD~1 201 202 203 204 205 206 207 208 209 210
#
# The parent is extracted with `git archive` into .pairs_build/ (git-ignored)
# and its fedbench built there; the working tree's fedbench is built in
# place, as the benchmark builds it. Each seed is one pair of
# `fedbench run --trace 0` runs (the benchmark's own 20 s per workload); the
# first side alternates, the parent going first on the first seed. Every
# run's output stays in .pairs_build/runs/.
#
# Prints every pair, then per workload and end-to-end metric of
# BENCHMARK.json: each side's quartiles and median, the change in the
# median, the parent's interquartile range, and in how many pairs the change
# reads better (ties count for neither side). Exits 1 when a sim_* metric
# differs between the two sides of a pair, or a run failed an operation.
# Environment: PAIRS_SECONDS (run length, default the benchmark's own).
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/pairs.sh <workload|all> <parent-rev> <seed>...}"
rev="${2:?usage: scripts/pairs.sh <workload|all> <parent-rev> <seed>...}"
shift 2
[ "$#" -gt 0 ] || { echo "usage: scripts/pairs.sh <workload|all> <parent-rev> <seed>..."; exit 2; }

root="$PWD"
dir="$root/.pairs_build"
sha="$(git rev-parse --short=12 "$rev^{commit}")"
parent="$dir/parent-$sha"
runs="$dir/runs"
mkdir -p "$runs"

if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
echo "building fedbench: parent $sha" >&2
cargo build --release --offline --quiet --manifest-path "$parent/fedbench/Cargo.toml"
echo "building fedbench: working tree" >&2
cargo build --release --offline --quiet --manifest-path "$root/fedbench/Cargo.toml"

args=(run --trace 0)
[ "$workload" = all ] || args+=(--workload "$workload")
[ -z "${PAIRS_SECONDS:-}" ] || args+=(--seconds "$PAIRS_SECONDS")

# run <side> <checkout> <seed>: one fedbench run from its own checkout.
run() {
    local log="$runs/$3.$1.log"
    echo "seed $3: $1" >&2
    (cd "$2" && ./fedbench/target/release/fedbench "${args[@]}" --seed "$3") > "$log"
}

i=0
for seed in "$@"; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$parent" "$seed"
    fi
    i=$((i + 1))
done

python3 - "$runs" "$sha" "$@" <<'EOF'
import json, statistics, sys

runs, sha, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
contract = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["better"]) for m in contract["end_to_end"]]
sim = [name for name, _ in metrics if name.startswith("sim_")]

def results(path):
    """{workload: result JSON} from one run's output."""
    out, name = {}, None
    for line in open(path):
        if line.startswith("== fedbench "):
            name = line.split()[2]
        elif line.startswith("{") and name:
            out[name] = json.loads(line)
    return out

def fmt(v):
    if v == 0 or abs(v) >= 100:
        return f"{v:,.1f}".replace(",", " ")
    return f"{v:.4g}"

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

pairs = []  # (seed, first, workload, parent result, change result)
for i, seed in enumerate(seeds):
    p, c = results(f"{runs}/{seed}.parent.log"), results(f"{runs}/{seed}.change.log")
    for w in p:
        pairs.append((seed, "parent" if i % 2 == 0 else "change", w, p[w], c[w]))

def value(r, name):
    return r["metrics"][name]["value"]

bad = []
print(f"## Every pair (P = parent {sha}, C = working tree)\n")
shown = ["host_qps", "host_p50_us", "host_p90_us", "setup_s", "alloc_kb_per_op", "peak_live_mb"]
print("| seed | first | workload | " + " | ".join(f"{m} P / C" for m in shown) + " | sim_* equal | failed P / C |")
print("|---" * (len(shown) + 5) + "|")
for seed, first, w, p, c in pairs:
    same = all(value(p, m) == value(c, m) for m in sim)
    if not same:
        bad.append(f"seed {seed} {w}: sim_* differ")
    if p["failed"] or c["failed"]:
        bad.append(f"seed {seed} {w}: failed {p['failed']} / {c['failed']}")
    cells = [f"{fmt(value(p, m))} / {fmt(value(c, m))}" for m in shown]
    print(f"| {seed} | {first} | {w} | " + " | ".join(cells) + f" | {'yes' if same else 'NO'} | {p['failed']} / {c['failed']} |")

print(f"\n## Medians and quartiles ({len(seeds)} pairs)\n")
print("| workload | metric | parent q1 / median / q3 | change q1 / median / q3 | Δ median | parent IQR | change better |")
print("|---|---|---|---|---|---|---|")
for w in dict.fromkeys(w for _, _, w, _, _ in pairs):
    rows = [(p, c) for _, _, x, p, c in pairs if x == w]
    for name, better in metrics:
        ps = [value(p, name) for p, _ in rows]
        cs = [value(c, name) for _, c in rows]
        pq, cq = quartiles(ps), quartiles(cs)
        delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(ps, cs) if sign * (b - a) > 0)
        ties = sum(1 for a, b in zip(ps, cs) if a == b)
        won = f"{wins}/{len(rows)}" + (f" ({ties} equal)" if ties else "")
        print(f"| {w} | {name} | {' / '.join(map(fmt, pq))} | {' / '.join(map(fmt, cq))} | {delta:+.2f} % | {fmt(pq[2] - pq[0])} | {won} |")

for b in bad:
    print(b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
