#!/usr/bin/env bash
# Profiles one fedbench workload with the LD_PRELOAD sampler in scripts/prof/
# and prints self / inclusive tables and a call tree.
#
#   scripts/profile.sh <workload> [seed]
#   PROF_ROOT=FederatedEngine::serve scripts/profile.sh serve_open 7
#   python3 scripts/prof/sym.py .prof_build/serve_open.7.prof --lines 'FederatedEngine>::serve'
#   python3 scripts/prof/sym.py .prof_build/paper_matrix.7.prof --locked
#
# The last two lines read the same samples again. --lines splits one
# function's self samples by the source line of the innermost inlined frame
# (llvm-addr2line), which is where its self time goes when callees were
# inlined into it. --locked prints, per function, the share whose leaf sits
# right after a lock-prefixed instruction or an xchg (objdump), i.e. time
# spent on atomic counts, locks and atomic counters.
#
# Builds fedbench with frame pointers and line tables into its own target
# directory (.prof_build/, git-ignored), so neither the benchmark's nor the
# workspace's build is touched. The release profile strips debug info by
# default, so the build sets the profile's debug and strip keys rather than
# RUSTFLAGS' -C debuginfo (which leaves no .debug_line behind); the line
# tables feed sym.py --lines. Needs gcc, nm and python3 (and objdump for
# --locked); nothing else in the repository depends on this script.
# Environment: PROF_ROOT (tree root,
# default "main"), PROF_HZ (samples per CPU second, default 250),
# PROF_SECONDS (run length, default 20), PROF_ARGS (more sym.py options).
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seed]}"
seed="${2:-7}"
dir="$PWD/.prof_build"
mkdir -p "$dir"

gcc -O2 -shared -fPIC -o "$dir/prof.so" scripts/prof/prof.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir/target" \
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_PROFILE_RELEASE_STRIP=none \
    cargo build --release --offline --quiet --manifest-path fedbench/Cargo.toml

prof="$dir/$workload.$seed.prof"
PROF_OUT="$prof" LD_PRELOAD="$dir/prof.so" "$dir/target/release/fedbench" \
    run --workload "$workload" --seed "$seed" --seconds "${PROF_SECONDS:-20}" --trace 0 \
    > "$dir/$workload.$seed.log"
tail -n 1 "$dir/$workload.$seed.log" | grep -q '"failed": 0' \
    || echo "warning: the profiled run failed operations (see $dir/$workload.$seed.log)" >&2

# shellcheck disable=SC2086
python3 scripts/prof/sym.py "$prof" --root "${PROF_ROOT:-main}" ${PROF_ARGS:-}
