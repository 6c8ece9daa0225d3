#!/usr/bin/env bash
# Zero-threshold identity gate: run every result-JSON bench with pinned
# knobs on this tree and on a baseline, then require that every run's
# simulated results are identical (btbsim-stats diff --threshold 0 plus
# an exact comparison of each run's stats, counters and interval samples
# and of the per-config aggregates).
#
#   scripts/identity_gate.sh [BASE_REV]
#
# The baseline is either GOLD=<dir> holding <bench>.json files produced
# by a parent build with the same knobs, or, when GOLD is unset, the
# bench JSONs of BASE_REV. BASE_REV defaults to HEAD when the work tree
# has uncommitted changes to tracked files, else to the merge base of
# HEAD and origin/main, else to HEAD~1. That revision is exported with
# git archive and built under $OUT/base.
#
#   BUILD  this tree's Release build (default <repo>/build-rel; configured
#          and built when missing)
#   OUT    work directory (default <BUILD>/identity_gate)
#   JOBS   build parallelism (default nproc)
#
# Exit status: 0 when every bench runs cleanly on both trees and
# matches, 1 otherwise.
set -u
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${BUILD:-$ROOT/build-rel}
OUT=${OUT:-$BUILD/identity_gate}
JOBS=${JOBS:-$(nproc)}
export BTBSIM_WARMUP=20000 BTBSIM_MEASURE=50000 BTBSIM_TRACES=2 BTBSIM_RUN_CACHE=0
BENCHES="bench_ablation_blockend bench_ablation_mbbtb bench_btb_prefetch
bench_fig10_fetchpcs bench_fig11a_ideal_backend bench_fig11b_bp_sweep
bench_fig4_ideal_orgs bench_fig5_realistic bench_fig7_rbtb
bench_fig8_bbtb_mbbtb bench_fig9_blocksize bench_hetero bench_taken_penalty"

# build SRC_DIR BUILD_DIR: Release build of the benches and btbsim-stats.
build() {
    if [ ! -f "$2/CMakeCache.txt" ]; then
        cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null || return 1
    fi
    # shellcheck disable=SC2086
    cmake --build "$2" -j "$JOBS" --target $BENCHES btbsim-stats >/dev/null
}

fail=0

# run_benches BUILD_DIR DEST_DIR: a bench that exits nonzero fails the
# gate; no JSON from an earlier run survives to be compared.
run_benches() {
    mkdir -p "$2"
    for b in $BENCHES; do
        rm -f "$2/$b.json"
        if ! BTBSIM_JSON_OUT="$2/$b.json" "$1/bench/$b" >/dev/null 2>&1; then
            echo "RUN-FAIL $b ($1)"
            fail=1
        fi
    done
}

mkdir -p "$OUT"
build "$ROOT" "$BUILD" || { echo "build of this tree failed"; exit 1; }

if [ -z "${GOLD:-}" ]; then
    if [ -n "${1:-}" ]; then
        BASE_REV=$1
    elif ! git -C "$ROOT" diff --quiet HEAD --; then
        BASE_REV=$(git -C "$ROOT" rev-parse HEAD)
    else
        BASE_REV=$(git -C "$ROOT" merge-base HEAD origin/main 2>/dev/null ||
                   git -C "$ROOT" rev-parse HEAD~1)
    fi
    echo "baseline: $BASE_REV"
    rm -rf "$OUT/base/src"
    mkdir -p "$OUT/base/src"
    git -C "$ROOT" archive "$BASE_REV" | tar -x -C "$OUT/base/src" ||
        { echo "cannot export $BASE_REV"; exit 1; }
    build "$OUT/base/src" "$OUT/base/build" ||
        { echo "build of $BASE_REV failed"; exit 1; }
    GOLD=$OUT/base/json
    run_benches "$OUT/base/build" "$GOLD"
fi
run_benches "$BUILD" "$OUT/new"

for b in $BENCHES; do
    old=$GOLD/$b.json new=$OUT/new/$b.json
    if [ ! -s "$old" ] || [ ! -s "$new" ]; then
        echo "MISSING $b"
        fail=1
        continue
    fi
    if "$BUILD/src/tools/btbsim-stats" diff "$old" "$new" --threshold 0 \
           >/dev/null 2>&1 &&
       python3 - "$old" "$new" <<'EOF'
import json, sys

def simulated(path):
    doc = json.load(open(path))
    runs = {(r["config"], r["workload"]):
            {k: r.get(k) for k in ("stats", "counters", "samples")}
            for r in doc["runs"]}
    return runs, doc.get("aggregates")

sys.exit(0 if simulated(sys.argv[1]) == simulated(sys.argv[2]) else 1)
EOF
    then
        echo "OK   $b"
    else
        echo "DIFF $b"
        fail=1
    fi
done
exit $fail
