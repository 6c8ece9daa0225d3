#!/bin/bash
# Regenerate every paper figure/table. Scale via BTBSIM_WARMUP /
# BTBSIM_MEASURE / BTBSIM_TRACES.
#
# Each sim bench also writes machine-readable results to
# results/<bench>.json (schema documented in src/obs/export.h); inspect or
# regression-compare them with build/src/tools/btbsim-stats.
#
#   --record   Capture the server suite as .btbt traces under results/btbt
#              first (sized to the current env knobs; see btbsim-trace).
#   --replay   Run the benches from those recordings instead of live
#              stream generation, and report the wall clock saved against
#              the most recent live run.
#   --resume   Resume an interrupted sweep: completed points come back from
#              the run cache (BTBSIM_RUN_CACHE, default results/cache) and
#              only the remaining ones are simulated.
#   --fresh    Drop the run cache first so every point simulates cold.
set -euo pipefail
cd "$(dirname "$0")"

record=0
replay=0
resume=0
fresh=0
for arg in "$@"; do
    case "$arg" in
        --record) record=1 ;;
        --replay) replay=1 ;;
        --resume) resume=1 ;;
        --fresh) fresh=1 ;;
        *)
            echo "usage: $0 [--record] [--replay] [--resume] [--fresh]" >&2
            exit 2
            ;;
    esac
done

mkdir -p results
trace_dir=results/btbt
cache_dir=${BTBSIM_RUN_CACHE:-results/cache}

# Per-bench result JSON. An externally-set BTBSIM_JSON_OUT names the
# output *directory* (default results/); every bench writes its own
# <dir>/<bench>.json. BTBSIM_JSON_OUT=0 disables JSON output.
json_dir=results
json_enabled=1
case "${BTBSIM_JSON_OUT:-}" in
    "" | 1 | true) ;;
    0) json_enabled=0 ;;
    *) json_dir=$BTBSIM_JSON_OUT ;;
esac
[[ $json_enabled -eq 1 ]] && mkdir -p "$json_dir"

if [[ $fresh -eq 1 && "$cache_dir" != 0 ]]; then
    echo "=== dropping run cache $cache_dir ==="
    rm -rf "$cache_dir"
fi
if [[ $resume -eq 1 ]]; then
    export BTBSIM_RESUME=1
    echo "=== resuming from run cache $cache_dir ==="
fi

if [[ $record -eq 1 ]]; then
    echo "=== recording suite traces -> $trace_dir ==="
    ./build/src/tools/btbsim-trace record --out "$trace_dir"
    ./build/src/tools/btbsim-trace verify "$trace_dir"/*.btbt
fi

if [[ $replay -eq 1 ]]; then
    if ! ls "$trace_dir"/*.btbt >/dev/null 2>&1; then
        echo "no traces in $trace_dir; run '$0 --record' first" >&2
        exit 2
    fi
    export BTBSIM_TRACE_DIR="$trace_dir"
    echo "=== replaying traces from $trace_dir ==="
fi

SECONDS=0
declare -A json_path_for
for b in build/bench/bench_*; do
    [[ -f "$b" && -x "$b" ]] || continue
    name=$(basename "$b")
    # Basename-uniqueness guard: two benches mapping onto the same
    # <json_dir>/<name>.json would have the later one silently
    # overwrite the earlier one's results.
    if [[ -n "${json_path_for[$name]:-}" ]]; then
        echo "error: bench basename collision: '$b' and" \
             "'${json_path_for[$name]}' would both write" \
             "$json_dir/${name}.json" >&2
        exit 2
    fi
    json_path_for[$name]=$b
    echo "=== $name ==="
    # bench_simspeed writes its own host-throughput JSON schema
    # (btbsim-simspeed-v1); bench_characterization (analyzer-only)
    # produces no result JSON, so the env knob is a no-op there.
    if [[ $json_enabled -eq 1 ]]; then
        BTBSIM_JSON_OUT="$json_dir/${name}.json" "$b" 2>&1 |
            tee "results/$name.txt"
    else
        BTBSIM_JSON_OUT=0 "$b" 2>&1 | tee "results/$name.txt"
    fi
done
elapsed=$SECONDS

if [[ $replay -eq 1 ]]; then
    if [[ -f results/.wall_live ]]; then
        live=$(cat results/.wall_live)
        echo "=== replay wall clock: ${elapsed}s (last live run: ${live}s," \
             "saved $((live - elapsed))s) ==="
    else
        echo "=== replay wall clock: ${elapsed}s (no live baseline yet) ==="
    fi
else
    echo "$elapsed" >results/.wall_live
    echo "=== live wall clock: ${elapsed}s ==="
fi
