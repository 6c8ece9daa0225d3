#!/usr/bin/env python3
"""Build and run the btbsim host-speed benchmark.

    python3 perfbench/run.py --workload <olap-backend|mono-frontend|fig5-sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/ together with the
simulator library from src/ in Release mode under $CARGO_TARGET_DIR
(default .bench_build), then runs one workload in one process. Build
output goes to stderr; the last line of stdout is the JSON result. The
exit code is the harness's: 0 when every simulated point passed its
checks, 1 when one failed, 2 when the build or the arguments failed.

Seeds: 1 is the default seed the benchmark was tuned on; 7 is held out
for confirming claims (see METRICS.md).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def build(build_dir: Path) -> Path:
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    # Self-test knobs (selftest.py): a tiny run, and a deliberately
    # corrupted SimStats value that the checks must catch.
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--corrupt", choices=["range", "identity"])
    args = ap.parse_args()

    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(root / "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale,
           "--data-dir", str(root / "perfbench-data")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
