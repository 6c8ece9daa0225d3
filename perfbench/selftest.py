#!/usr/bin/env python3
"""Self-test of the btbsim benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json it
runs the benchmark at tiny scale and asserts that

  * with --trace 0 and --trace 1 the result names exactly the end-to-end
    and per-layer metrics of BENCHMARK.json, each with its unit, and no
    point failed (failed_frac is 0);
  * a deliberately corrupted SimStats value trips the checks: an
    out-of-range IPC (--corrupt range) and a statistic that differs from
    an earlier run of the same point (--corrupt identity) each make the
    run report a failed point and exit 1.

Exits 0 when every assertion holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, corrupt=None):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--scale", "tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def main():
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = run(name, trace)
            tag = "%s --trace %d" % (name, trace)
            check(code == 0 and res is not None, tag + ": exits 0 with a result")
            if res is None:
                sys.stderr.write(err)
                continue
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, tag + ": prints every metric with its unit")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0, tag + ": no point failed")
            if trace == 1:
                check(res["metrics"]["failed_frac"]["value"] == 0,
                      tag + ": failed_frac is 0")

        for trace, corrupt in ((0, "range"), (1, "identity")):
            code, res, _ = run(name, trace, corrupt)
            check(code == 1 and res is not None and not res["correct"] and
                  res["failed"] >= 1,
                  "%s --corrupt %s: the check trips" % (name, corrupt))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
