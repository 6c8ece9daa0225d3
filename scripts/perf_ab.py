#!/usr/bin/env python3
"""Interleaved A/B of perfbench between two source trees.

    scripts/perf_ab.py [--base REV|DIR] [--change DIR]
                       [--workloads W ...] [--seeds N ...] [--pairs K]
                       [--seconds S] [--scale full|tiny] [--out DIR]

Run it from anywhere inside the repository. --base is a git revision
(default HEAD), exported with `git archive`, or an existing source
directory; --change is a source directory (default: this working tree).
Each side's perfbench is built by its own perfbench/run.py with the same
settings (Release, one build directory per side under --out). Then, for
every workload and seed, K pairs of runs are made, alternating which
side runs first.

For each end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side), the ratio of the medians (change / base) with a
bootstrap 95% CI over the pairs, whether the change's median is within
the metric's bound, and whether a gain claim holds: the change wins at
least nine tenths of the pairs and the medians differ by more than the
base's interquartile range.

Exit status: 0 when every run succeeded and both sides printed the same
stats_digest for each workload and seed, 1 when a run failed or the
digests differ, 2 on a usage or build error.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ["olap-backend", "mono-frontend", "fig5-sweep"]
BOOTSTRAP_ROUNDS = 2000


def die(msg):
    sys.stderr.write("perf_ab: %s\n" % msg)
    sys.exit(2)


def export_rev(rev, dest):
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        die("cannot export revision %s" % rev)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return dest


class Side:
    def __init__(self, name, tree, build_dir):
        self.name = name
        self.tree = tree
        self.build_dir = build_dir

    def run(self, workload, seed, seconds, scale):
        """One perfbench run: (metrics dict, digest) or None on failure."""
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.build_dir))
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--scale", scale]
        r = subprocess.run(cmd, cwd=self.tree, env=env, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if r.returncode == 2:
            sys.stderr.write(r.stderr)
            die("%s: build or usage error" % self.name)
        lines = r.stdout.strip().splitlines()
        digest = next((l.split()[-1] for l in lines
                       if l.startswith("stats_digest ")), None)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            doc = None
        if r.returncode != 0 or doc is None or digest is None:
            sys.stderr.write(r.stdout + r.stderr)
            return None
        metrics = {k: v["value"] for k, v in doc["metrics"].items()}
        return metrics, digest


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def ratio_ci(base, change, rng):
    """Bootstrap 95% CI of median(change) / median(base) over pairs."""
    n = len(base)
    ratios = []
    for _ in range(BOOTSTRAP_ROUNDS):
        idx = [rng.randrange(n) for _ in range(n)]
        b = statistics.median(base[i] for i in idx)
        c = statistics.median(change[i] for i in idx)
        if b > 0:
            ratios.append(c / b)
    ratios.sort()
    if not ratios:
        return float("nan"), float("nan")
    return (ratios[int(0.025 * (len(ratios) - 1))],
            ratios[int(0.975 * (len(ratios) - 1))])


def summarize(metric, base, change, rng):
    higher = metric["better"] == "higher"
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change)
               if (c > b if higher else c < b))
    gap = (c_med - b_med) if higher else (b_med - c_med)
    worse = -gap / b_med if b_med else 0.0
    lo, hi = ratio_ci(base, change, rng)
    return {
        "metric": metric["name"],
        "better": metric["better"],
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change},
        "wins": wins,
        "pairs": len(base),
        "ratio": c_med / b_med if b_med else float("nan"),
        "ratio_ci95": [lo, hi],
        "within_bound": worse <= metric["bound"],
        "gain_rule": wins >= 0.9 * len(base) and gap > (b_q3 - b_q1),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--change", default=str(REPO))
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--out", help="build/export directory (default: temp)")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    if args.pairs < 1:
        die("--pairs must be >= 1")

    change_tree = Path(args.change).resolve()
    spec_path = change_tree / "BENCHMARK.json"
    if not spec_path.is_file():
        die("%s has no BENCHMARK.json" % change_tree)
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    out = Path(args.out or tempfile.mkdtemp(prefix="perf_ab."))
    out.mkdir(parents=True, exist_ok=True)

    base_tree = Path(args.base)
    if not base_tree.is_dir():
        base_tree = export_rev(args.base, out / "base-src")
    sides = [Side("base", base_tree.resolve(), out / "base-build"),
             Side("change", change_tree, out / "change-build")]

    rng = random.Random(12345)
    failed = False
    for workload in args.workloads:
        for seed in args.seeds:
            runs = {"base": [], "change": []}
            digests = {"base": set(), "change": set()}
            for i in range(args.pairs):
                order = sides if i % 2 == 0 else sides[::-1]
                pair = {}
                for side in order:
                    got = side.run(workload, seed, seconds, args.scale)
                    if got is None:
                        print("%s %s seed %d pair %d: run FAILED"
                              % (side.name, workload, seed, i))
                        failed = True
                        continue
                    pair[side.name] = got[0]
                    digests[side.name].add(got[1])
                if len(pair) == 2: # a pair with a failed run is dropped
                    for name, metrics in pair.items():
                        runs[name].append(metrics)
            same = (len(digests["base"]) == 1
                    and digests["base"] == digests["change"])
            print("== %s seed %d: %d pairs of %g s (%s scale), "
                  "stats_digest %s"
                  % (workload, seed, args.pairs, seconds, args.scale,
                     "identical" if same else "DIFFERS"))
            if not same:
                failed = True
                print("   base %s\n   change %s"
                      % (sorted(digests["base"]), sorted(digests["change"])))
            n = len(runs["base"])
            if n == 0:
                continue
            print("   %-16s %-26s %-26s %5s %-22s %5s %4s"
                  % ("metric", "base median [q1, q3]",
                     "change median [q1, q3]", "wins", "ratio [95% CI]",
                     "bound", "gain"))
            for metric in spec["end_to_end"]:
                name = metric["name"]
                s = summarize(metric,
                              [r[name] for r in runs["base"]],
                              [r[name] for r in runs["change"]], rng)
                s.update(workload=workload, seed=seed)
                fmt = lambda d: "%.4g [%.4g, %.4g]" % (
                    d["median"], d["q1"], d["q3"])
                print("   %-16s %-26s %-26s %2d/%-2d %.3f [%.3f, %.3f] %5s %4s"
                      % (name, fmt(s["base"]), fmt(s["change"]), s["wins"],
                         s["pairs"], s["ratio"], s["ratio_ci95"][0],
                         s["ratio_ci95"][1],
                         "ok" if s["within_bound"] else "WORSE",
                         "yes" if s["gain_rule"] else "no"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
