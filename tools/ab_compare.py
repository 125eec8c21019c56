#!/usr/bin/env python3
"""Interleaved parent/change comparison on the repository benchmark.

Builds a parent revision from ``git archive`` into a scratch directory
and runs ``perfbench/run.py --trace 0`` for N pairs per workload, the
parent and the working tree alternating which side runs first, so slow
drift of a shared host hits both sides alike. Every run lasts the
benchmark's own ``run_seconds`` (BENCHMARK.json), so the pairs measure
what the benchmark measures. Per workload and end-to-end
metric it prints each side's median and q1-q3, the change/parent ratio
of the medians, how many pairs the change won (by the metric's
direction in BENCHMARK.json) and a two-sided sign-test p-value.

A metric is flagged (``better``/``worse``) when the sign test rejects
"no difference" at p < 0.05 AND the gap between the medians exceeds the
parent's q1-q3 spread; otherwise it reads ``same``.

Usage:
  ab_compare.py --parent REF [--workload W ...] [--pairs 10]
                [--seed SEED] [--scratch DIR]
  ab_compare.py --self-test

No dependencies beyond the standard library, no network. The parent's
and the change's perfbench builds live in their own checkouts
(``.bench_build/``); nothing under perfbench/ is modified. The self-test
fabricates samples and checks that an injected 1.3x slowdown is flagged
and an unchanged pair is not; CTest runs it as
``tools.ab_compare_selftest``.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wcet_con", "mesh_corun", "adaptive_stream")
# The self-test's metric directions (those of the repository benchmark).
DEFAULT_DIRECTIONS = {"runs_per_sec": "higher", "ns_per_sim_cycle": "lower",
                      "peak_rss_mb": "lower", "setup_s": "lower",
                      "ok_frac": "higher"}


def benchmark(root):
    """(run_seconds, {metric: "lower"/"higher"}) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (float(spec["run_seconds"]),
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def quartiles(xs):
    """(q1, median, q3), inclusive method; a single sample is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def sign_test(wins, losses):
    """Two-sided exact binomial sign test over the untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def compare(parent, change, better):
    """Summary of paired samples (parent[i], change[i]) of one metric."""
    assert len(parent) == len(change) and parent
    wins = losses = 0
    for p, c in zip(parent, change):
        if c == p:
            continue
        change_better = c < p if better == "lower" else c > p
        if change_better:
            wins += 1
        else:
            losses += 1
    pq1, pmed, pq3 = quartiles(sorted(parent))
    cq1, cmed, cq3 = quartiles(sorted(change))
    p_value = sign_test(wins, losses)
    verdict = "same"
    if p_value < 0.05 and abs(cmed - pmed) > pq3 - pq1:
        improved = cmed < pmed if better == "lower" else cmed > pmed
        verdict = "better" if improved else "worse"
    return {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
            "ratio": cmed / pmed if pmed else float("nan"),
            "wins": wins, "pairs": len(parent), "p": p_value,
            "verdict": verdict}


def report(workload, samples, dirs, out=sys.stdout):
    """Print one workload's table; returns {metric: compare() result}."""
    results = {}
    out.write("%s (%d pairs)\n" % (workload, len(samples)))
    for metric in sorted(samples[0][0]):
        if metric not in dirs:
            continue
        parent = [p[metric] for p, _ in samples]
        change = [c[metric] for _, c in samples]
        r = compare(parent, change, dirs[metric])
        results[metric] = r
        out.write("  %-18s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, "
                  "%.6g]  ratio %.4f  wins %d/%d  p %.4g  %s\n"
                  % ((metric,) + r["parent"] + r["change"] +
                     (r["ratio"], r["wins"], r["pairs"], r["p"],
                      r["verdict"])))
    return results


def export_parent(ref, scratch):
    """`git archive` the parent revision into scratch/parent-<sha>."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", ref],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    dest = os.path.join(scratch, "parent-" + sha[:12])
    if os.path.isfile(os.path.join(dest, "perfbench", "run.py")):
        return dest
    os.makedirs(dest, exist_ok=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                       check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest)
    return dest


def run_side(checkout, workload, seconds, seed):
    """One perfbench run; returns {metric: value} from its final line."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("perfbench failed in %s (exit %d)"
                         % (checkout, proc.returncode))
    record = json.loads(lines[-1])
    return {name: m["value"] for name, m in record["metrics"].items()}


def run_pairs(args):
    scratch = os.path.abspath(args.scratch)
    parent = export_parent(args.parent, scratch)
    seconds, dirs = benchmark(ROOT)
    print("each run lasts %g s (BENCHMARK.json run_seconds)" % seconds)
    for workload in args.workload or WORKLOADS:
        samples = []
        for i in range(args.pairs):
            order = [("parent", parent), ("change", ROOT)]
            if i % 2 == 1:
                order.reverse()
            got = {side: run_side(checkout, workload, seconds, args.seed)
                   for side, checkout in order}
            samples.append((got["parent"], got["change"]))
            sys.stderr.write("%s pair %d/%d done\n"
                             % (workload, i + 1, args.pairs))
        report(workload, samples, dirs)


def self_test():
    dirs = dict(DEFAULT_DIRECTIONS)
    rng = random.Random(12)
    pairs = 10
    base = [11.9 * (1 + rng.uniform(-0.04, 0.04)) for _ in range(pairs)]
    noise = [11.9 * (1 + rng.uniform(-0.04, 0.04)) for _ in range(pairs)]
    slow = [b * 1.3 for b in base]

    def samples(parent_ns, change_ns):
        return [({"ns_per_sim_cycle": p, "runs_per_sec": 100.0 / p,
                  "ok_frac": 1.0},
                 {"ns_per_sim_cycle": c, "runs_per_sec": 100.0 / c,
                  "ok_frac": 1.0})
                for p, c in zip(parent_ns, change_ns)]

    sink = open(os.devnull, "w")
    problems = []
    slowed = report("injected-slowdown", samples(base, slow), dirs, sink)
    for metric in ("ns_per_sim_cycle", "runs_per_sec"):
        if slowed[metric]["verdict"] != "worse":
            problems.append("a 1.3x slowdown of %s was not flagged" % metric)
    if slowed["ok_frac"]["verdict"] != "same":
        problems.append("an unchanged ok_frac was flagged")
    same = report("unchanged", samples(base, noise), dirs, sink)
    for metric, r in same.items():
        if r["verdict"] != "same":
            problems.append("an unchanged %s was flagged %s"
                            % (metric, r["verdict"]))
    if abs(sign_test(10, 0) - 2.0 / 1024) > 1e-12 or sign_test(0, 0) != 1.0:
        problems.append("sign test p-values are wrong")
    if quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) != (2.0, 3.0, 4.0):
        problems.append("quartiles are wrong")
    for problem in problems:
        print("SELF-TEST FAILED: " + problem)
    if not problems:
        print("ab_compare self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git ref of the parent revision")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--scratch", default=os.path.join(
        tempfile.gettempdir(), "ab_compare"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent:
        parser.error("--parent is required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    run_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
