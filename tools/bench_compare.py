#!/usr/bin/env python3
"""CI bench-baseline ratio gate.

Compares Google-Benchmark JSON results (``--benchmark_out``) against the
pinned reference numbers in ``bench/baselines.json`` (derived from
docs/BASELINES.md) and fails on a >threshold throughput regression.

Each benchmark is read from its ``median`` aggregate row, which
``--benchmark_repetitions=5 --benchmark_report_aggregates_only=true``
produces; a single repetition is close to noise on campaign benchmarks.
A benchmark reported without aggregates (one repetition) falls back to
its iteration row.

Because CI runners are not the pinned reference machine, absolute times
are meaningless there; the gate therefore normalises by the MEDIAN
current/baseline ratio across all matched benchmarks (the machine-speed
factor) and flags benchmarks whose own ratio exceeds the median by more
than ``--threshold``. A uniform slowdown (slower machine) passes; one
benchmark regressing relative to the others (the case a code change
causes) fails. ``--warn-only`` downgrades failures to warnings for
unpinned/noisy runners.

Usage:
  bench_compare.py [--baseline bench/baselines.json] [--threshold 0.25]
                   [--warn-only] results.json [more.json ...]
  bench_compare.py --self-test

The self-test fabricates a clean result set (must pass) and one with a
single 2x slowdown injected (must fail), exercising the gate logic
without running any benchmark; CTest runs it as
``tools.bench_compare_selftest``.
"""

import argparse
import json
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def parse_results(docs):
    """name -> real_time in ns from parsed result documents: the median
    aggregate where one exists, else the iteration row."""
    medians, iterations = {}, {}
    for doc in docs:
        for entry in doc.get("benchmarks", []):
            ns = (float(entry["real_time"])
                  * TIME_UNIT_NS[entry.get("time_unit", "ns")])
            if entry.get("run_type") == "aggregate":
                if entry.get("aggregate_name") == "median":
                    medians[entry["run_name"]] = ns
            else:
                iterations[entry.get("run_name", entry["name"])] = ns
    return {**iterations, **medians}


def load_results(paths):
    """name -> real_time in ns, merged across result files."""
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    return parse_results(docs)


def load_baseline(path):
    with open(path) as f:
        doc = json.load(f)
    return {name: float(entry["real_time_ns"])
            for name, entry in doc["benchmarks"].items()}


def compare(current, baseline, threshold):
    """Return (rows, regressions, machine_factor, missing).

    Rows: (name, ratio, normalized, flag). `missing` lists baseline
    benchmarks absent from the results -- lost coverage (a rename, or a
    gated binary dropped from the CI step) must fail the gate too, or a
    regression simply hides by renaming.
    """
    matched = sorted(name for name in current if name in baseline)
    missing = sorted(name for name in baseline if name not in current)
    if not matched:
        raise SystemExit(
            "bench_compare: no benchmark names match the baseline "
            "(refresh bench/baselines.json?)")
    ratios = {name: current[name] / baseline[name] for name in matched}
    machine = statistics.median(ratios.values())
    rows, regressions = [], []
    for name in matched:
        normalized = ratios[name] / machine
        flag = ""
        if normalized > 1.0 + threshold:
            flag = "REGRESSION"
            regressions.append(name)
        elif normalized < 1.0 / (1.0 + threshold):
            flag = "improved"
        rows.append((name, ratios[name], normalized, flag))
    return rows, regressions, machine, missing


def run_gate(args):
    current = load_results(args.results)
    baseline = load_baseline(args.baseline)
    rows, regressions, machine, missing = compare(
        current, baseline, args.threshold)

    width = max(len(name) for name, *_ in rows)
    print(f"bench_compare: {len(rows)} benchmark(s) vs {args.baseline}, "
          f"machine-speed factor {machine:.3f}x, "
          f"threshold {args.threshold:.0%}")
    for name, ratio, normalized, flag in rows:
        print(f"  {name:<{width}}  ratio {ratio:7.3f}x  "
              f"normalized {normalized:6.3f}x  {flag}")

    verb = "warning" if args.warn_only else "error"
    for name in missing:
        print(f"::{verb} ::bench gate: baseline benchmark {name} missing "
              "from the results (renamed, or its binary not run?)")
    if regressions:
        for name in regressions:
            print(f"::{verb} ::bench gate: {name} regressed "
                  f">{args.threshold:.0%} vs baseline (normalized)")
    if regressions or missing:
        if not args.warn_only:
            return 1
    else:
        print("bench_compare: gate PASSED")
    return 0


def self_test():
    baseline = {f"BM_X/{i}": 100.0 * (i + 1) for i in range(4)}
    # Uniformly 3x slower machine: the ratio gate must PASS.
    clean = {name: 3.0 * ns for name, ns in baseline.items()}
    rows, regressions, _, missing = compare(clean, baseline, 0.25)
    assert not regressions, f"clean run flagged: {regressions}"
    assert not missing, f"clean run missing: {missing}"
    assert len(rows) == 4

    # Same machine factor, but one benchmark 2x slower: must FAIL.
    injected = dict(clean)
    injected["BM_X/2"] *= 2.0
    _, regressions, _, _ = compare(injected, baseline, 0.25)
    assert regressions == ["BM_X/2"], f"2x slowdown missed: {regressions}"

    # An improvement must not trip the gate.
    improved = dict(clean)
    improved["BM_X/1"] /= 2.0
    _, regressions, _, _ = compare(improved, baseline, 0.25)
    assert not regressions, f"improvement flagged: {regressions}"

    # A renamed/dropped benchmark is lost coverage, not a silent pass.
    renamed = dict(clean)
    del renamed["BM_X/3"]
    _, regressions, _, missing = compare(renamed, baseline, 0.25)
    assert missing == ["BM_X/3"], f"dropped benchmark missed: {missing}"
    assert not regressions

    # Result parsing: the median aggregate row wins over the mean, the
    # other aggregates and any iteration rows; a 2x slowdown in the
    # median must fail the gate, one in the mean alone must not.
    def aggregates(ns_by_name, slow_name=None, slow_field="median"):
        rows = []
        for name, ns in ns_by_name.items():
            for agg in ("mean", "median", "stddev", "cv"):
                value = ns
                if agg == slow_field and name == slow_name:
                    value *= 2.0
                rows.append({"name": f"{name}_{agg}", "run_name": name,
                             "run_type": "aggregate", "aggregate_name": agg,
                             "real_time": value / 1e3, "time_unit": "us"})
        return {"benchmarks": rows}

    parsed = parse_results([aggregates(clean)])
    assert parsed == clean, f"median rows misread: {parsed}"
    _, regressions, _, missing = compare(parsed, baseline, 0.25)
    assert not regressions and not missing
    parsed = parse_results([aggregates(clean, "BM_X/2")])
    _, regressions, _, _ = compare(parsed, baseline, 0.25)
    assert regressions == ["BM_X/2"], f"median 2x missed: {regressions}"
    parsed = parse_results([aggregates(clean, "BM_X/2", "mean")])
    _, regressions, _, _ = compare(parsed, baseline, 0.25)
    assert not regressions, f"mean-only slowdown flagged: {regressions}"

    print("bench_compare: self-test PASSED (clean passes, injected 2x "
          "slowdown fails on median rows, dropped benchmark detected)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="*",
                        help="--benchmark_out JSON result files")
    parser.add_argument("--baseline", default="bench/baselines.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed normalized slowdown (default 0.25)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions without failing "
                             "(non-pinned runners)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate logic and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.results:
        parser.error("no result files given (or use --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
