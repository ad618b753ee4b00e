"""Paired benchmark runs of two checkouts, summarized into a BENCH_*.json.

    python3 tools/paired_bench.py PARENT CHANGE --pairs 10 --out BENCH_15.json \
        [--workload check-sparse ...] [--seed 1] \
        [--claim check-sparse:wall_s [--claim-seed 7]]

PARENT and CHANGE are two checkouts of the repository, measured as a fresh
checkout runs: every `__pycache__` under their `src/` and `perfbench/` is
deleted first, and every run has PYTHONDONTWRITEBYTECODE=1, so each side
compiles the modules each of its processes imports, in every process.
Then, for pair k = 1..N and each workload, both sides run
`perfbench/run.py --workload W --seed S --trace 0` from their own root,
the parent first in odd-numbered pairs and the change first in
even-numbered ones; run.py fixes the run length.  The end-to-end
metrics, their direction and bound are read from the parent's BENCHMARK.json.

The output holds every run's end-to-end metrics, each side's median and
quartiles per workload and metric, how many pairs the change won, and the
change's median over the parent's.  A claimed metric is met when the change
wins at least nine tenths of the pairs, ties counting for neither, and its
median is better than the parent's by more than the parent's interquartile
range.  With --claim-seed the claimed workload is also run for N pairs at
that seed (one not used while writing the change), written as
`end_to_end_seedN` and `runs_seedN`, and the claim must be met at both
seeds.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) of the values, quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """Whether a is strictly better than b for a metric whose better is direction."""
    return a < b if direction == "lower" else a > b


def compare(parent, change, direction):
    """Both sides' median and quartiles of one metric, paired run by run."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "change_over_parent_median": cm / pm if pm else None,
            "change_better_pairs": sum(better(c, p, direction) for p, c in zip(parent, change))}


def claim(summary, pairs, direction):
    """The claim on one metric's comparison: met when the change won at least
    nine tenths of the pairs and its median gap exceeds the parent's IQR."""
    parent, change = summary["parent"], summary["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = parent["median"] - change["median"] if direction == "lower" else \
        change["median"] - parent["median"]
    wins = summary["change_better_pairs"]
    return {"parent_median": parent["median"], "change_median": change["median"],
            "parent_iqr": iqr, "change_better_pairs": wins, "pairs": pairs,
            "met": wins >= math.ceil(0.9 * pairs) and gap > iqr}


def summarize(runs, metrics):
    """end_to_end from runs {side: [{workload: result}, ...]} (one entry per
    pair) and metrics [(name, direction, bound)]."""
    out = {}
    for workload in runs["parent"][0]:
        results = {side: [pair[workload] for pair in runs[side]] for side in runs}
        entry = {key: {side: agg(r[key] for r in results[side]) for side in results}
                 for key, agg in (("failed", sum), ("attempted", sum), ("correct", all))}
        for name, direction, bound in metrics:
            values = {side: [r["metrics"][name]["value"] for r in results[side]]
                      for side in results}
            entry[name] = compare(values["parent"], values["change"], direction)
            ratio = entry[name]["change_over_parent_median"]
            entry[name]["within_bound"] = ratio is None or (
                ratio <= 1 + bound if direction == "lower" else ratio >= 1 - bound)
        out[workload] = entry
    return out


def run(root, workload, seed):
    """The result object run.py prints last, run from the checkout root
    without writing bytecode."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def paired(roots, workloads, seed, pairs):
    """{side: [{workload: result}, ...]}, one entry per pair, alternating which
    side runs first."""
    runs = {"parent": [], "change": []}
    for k in range(1, pairs + 1):
        for side in runs:
            runs[side].append({})
        for workload in workloads:
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                runs[side][-1][workload] = run(roots[side], workload, seed)
            print("seed %d pair %d %s done" % (seed, k, workload), file=sys.stderr, flush=True)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="workload:metric the change claims a gain on")
    parser.add_argument("--claim-seed", type=int,
                        help="a second seed to run the claimed workload at")
    args = parser.parse_args(argv)
    if args.claim_seed is not None and (not args.claim or args.claim_seed == args.seed):
        parser.error("--claim-seed needs --claim and a seed other than --seed")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    roots = {"parent": args.parent, "change": args.change}
    for root in roots.values():
        for cache in [c for top in ("src", "perfbench")
                      for c in pathlib.Path(root, top).rglob("__pycache__")]:
            shutil.rmtree(cache)
    claimed = args.claim.split(":") if args.claim else None
    by_seed = {args.seed: paired(roots, workloads, args.seed, args.pairs)}
    if args.claim_seed is not None:
        by_seed[args.claim_seed] = paired(roots, [claimed[0]], args.claim_seed, args.pairs)
    report = {
        "what": "superbol benchmark: the parent checkout against the change checkout, "
                "in alternating pairs of runs",
        "command": "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload <w> "
                   "--seed <s> --trace 0, in each checkout with every __pycache__ under "
                   "src/ and perfbench/ deleted first",
        "machine": "%s, Python %s" % (platform.platform(), platform.python_version()),
        "seeds": list(by_seed),
        "pairs": args.pairs,
        "order": "odd-numbered pairs parent first, even-numbered pairs change first",
        "units": "times are CPU seconds scaled to the reference speed, as perfbench/README.md "
                 "defines them",
        "claim": None,
    }
    suffix = {seed: "" if seed == args.seed else "_seed%d" % seed for seed in by_seed}
    for seed, runs in by_seed.items():
        report["end_to_end" + suffix[seed]] = summarize(runs, metrics)
        report["runs" + suffix[seed]] = {
            side: {str(k): {w: {name: r["metrics"][name]["value"] for name, _, _ in metrics}
                            for w, r in pair.items()}
                   for k, pair in enumerate(runs[side], 1)} for side in runs}
    if claimed:
        workload, metric = claimed
        direction = next(d for name, d, _ in metrics if name == metric)
        report["claim"] = {"workload": workload, "metric": metric}
        for seed in by_seed:
            summary = report["end_to_end" + suffix[seed]][workload][metric]
            report["claim"]["seed_%d" % seed] = claim(summary, args.pairs, direction)
        report["claim"]["met"] = all(report["claim"]["seed_%d" % seed]["met"]
                                     for seed in by_seed)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
