#!/usr/bin/env python3
"""superbol benchmark.

    python3 perfbench/run.py --workload check-sparse --seed 1 --seconds 10 --trace 0

Runs one workload from the root of a source checkout, against the
package in `src/`, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they
are the per-layer ones.

The launcher imports nothing from the package.  It starts worker
processes of this same script one after another and waits for each:

* untraced: one worker per entry of HASH_SEEDS, each with that
  PYTHONHASHSEED, sets the workload up from a fresh interpreter, reports
  ready with the CPU time it has used, then runs its share of the timed
  passes (worker k runs passes k, k + 3, ...).  setup_s is the median of
  the workers' set-ups; the other metrics are computed here from every
  worker's passes.
* traced: one worker sets up under spans, then times untraced passes,
  traced passes and a counting pass (see `traced`).

Every end-to-end time is CPU time (user + system) of the worker and of
the CLI processes it has waited for, taken to a reference speed: before
each timed operation the worker runs a piece of fixed reference work
(`Workload.chunk`), and a pass's times are scaled by how fast its
pieces ran (`normalised`).  On
the shared virtual machine this was tuned on, identical work drifted by
up to 35% in CPU time as well as in wall time, with the host's load;
the scaling takes out most of that drift.  The raw CPU figures are
printed too.

The number of passes is fixed by `--seconds` and the workload
(PASS_RATE), never by the program's speed, so that two programs are
measured over the same number of passes.  The string hash seed changes
dict and set layout, and identical check-sparse operations ran up to 40%
apart from one hash seed to another; fixed seeds (HASH_SEEDS, one per
worker) keep that out of the run-to-run spread while still averaging
over several layouts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("check-sparse", "check-dense", "pairs", "cli-report")
HASH_SEEDS = ("1", "2", "3")     # one worker each; setup_s is the median of their set-ups
DEADLINE_S = 170          # the whole run, launcher included
IMPORT_SAMPLES = 5
CALIBRATION_CHUNKS = 10   # reference chunks run before and again after set-up
# passes per second of --seconds (at least one per worker): at --seconds
# 10, 6, 6, 6 and 4 passes, 10-20 CPU seconds of work at the seed code;
# a constant, so that a faster program is not measured over more passes
# than a slower one
PASS_RATE = {"check-sparse": 0.6, "check-dense": 0.6, "pairs": 0.6, "cli-report": 0.4}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# launcher


def launch(args):
    if not os.path.isfile(os.path.join(SRC, "superbol", "__init__.py")):
        print("error: no package source at %s; run from a superbol checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            print("== %s" % name, flush=True)
            args.workload = name
            code = launch(args)
            if code:
                return code
        return 0
    deadline = time.monotonic() + DEADLINE_S
    parts = [("trace", HASH_SEEDS[0])] if args.trace else [("run", h) for h in HASH_SEEDS]
    setup_times, results = [], []
    for part, (role, hash_seed) in enumerate(parts):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace), "--role", role, "--part", str(part)]
        # a session of its own, so that a kill also reaches the CLI
        # processes a cli-report worker has running
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                                start_new_session=True)

        def kill(proc=proc):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline - time.monotonic(), 0), kill)
        timer.start()
        try:
            ready = proc.stdout.readline().split()
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            if proc.poll() is None:
                kill()
            proc.wait()
        if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
            print("error: %s worker exited with %s" % (role, proc.returncode), file=sys.stderr)
            return 1
        setup_times.append(float(ready[1]))
        lines = rest.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        results.append(json.loads(lines[-1]))
    if args.trace:
        result = results[0]
    else:
        runs = sorted(p for r in results for p in r["passes"])
        result = {"attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": summarize(normalised(runs))}
        result["metrics"]["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in results),
                                            "unit": "MB"}
        # a worker's set-up at the reference speed of the chunks it ran
        # just before and just after it
        setups = [cpu * scale(r["calibration"]) for cpu, r in zip(setup_times, results)]
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["correct"] = result["failed"] == 0
        print("passes %d x operations %d; op_p50_ms is the median of %d operation times"
              % (len(runs), len(runs[0][1]), len(runs) * len(runs[0][1])))
        raw = summarize([times for _, times, _ in runs])
        print("raw CPU time: wall_s %.4g s, op_p50_ms %.4g ms, op_max_s %.4g s, setup_s %.4g s"
              % (raw["wall_s"]["value"], raw["op_p50_ms"]["value"], raw["op_max_s"]["value"],
                 statistics.median(setup_times)))
        print("reference speed: reference work took %.3g x its nominal CPU time (median of passes)"
              % statistics.median(1 / scale(chunks) for _, _, chunks in runs))
    for name, metric in sorted(result["metrics"].items()):
        print("%-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-44s %14.6g %s (%d of %d operations)"
          % ("fail_ratio", result["failed"] / result["attempted"], "ratio",
             result["failed"], result["attempted"]))
    print(json.dumps(result, sort_keys=True))
    return 0


def summarize(latencies):
    """The time metrics from every pass's operation times, in pass order."""
    samples = [t for times in latencies for t in times]
    metrics = {
        "wall_s": (statistics.median(sum(times) for times in latencies), "s"),
        "op_p50_ms": (statistics.median(samples) * 1000.0, "ms"),
        "op_max_s": (max(statistics.median(times) for times in zip(*latencies)), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# worker


def import_package():
    sys.path.insert(0, SRC)
    import superbol
    if os.path.dirname(os.path.abspath(superbol.__file__)) != os.path.join(SRC, "superbol"):
        raise ImportError("superbol imported from %s, not from %s" % (superbol.__file__, SRC))


def cpu_seconds():
    """CPU seconds (user + system) used so far by this process, from its
    start, and by the child processes it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(op, output):
    """SHA-256 of an operation's exact output text, as digests.json holds it."""
    return hashlib.sha256(op.text(output).encode("utf-8")).hexdigest()


class Tally:
    """Operations attempted and failed; failures are printed to stderr.

    With `digests` (the default seed), each operation of pass 0 must also
    reproduce its recorded exact-output digest.
    """

    def __init__(self, digests=None):
        self.attempted = 0
        self.failed = 0
        self.digests = digests

    def record(self, index, op, output, error):
        self.attempted += 1
        problem = error or op.check(output)
        if problem is None and index == 0 and self.digests is not None:
            got = digest(op, output)
            if self.digests.get(op.name) != got:
                problem = "%s: output digest %s differs from digests.json" % (op.name, got)
        if problem is not None:
            self.failed += 1
            print("FAILED %s" % problem, file=sys.stderr)


def run_pass(W, ops, index, tally, on_op=None):
    """[index, each operation's CPU time, the CPU time of the reference
    chunk run just before each operation over its nominal time] for pass
    `index` of workload W.  Outputs are checked after the last operation,
    outside the timed region."""
    outputs, times, chunks = [], [], []
    for op in ops:
        t = cpu_seconds()
        W.chunk()
        chunks.append((cpu_seconds() - t) / W.chunk_s)
        if on_op is not None:
            on_op(op)
        t = cpu_seconds()
        try:
            out, err = op.call(), None
        except Exception:  # an operation that raises counts as failed
            out, err = None, "%s raised:\n%s" % (op.name, traceback.format_exc())
        times.append(cpu_seconds() - t)
        outputs.append((out, err))
    for op, (out, err) in zip(ops, outputs):
        tally.record(index, op, out, err)
    return [index, times, chunks]


def scale(chunks):
    """The factor that takes CPU seconds measured while these reference
    chunks ran (each given as CPU time over nominal time) to seconds at
    the reference speed, at which every chunk takes its nominal time."""
    return len(chunks) / sum(chunks)


def normalised(runs):
    """Each pass's operation times at the reference speed, scaled by that
    pass's own chunks."""
    return [[t * scale(chunks) for t in times] for _, times, chunks in runs]


def pass_count(name, seconds):
    return max(len(HASH_SEEDS), round(seconds * PASS_RATE[name]))


def peak_rss_mb(W):
    who = resource.RUSAGE_CHILDREN if W.name == "cli-report" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(W, seconds, part, tally):
    """This worker's share of the timed passes, as run_pass returns them."""
    indices = range(part, pass_count(W.name, seconds), len(HASH_SEEDS))
    return [run_pass(W, W.ops(index), index, tally) for index in indices]


def import_seconds():
    env = dict(os.environ, PYTHONPATH=SRC)

    def best(code):
        samples = []
        for _ in range(IMPORT_SAMPLES):
            t = cpu_seconds()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(cpu_seconds() - t)
        return statistics.median(samples)

    return best("import superbol") - best("pass")


def traced(W, seconds, tracer, tally):
    """Per-layer metrics.

    Untraced and traced runs of the same pass alternate, a third of the
    untraced run's passes of each, then one counting pass runs.  Span metrics are per
    traced pass and cover only the timed operations; `setup.*` metrics
    cover the traced set-up.
    """
    import inputs
    import spans

    def enter(op):
        tracer.op = op.name

    untraced, traced_runs = [], []

    passes = max(pass_count(W.name, seconds) // 3, 1)
    for index in range(passes):
        # inputs are drawn before the wrappers go in, so that no span or
        # count covers the benchmark's own generators
        untraced.append(run_pass(W, W.ops(index), index, tally))
        ops = W.ops(index)
        with tracer.active():
            traced_runs.append(run_pass(W, ops, index, tally, enter))

    counter = spans.Counter()
    reads = {}

    def count(op):
        counter.op = op.name
        for A in op.reads:
            reads[id(A)] = A
            counter.see_algebra(A)

    ops = W.ops(0)
    with counter.active():
        run_pass(W, ops, 0, tally, count)

    calls, self_s = tracer.totals(lambda op: op != "setup")
    setup_calls, setup_self = tracer.totals(lambda op: op == "setup")
    nonzero = total = 0
    for A in reads.values():
        nz, tot = inputs.nonzero_cells(A)
        nonzero += nz
        total += tot
    shapes = counter.rref
    metrics = {
        "input.nonzero_share": (nonzero / total if total else 0.0, "ratio"),
        "graded.rat.calls": (counter.rat_calls, "count"),
        "graded.max_coeff_bits": (counter.max_bits, "bits"),
        "structures.check_axioms.unique_ratio": (counter.unique_ratio(), "ratio"),
        "linalg.rref.cells": (sum(r * c for r, c, _, _ in shapes), "count"),
        "linalg.rref.max_rows": (max((r for r, _, _, _ in shapes), default=0), "count"),
        "linalg.rref.max_cols": (max((c for _, c, _, _ in shapes), default=0), "count"),
        "linalg.rref.max_bits": (max((b for _, _, _, b in shapes), default=0), "bits"),
        "linalg.rref.rank_per_row": (
            sum(k for _, _, k, _ in shapes) / max(sum(r for r, _, _, _ in shapes), 1), "ratio"),
        "cli.import_s": (import_seconds(), "s"),
        "trace.overhead_ratio": (statistics.median(sum(t) for t in normalised(traced_runs))
                                 / statistics.median(sum(t) for t in normalised(untraced)),
                                 "ratio"),
    }
    for name in ("structures.check_axioms", "linalg.rref", "envelope.inner_pair",
                 "envelope.pair_bracket", "forms.right_map"):
        metrics[name + ".calls"] = (calls[name] / passes, "count")
    for name in ("structures.check_axioms", "structures.check_morphism", "linalg.rref",
                 "linalg.nullspace", "linalg.solve_affine", "linalg.span_reduce",
                 "constructions.malcev_to_bol", "constructions.lie_to_supertriple",
                 "envelope.ips_space", "envelope.ps_space", "envelope.companion_space",
                 "envelope.enveloping", "forms.killing_form", "forms.killing_ricci",
                 "forms.check_invariant", "forms.semisimplicity_report", "forms.orthogonal",
                 "algfile.parse_algebra", "catalog.entry", "cli.main"):
        metrics[name + ".self_s"] = (self_s[name] / passes, "s")
    for name in ("structures.check_axioms", "constructions.malcev_to_bol",
                 "constructions.lie_to_supertriple"):
        metrics["setup.%s.self_s" % name] = (setup_self[name], "s")
    metrics["setup.structures.check_axioms.calls"] = (setup_calls["structures.check_axioms"],
                                                      "count")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spans-%s.json" % W.name), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "traced_passes": passes, "spans": tracer.spans}, handle)
    return metrics


def calibrate():
    """CPU time over nominal time of CALIBRATION_CHUNKS reference chunks,
    and the CPU time they took."""
    times = []
    for _ in range(CALIBRATION_CHUNKS):
        t = cpu_seconds()
        reference.chunk()
        times.append(cpu_seconds() - t)
    return [t / reference.CHUNK_S for t in times], sum(times)


def work(args):
    # chunks before and after set-up: its scale comes from both sides
    before, before_s = calibrate()
    import_package()
    sys.path.insert(0, HERE)
    import spans
    import workloads

    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        W = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer() if args.role == "trace" else None
        if tracer is not None:
            tracer.op = "setup"
            with tracer.active():
                W.setup()
                W.warm_up()
        else:
            W.setup()
            W.warm_up()
        setup_cpu = cpu_seconds() - before_s
        calibration = before + calibrate()[0]
        print("ready %r" % setup_cpu, flush=True)
        digests = None
        if args.seed == workloads.DEFAULT_SEED:
            with open(DIGESTS, encoding="utf-8") as handle:
                digests = json.load(handle)[args.workload]
        tally = Tally(digests)
        result = {}
        if tracer is not None:
            W.in_process = True
            metrics = traced(W, args.seconds, tracer, tally)
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            result["passes"] = measure(W, args.seconds, args.part, tally)
            result["calibration"] = calibration
            result["peak_rss_mb"] = peak_rss_mb(W)
        result.update(correct=tally.failed == 0, attempted=tally.attempted,
                      failed=tally.failed)
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    if args.role is None:
        return launch(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
