"""Paired benchmark runs of two checkouts, summarized into a BENCH_*.json.

    python3 tools/paired_bench.py PARENT CHANGE --pairs 10 --out BENCH_15.json \
        [--workload check-sparse ...] [--seed 1] \
        [--claim check-sparse:wall_s [--claim-seed 7]]
    python3 tools/paired_bench.py --trajectory

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
change's median over the parent's.  A run whose run.py exits nonzero (a
worker died or passed its deadline), or exits 0 without a JSON object as
its last line, is a failed run of its side: it is kept as its exit code
under `failed_runs`, left out of that side's quartiles, and its pair
counts for neither side.  A claimed metric is met
when the change wins at least nine tenths of the pairs, ties counting for
neither, its median is better than the parent's by more than the parent's
interquartile range, every change run of the claimed workload ran and is
correct, and the change fails no more of its operations than the parent.  `regressions` names each
workload, metric and seed whose median is outside the metric's bound, and,
under the metric "failed", each workload and seed where a run of either
side failed, a change run was incorrect or the change failed more
operations than the parent, claimed or not.
With --claim-seed the claimed workload is also run for N pairs at
that seed (one not used while writing the change), written as
`end_to_end_seedN` and `runs_seedN`, and the claim must be met at both
seeds.

Each kernel case in CASES is timed too, written under `dense_cases`:
CASE_RUNS fresh processes per side, the parent first in odd-numbered runs,
each importing every package module a case reads, `rules` and `malcev`
included, building its input from perfbench/inputs.py, the catalog or its own
constants and timing one
expression of it in CPU seconds: a check_axioms call, a command that
runs one, a check_morphism call, a ps_space or companion_space call or an
enveloping call.
Each process also runs CASE_CHUNKS reference chunks (perfbench/reference.py)
just before and as many just after the expression, and divides its CPU
seconds by the median of their CPU time over nominal time, to seconds at
the reference speed (`norm_s`), which compare across BENCH_*.json files; a
median, as one slow chunk of a fresh process would move a mean.
Each side's min of both is kept, and so are the median and quartiles of the
change/parent ratios of the runs paired by number, raw and normalized, which
a swing of one side's min does not move.  A case's digest is a prefix of the sha256 of the
repr of the expression's value; it must be the same in every run of both sides, or the case is listed under `regressions` with the
metric "digest".  Each CLI wall in CLI_WALLS runs WALL_RUNS fresh `superbol --format
machine` processes per side, the parent first in odd-numbered runs, with
PYTHONHASHSEED=1, written under `cli_walls`: each run's CPU seconds and peak RSS,
read by os.wait4 for that process alone, its exit code and the sha256 of its
stdout, each side's median and min of both and the quartiles of its CPU seconds,
the change/parent ratios of the medians and, as `cpu_min_change_over_parent`, of
the CPU minimums, and `cpu_resolved`, false where the two sides' CPU
interquartile ranges overlap, so that neither ratio resolves the wall; a wall where
any run's exit code or stdout differs from the others is listed under
`regressions` with the metric "stdout".  `src_lines` holds each side's count of
non-blank lines in the modules under src/superbol/.  Only the standard library is
used.

With --trajectory it runs nothing: it prints, across every BENCH_*.json in
the repository root in the order of their numbers, each workload metric's
parent and change medians (`end_to_end`, the first seed), each kernel
case's parent and change minimums, raw and, where written, normalized, and
each side's `src_lines`, the package's size.  A file or an entry laid out
otherwise, as some early files are, is passed over.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) of the values, quartiles by the inclusive method;
    all None when there are none."""
    if len(values) <= 1:
        return (values[0],) * 3 if values else (None,) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """Whether a is strictly better than b for a metric whose better is direction."""
    return a < b if direction == "lower" else a > b


def compare(parent, change, direction):
    """Both sides' median and quartiles of one metric, paired run by run; a
    failed run's value is None, left out of its side's quartiles, and its
    pair counts for neither side."""
    (p1, pm, p3), (c1, cm, c3) = (quartiles([v for v in side if v is not None])
                                  for side in (parent, change))
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "change_over_parent_median": cm / pm if pm and cm is not None else None,
            "change_better_pairs": sum(None not in (p, c) and better(c, p, direction)
                                       for p, c in zip(parent, change))}


def claim(entry, metric, pairs, direction):
    """The claim on one metric of a workload's summary entry: met when every
    change run ran and was correct, the change failed no more operations than the
    parent, won at least nine tenths of the pairs, and its median gap
    exceeds the parent's IQR."""
    summary = entry[metric]
    parent, change = summary["parent"], summary["change"]
    if None in (parent["median"], change["median"]):     # every run of a side failed
        iqr = gap = None
    else:
        iqr = parent["q3"] - parent["q1"]
        gap = parent["median"] - change["median"] if direction == "lower" else \
            change["median"] - parent["median"]
    wins = summary["change_better_pairs"]
    return {"parent_median": parent["median"], "change_median": change["median"],
            "parent_iqr": iqr, "change_better_pairs": wins, "pairs": pairs,
            "change_correct": entry["correct"]["change"], "failed": entry["failed"],
            "met": (entry["correct"]["change"] and not entry["failed_runs"]["change"]
                    and entry["failed"]["change"] <= entry["failed"]["parent"]
                    and wins >= math.ceil(0.9 * pairs) and gap is not None and gap > iqr)}


def summarize(runs, metrics):
    """end_to_end from runs {side: [{workload: result}, ...]} (one entry per
    pair) and metrics [(name, direction, bound)].  A failed run, a result
    {"exit_code": code}, is listed by pair under failed_runs, and its
    operations are counted for neither failed nor attempted."""
    out = {}
    for workload in runs["parent"][0]:
        results = {side: [pair[workload] for pair in runs[side]] for side in runs}
        done = {side: [r for r in results[side] if "exit_code" not in r] for side in results}
        entry = {key: {side: agg(r[key] for r in done[side]) for side in results}
                 for key, agg in (("failed", sum), ("attempted", sum), ("correct", all))}
        entry["failed_runs"] = {side: {str(k): r["exit_code"]
                                       for k, r in enumerate(results[side], 1)
                                       if "exit_code" in r} for side in results}
        for name, direction, bound in metrics:
            values = {side: [r["metrics"][name]["value"] if "metrics" in r else None
                             for r in results[side]] for side in results}
            entry[name] = compare(values["parent"], values["change"], direction)
            ratio = entry[name]["change_over_parent_median"]
            entry[name]["within_bound"] = ratio is None or (
                ratio <= 1 + bound if direction == "lower" else ratio >= 1 - bound)
        out[workload] = entry
    return out


def regressions(end_to_end, seed):
    """{workload, metric, seed} of each metric of an end_to_end summary that
    is outside its bound, and metric "failed" for a workload where a run of
    either side failed, a change run was incorrect or the change failed
    more operations than the parent."""
    return [{"workload": workload, "metric": name, "seed": seed}
            for workload, entry in end_to_end.items() for name, summary in entry.items()
            if summary.get("within_bound") is False or name == "failed" and (
                not entry["correct"]["change"] or summary["change"] > summary["parent"]
                or any(entry["failed_runs"].values()))]


def run(root, workload, seed):
    """The result object run.py prints last, run from the checkout root
    without writing bytecode, or {"exit_code": code} when run.py exits
    nonzero (a worker died or passed its deadline) or its last line is no
    JSON object (code 0 then): a failed run either way."""
    return _result([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--trace", "0"], root)


def _result(argv, root, **env):
    proc = subprocess.run(argv, cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **env),
                          capture_output=True, text=True)
    lines, result = proc.stdout.strip().splitlines(), None
    if lines and not proc.returncode:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return result if isinstance(result, dict) else {"exit_code": proc.returncode}


# the kernel cases: name -> (what is timed, the input B as an expression over
# perfbench/inputs.py, the catalog or its own constants: an algebra, or check_morphism's arguments,
# the expression of B timed).  M7 and osp(1|2) are built from inputs.py until the
# catalog has them; every input is a fresh object, so no sweep or lift of it has
# run before the timed call.
CASES = {
    "check_sparse_dim12": (
        "check_axioms(B, 'bol'), B = malcev_to_bol(M7 + osp(1|2)) (dim 12) under a signed "
        "permutation: the largest Bol check of the sparse ladder",
        "inputs.permute(constructions.malcev_to_bol(inputs.direct_sum(inputs.m7(), "
        "inputs.osp12(), 'M7+osp12')), *inputs.signed_permutation(random.Random(1), 12))",
        "structures.check_axioms(B, 'bol')"),
    "check_lts_osp2": (
        "check_axioms(B, 'lts'), B = lie_to_supertriple(osp(1|2) + osp(1|2)) (dim 10) under a "
        "signed permutation",
        "inputs.permute(constructions.lie_to_supertriple(inputs.direct_sum(inputs.osp12(), "
        "inputs.osp12('_2'), 'osp12+osp12')), *inputs.signed_permutation(random.Random(1), 10))",
        "structures.check_axioms(B, 'lts')"),
    "pseudo_sparse_odd_dim12": (
        "check_pseudo(B, P), B as in check_sparse_dim12 and P an odd pair with two operator "
        "entries, a companion and Fraction coefficients (built inline): fails both rules, "
        "on the join with the companion's part and odd signs",
        "sparse_odd_pair(inputs.permute(constructions.malcev_to_bol(inputs.direct_sum("
        "inputs.m7(), inputs.osp12(), 'M7+osp12')), *inputs.signed_permutation("
        "random.Random(1), 12)))",
        "envelope.check_pseudo(*B)"),
    "check_dense_bol_m7": (
        "check_axioms(D, 'bol'), D = inputs.transport(malcev_to_bol(M7), "
        "dense_even_map(random.Random(1), space)) (dim 7)",
        "dense(constructions.malcev_to_bol(inputs.m7()))", "structures.check_axioms(B, 'bol')"),
    "check_dense_dim12": (
        "check_axioms(D, 'bol'), D = inputs.transport(malcev_to_bol(M7 + osp(1|2)), "
        "dense_even_map(random.Random(1), space)) (dim 12)",
        "dense(constructions.malcev_to_bol(inputs.direct_sum(inputs.m7(), inputs.osp12(), "
        "'M7+osp12')))", "structures.check_axioms(B, 'bol')"),
    "check_sparse_m7osp_malcev": (
        "check_axioms(B, 'malcev'), B = M7 + osp(1|2) (dim 12) under a signed permutation: "
        "the largest Malcev check of the sparse ladder",
        "inputs.permute(inputs.direct_sum(inputs.m7(), inputs.osp12(), 'M7+osp12'), "
        "*inputs.signed_permutation(random.Random(1), 12))",
        "structures.check_axioms(B, 'malcev')"),
    "check_dense_m7_malcev": (
        "check_axioms(D, 'malcev'), D = inputs.transport(M7, dense_even_map(random.Random(1), "
        "space)) (dim 7)",
        "dense(inputs.m7())", "structures.check_axioms(B, 'malcev')"),
    "check_malcev_chain64": (
        "check_axioms(C, 'malcev'), C the even 64-label chain e_i e_(i+1) = e_(i+2), built "
        "inline: a large sparse table, 124 of 4,096 cells nonzero, failing at 1,888 tuples",
        "structures.AlgebraDef('chain 64', SuperSpace.even_first(64, 0), binary=structures."
        "BinaryStructure.from_products(SuperSpace.even_first(64, 0), {(i, i + 1): [int(t == i + 2) "
        "for t in range(64)] for i in range(62)}))",
        "structures.check_axioms(B, 'malcev')"),
    "check_malcev_m7x3_24": (
        "check_axioms(B, 'malcev'), B = 3 copies of M7 and 3 abelian labels (dim 24, built "
        "inline): passes; its walk is just past the switch to list slots, 100 paths = 1.37 n^4",
        "m7_copies(3, 24)", "structures.check_axioms(B, 'malcev')"),
    "check_malcev_m7x2_24": (
        "check_axioms(B, 'malcev'), B = 2 copies of M7 and 10 abelian labels (dim 24, built "
        "inline): passes; its walk is just short of the switch, on dict slots, 100 paths = "
        "0.91 n^4",
        "m7_copies(2, 24)", "structures.check_axioms(B, 'malcev')"),
    "check_lts_nambu_failing": (
        "check_axioms(B, 'lts'), B = M7 with its first product e_i e_j, i < j, doubled and "
        "the ternary product malcev_to_bol makes from it (built inline): passes triple skew "
        "and ternary Jacobi, fails Nambu at 2,912 tuples; its tables take the join",
        "nambu_failing(inputs.m7())", "structures.check_axioms(B, 'lts')"),
    "check_lts_nambu_failing_dense": (
        "check_axioms(D, 'lts'), D = inputs.transport(B, dense_even_map(random.Random(1), "
        "space)), B as in check_lts_nambu_failing: fails Nambu at 12,348 tuples on the "
        "per-tuple path",
        "dense(nambu_failing(inputs.m7()))", "structures.check_axioms(B, 'lts')"),
    "check_dense_m7_lie": (
        "check_axioms(D, 'lie'), D as in check_dense_m7_malcev: fails super Jacobi with 210 "
        "witnesses, as check-dense's dense M7 Lie check does, each divided by L^2",
        "dense(inputs.m7())", "structures.check_axioms(B, 'lie')"),
    "report_dense_bol_m7": (
        "forms.semisimplicity_report(D), D as in check_dense_bol_m7: the Bol check, the "
        "envelope and its Killing form",
        "dense(constructions.malcev_to_bol(inputs.m7()))", "forms.semisimplicity_report(B)"),
    "report_dense_dim12": (
        "forms.semisimplicity_report(D), D as in check_dense_dim12: the Bol check, the "
        "envelope, its Killing form and the pairing identity",
        "dense(constructions.malcev_to_bol(inputs.direct_sum(inputs.m7(), inputs.osp12(), "
        "'M7+osp12')))", "forms.semisimplicity_report(B)"),
    "morphism_dense_bol_m7": (
        "check_morphism(g, D, bol(M7)), D as in check_dense_bol_m7 and g the even map D -> "
        "bol(M7) it was built by: passes",
        "dense_map(constructions.malcev_to_bol(inputs.m7()))", "structures.check_morphism(*B)"),
    "morphism_dense_bol_m7_doubled": (
        "check_morphism(g, D, bol(M7)) as in morphism_dense_bol_m7 with row 0 of g doubled: "
        "fails with 336 witnesses, whose exact defects the digest holds",
        "dense_map(constructions.malcev_to_bol(inputs.m7()), doubled=0)",
        "structures.check_morphism(*B)"),
    "ps_dense_dim12": (
        "ps_space(D), D as in check_dense_dim12: the pair solvers' dense wall",
        "dense(constructions.malcev_to_bol(inputs.direct_sum(inputs.m7(), inputs.osp12(), "
        "'M7+osp12')))", "envelope.ps_space(B)"),
    "ps_bol_osp2": (
        "ps_space(B), B = malcev_to_bol(osp(1|2) + osp(1|2)) (dim 10) under a signed "
        "permutation: the slowest operation of the pairs workload",
        "inputs.permute(constructions.malcev_to_bol(inputs.direct_sum(inputs.osp12(), "
        "inputs.osp12('_2'), 'osp12+osp12')), *inputs.signed_permutation(random.Random(1), 10))",
        "envelope.ps_space(B)"),
    "companion_bol_osp2": (
        "companion_space(B, P), B as in ps_bol_osp2 and P the operator of the inner pair of the "
        "basis vectors that were e_0, e_1, as the pairs workload picks it: both rules' rows, "
        "six companions",
        "inner_operator(constructions.malcev_to_bol(inputs.direct_sum(inputs.osp12(), "
        "inputs.osp12('_2'), 'osp12+osp12')))",
        "envelope.companion_space(*B)"),
    "ps_abelian_14_0": (
        "ps_space(Z), Z = abelian_14_0 (dim 14, every product zero) built afresh from the "
        "catalog: PS is gl(14) + V, of dim 210, the pair-space half of its maximal envelope",
        "catalog.build('abelian_14_0').algebra", "envelope.ps_space(B)"),
    "envelope_max_abelian_14_0": (
        "enveloping(Z, ps_space(Z)), Z = abelian_14_0 built afresh from the catalog: the "
        "maximal envelope (dim 224), its pair space, the completion of its table and its "
        "Lie re-check",
        "catalog.build('abelian_14_0').algebra", "envelope.enveloping(B, envelope.ps_space(B))"),
    "ps_abelian_24_0": (
        "ps_space(Z), Z = abelian_24_0 built afresh from the catalog: PS is gl(24) + V, of dim "
        "600, the pair space that pseudo --max abelian_24_0 lists",
        "catalog.build('abelian_24_0').algebra", "envelope.ps_space(B)"),
    "envelope_max_abelian_20_0": (
        "enveloping(Z, ps_space(Z)), Z = abelian_20_0 built afresh from the catalog: the "
        "maximal envelope (dim 440) that envelope --maximal abelian_20_0 prints",
        "catalog.build('abelian_20_0').algebra", "envelope.enveloping(B, envelope.ps_space(B))"),
    "check_pseudo_dense_bol_m7": (
        "check_pseudo(D, P), D as in check_dense_bol_m7 (L > 1) and P an even pair with "
        "Fraction entries throughout (built inline): fails both rules, on D's lifted tables",
        "fraction_pair(dense(constructions.malcev_to_bol(inputs.m7())))",
        "envelope.check_pseudo(*B)"),
    "lie_to_lts_dense_osp2": (
        "lie_to_supertriple(D), D = inputs.transport(osp(1|2) + osp(1|2), "
        "dense_even_map(random.Random(1), space)) (dim 10, L > 1): its Lie check, the "
        "table summed on L*D and the Lie supertriple check of the result",
        "dense(inputs.direct_sum(inputs.osp12(), inputs.osp12('_2'), 'osp12+osp12'))",
        "constructions.lie_to_supertriple(B)"),
}

# the CLI walls: name -> the arguments of one `superbol --format machine` process, run
# WALL_RUNS times per side from the checkout root with PYTHONHASHSEED=1 and timed from its
# own parent; the aff2_lie walls run no pseudo-derivation rule
CLI_WALLS = {
    "pseudo_max_abelian_32_0": ("pseudo", "--max", "abelian_32_0"),
    "pseudo_max_abelian_16_16": ("pseudo", "--max", "abelian_16_16"),
    "pseudo_max_abelian_64_0": ("pseudo", "--max", "abelian_64_0"),
    "envelope_maximal_abelian_20_0": ("envelope", "--maximal", "abelian_20_0"),
    "report_abelian_64_0": ("report", "abelian_64_0"),
    "check_bol_abelian_64_0": ("check", "abelian_64_0", "--kind", "bol"),
    "check_lie_aff2_lie": ("check", "aff2_lie", "--kind", "lie"),
    "killing_aff2_lie": ("killing", "aff2_lie"),
}
# fresh processes per side and wall: one run of a wall read 1.39x its parent where three
# more alternated runs a side read 0.98 (pseudo --max abelian_32_0)
WALL_RUNS = 5

# fresh processes per side and case: single runs of the dense bol(M7) case spread
# from 13.7 to 21.3 ms on a shared 2-vCPU machine
CASE_RUNS = 7
# reference chunks before and again after each case's expression
CASE_CHUNKS = 3

CASE_SCRIPT = """
import hashlib, json, random, statistics, sys, time
from fractions import Fraction
sys.path[:0] = ["src", "perfbench"]
import inputs, reference
# rules and malcev load at the first sweep that runs them: imported here, a case times
# its sweep, not their compile
from superbol import catalog, constructions, envelope, forms, malcev, rules, structures
from superbol.graded import GradedMap, SuperSpace, sign


def dense(A):
    return inputs.transport(A, inputs.dense_even_map(random.Random(1), A.space), "dense " + A.name)


def dense_map(A, doubled=None):
    # (g, dense(A), A), g the even map dense(A) -> A, its row `doubled` times 2
    g = inputs.dense_even_map(random.Random(1), A.space)
    rows = [[c * (1 + (i == doubled)) for c in row] for i, row in enumerate(g)]
    return GradedMap.from_rows(A.space, 0, rows), inputs.transport(A, g, "dense " + A.name), A


def m7_copies(copies, n):
    # M7 on labels 7c .. 7c + 6 for each c < copies, every other product of the n labels zero
    space, cells = SuperSpace.even_first(n, 0), inputs.m7().binary.cells()
    return structures.AlgebraDef(f"{copies} M7 + {n - 7 * copies}", space,
                                 binary=structures.BinaryStructure.from_products(space, {
        (a + 7 * c, b + 7 * c): [dict(e).get(t - 7 * c, 0) for t in range(n)]
        for c in range(copies) for (a, b), e in cells.items()}))


def nambu_failing(A):
    # A with its first product e_i e_j, i < j, doubled, and the ternary product malcev_to_bol
    # makes from that product, {x,y,z} = (2[[x,y],z] - s[[y,z],x] - s[[z,x],y])/3
    space, par, e, n = A.space, A.space.parities, A.space.basis(), A.space.dim
    first = min(at for at in A.binary.cells() if at[0] < at[1])
    C = structures.AlgebraDef(A.name, space, binary=structures.BinaryStructure.from_products(
        space, {(i, j): A.product(e[i], e[j]).scale(1 + ((i, j) == first)).coords
                for i, j in A.binary.cells() if i <= j}))
    P = C.product

    def triple(i, j, k):
        x, y, z = e[i], e[j], e[k]
        return (2 * P(P(x, y), z) - sign(par[i] * (par[j] + par[k])) * P(P(y, z), x)
                - sign(par[k] * (par[i] + par[j])) * P(P(z, x), y)).scale(Fraction(1, 3)).coords
    return structures.AlgebraDef(A.name + " failing nambu", space, binary=C.binary,
                                 ternary=structures.TernaryStructure.from_products(space, {
        (i, j, k): triple(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)}))


def sparse_odd_pair(B):
    # (B, P), P odd: P e_even[0] = 2/3 e_odd[0], P e_odd[-1] = -e_even[-1], companion e_odd[-1] / 2
    n, par = B.space.dim, B.space.parities
    odd, even = [m for m in range(n) if par[m]], [m for m in range(n) if not par[m]]
    rows = [[0] * n for _ in range(n)]
    rows[odd[0]][even[0]], rows[even[-1]][odd[-1]] = Fraction(2, 3), -1
    comp = [Fraction(1, 2) if m == odd[-1] else 0 for m in range(n)]
    return B, envelope.PseudoDerivationPair(GradedMap.from_rows(B.space, 1, rows),
                                            B.space.vector(comp))


def fraction_pair(B):
    # (B, P), P even: P e_m = (t - m)/3 e_t for each t of m's parity, companion (m + 1)/2 e_m
    # at each even m
    n, par = B.space.dim, B.space.parities
    rows = [[Fraction(t - m, 3) if par[t] == par[m] else 0 for m in range(n)] for t in range(n)]
    comp = [Fraction(m + 1, 2) if not par[m] else 0 for m in range(n)]
    return B, envelope.PseudoDerivationPair(GradedMap.from_rows(B.space, 0, rows),
                                            B.space.vector(comp))


def inner_operator(A):
    # (B, P): B = A under the signed permutation of random.Random(1), P the operator of the
    # inner pair of the basis vectors that were e_0, e_1
    perm, signs = inputs.signed_permutation(random.Random(1), A.space.dim)
    B = inputs.permute(A, perm, signs)
    x, y = (B.space.basis_vector(perm.index(k)) for k in (0, 1))
    return B, envelope.inner_pair(B, x, y).operator


def chunk():
    # CPU time over nominal time of one reference chunk, as run.py's passes read theirs
    start = time.process_time()
    reference.chunk()
    return (time.process_time() - start) / reference.CHUNK_S


B = %s
chunks = [chunk() for _ in range(%d)]
start = time.process_time()
value = %s
cpu_s = time.process_time() - start
chunks += [chunk() for _ in range(len(chunks))]
print(json.dumps({"cpu_s": cpu_s, "norm_s": cpu_s / statistics.median(chunks),
                  "digest": hashlib.sha256(repr(value).encode()).hexdigest()}))
"""


def src_lines(root):
    """The non-blank lines of the modules under src/superbol/ of a checkout."""
    return sum(1 for path in pathlib.Path(root, "src", "superbol").rglob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def case_run(root, name, hash_seed):
    """{"cpu_s", "norm_s", "digest"} of one run of a kernel case, in a fresh process
    from the checkout root without writing bytecode, or {"exit_code": code}."""
    _, source, timed = CASES[name]
    return _result([sys.executable, "-c", CASE_SCRIPT % (source, CASE_CHUNKS, timed)], root,
                   PYTHONHASHSEED=str(hash_seed))


def kernel_cases(roots, names=tuple(CASES), runs=CASE_RUNS):
    """{case: {how, parent, change, parent_min, change_min, parent_norm_min,
    change_norm_min, change_over_parent_min, change_over_parent_runs,
    change_over_parent_norm_runs, digest}}: each case run `runs` times per side, the
    parent first in odd-numbered runs, and run k of both sides with PYTHONHASHSEED=k, as
    perfbench's workers fix theirs, so the sides compare on the same dict layouts; parent
    and change list the CPU seconds of each run, None for a failed one; the norm minimums
    are those of the runs' `norm_s`; change_over_parent_runs holds the median, q1 and q3
    of change/parent over the runs k where both ran, and change_over_parent_norm_runs
    those of their `norm_s`; and digest is None unless every run of both sides gave the
    same report."""
    out = {}
    for name in names:
        results = {"parent": [], "change": []}
        for k in range(1, runs + 1):
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                results[side].append(case_run(roots[side], name, k))
        times, normed = ({side: [r.get(key) for r in rs] for side, rs in results.items()}
                         for key in ("cpu_s", "norm_s"))
        mins, norms = ({side: min((v for v in vs if v is not None), default=None)
                        for side, vs in values.items()} for values in (times, normed))
        (q1, median, q3), (n1, nm, n3) = (quartiles([
            c / p for p, c in zip(values["parent"], values["change"]) if None not in (p, c)])
            for values in (times, normed))
        digests = {r.get("digest") for rs in results.values() for r in rs}
        out[name] = {"how": CASES[name][0], **times, "parent_min": mins["parent"],
                     "change_min": mins["change"], "parent_norm_min": norms["parent"],
                     "change_norm_min": norms["change"],
                     "change_over_parent_min": mins["change"] / mins["parent"]
                     if None not in mins.values() else None,
                     "change_over_parent_runs": {"median": median, "q1": q1, "q3": q3},
                     "change_over_parent_norm_runs": {"median": nm, "q1": n1, "q3": n3},
                     "digest": digests.pop()[:16] if len(digests) == 1 and None not in digests
                     else None}
        print("case %s done" % name, file=sys.stderr, flush=True)
    return out


def cli_wall(root, argv):
    """{"cpu_s", "peak_rss_mb", "exit_code", "stdout_sha256"} of one fresh `python -m superbol
    --format machine argv` process from the checkout root, without writing bytecode: its
    CPU seconds and peak RSS are that process's alone, read by os.wait4, which no
    process it did not start adds to."""
    proc = subprocess.Popen([sys.executable, "-m", "superbol", "--format", "machine", *argv],
                            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                                     PYTHONHASHSEED="1"))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)    # reaped: Popen must not wait
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode, "stdout_sha256": hashlib.sha256(out).hexdigest()}


def cli_walls(roots, walls=CLI_WALLS, runs=WALL_RUNS):
    """{wall: {argv, parent, change, cpu_change_over_parent, rss_change_over_parent,
    cpu_min_change_over_parent, cpu_resolved, same_stdout}}: each wall run `runs` times per
    side by cli_wall, the parent first in odd-numbered runs; each side holds its runs, the
    median and min of their cpu_s and peak_rss_mb and the quartiles cpu_s_q1 and cpu_s_q3;
    the first two ratios are those of the medians and cpu_min_change_over_parent that of the
    cpu_s minimums, which one slow process of a few cannot move as it moves a median;
    cpu_resolved is False where the two sides' cpu_s interquartile ranges overlap, so that
    no CPU ratio of the wall tells the sides apart; each is None unless every run exits 0;
    and same_stdout needs every run of both sides to give one exit code and stdout."""
    out = {}
    for name, argv in walls.items():
        results = {"parent": [], "change": []}
        for k in range(1, runs + 1):
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                results[side].append(cli_wall(roots[side], argv))
        sides = {side: {"runs": rs, **{"%s_%s" % (metric, how): f([r[metric] for r in rs])
                                       for metric in ("cpu_s", "peak_rss_mb")
                                       for how, f in (("median", statistics.median),
                                                      ("min", min))}}
                 for side, rs in results.items()}
        for side, rs in results.items():
            q1, _, q3 = quartiles([r["cpu_s"] for r in rs])
            sides[side].update(cpu_s_q1=q1, cpu_s_q3=q3)
        parent, change = sides["parent"], sides["change"]
        ran = all(r["exit_code"] == 0 for rs in results.values() for r in rs)
        out[name] = {"argv": ["superbol", "--format", "machine", *argv], **sides, **{
            key + "_change_over_parent": sides["change"][metric + "_median"]
            / sides["parent"][metric + "_median"] if ran else None
            for key, metric in (("cpu", "cpu_s"), ("rss", "peak_rss_mb"))},
            "cpu_min_change_over_parent": change["cpu_s_min"] / parent["cpu_s_min"]
            if ran else None,
            "cpu_resolved": (parent["cpu_s_q3"] < change["cpu_s_q1"]
                             or change["cpu_s_q3"] < parent["cpu_s_q1"]) if ran else None,
            "same_stdout": len({(r["exit_code"], r["stdout_sha256"])
                                for rs in results.values() for r in rs}) == 1}
        print("cli wall %s done" % name, file=sys.stderr, flush=True)
    return out


def _number(path):
    return int(re.search(r"\d+", path.name).group())


def trajectory(paths):
    """{series: [(file name, parent, change), ...]} over the BENCH_*.json files at
    paths, in order: ("workload", name, metric) with the parent and change medians of
    each `end_to_end` metric, ("case", name, "min") with each kernel case's raw minimums,
    ("case", name, "norm_min") with its normalized ones where written and ("src_lines",)
    with each side's `src_lines`.  An entry laid out otherwise is passed over."""
    series = {}
    for path in paths:
        report, name = json.loads(pathlib.Path(path).read_text()), pathlib.Path(path).name
        for workload, entry in report.get("end_to_end", {}).items():
            for metric, summary in entry.items():
                sides = [summary.get(side) if isinstance(summary, dict) else None
                         for side in ("parent", "change")]
                if all(isinstance(side, dict) and "median" in side for side in sides):
                    series.setdefault(("workload", workload, metric), []).append(
                        (name, sides[0]["median"], sides[1]["median"]))
        cases = report.get("dense_cases")
        for case, entry in cases.items() if isinstance(cases, dict) else ():
            for what in ("min", "norm_min"):
                if isinstance(entry, dict) and "parent_" + what in entry:
                    series.setdefault(("case", case, what), []).append(
                        (name, entry["parent_" + what], entry["change_" + what]))
        lines = report.get("src_lines")
        if isinstance(lines, dict) and {"parent", "change"} <= lines.keys():
            series.setdefault(("src_lines",), []).append((name, lines["parent"], lines["change"]))
    return series


def trajectory_text(series):
    """The series as text: a line per series, then a line per file with its values."""
    def value(v):
        return "%12.6g" % v if isinstance(v, (int, float)) else "%12s" % v
    out = []
    for key, points in series.items():
        out.append(" ".join(key) + ": parent, change")
        out += ["  %-14s%s%s" % (name, value(p), value(c)) for name, p, c in points]
    return "\n".join(out) + "\n"


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
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="workload:metric the change claims a gain on")
    parser.add_argument("--claim-seed", type=int,
                        help="a second seed to run the claimed workload at")
    parser.add_argument("--trajectory", action="store_true",
                        help="print the series of every committed BENCH_*.json and exit")
    args = parser.parse_args(argv)
    if args.trajectory:
        root = pathlib.Path(__file__).resolve().parents[1]
        sys.stdout.write(trajectory_text(trajectory(sorted(root.glob("BENCH_*.json"),
                                                           key=_number))))
        return 0
    if None in (args.parent, args.change, args.out):
        parser.error("PARENT, CHANGE and --out are required without --trajectory")
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
        "regressions": [],
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
    }
    suffix = {seed: "" if seed == args.seed else "_seed%d" % seed for seed in by_seed}
    for seed, runs in by_seed.items():
        report["end_to_end" + suffix[seed]] = summarize(runs, metrics)
        report["regressions"] += regressions(report["end_to_end" + suffix[seed]], seed)
        report["runs" + suffix[seed]] = {
            side: {str(k): {w: {name: r["metrics"][name]["value"] for name, _, _ in metrics}
                            if "metrics" in r else r for w, r in pair.items()}
                   for k, pair in enumerate(runs[side], 1)} for side in runs}
    report["dense_cases"] = kernel_cases(roots)
    report["regressions"] += [{"case": name, "metric": "digest"}
                              for name, case in report["dense_cases"].items()
                              if case["digest"] is None]
    report["cli_walls"] = cli_walls(roots)
    report["regressions"] += [{"cli": name, "metric": "stdout"}
                              for name, wall in report["cli_walls"].items()
                              if not wall["same_stdout"]]
    if claimed:
        workload, metric = claimed
        direction = next(d for name, d, _ in metrics if name == metric)
        report["claim"] = {"workload": workload, "metric": metric}
        for seed in by_seed:
            entry = report["end_to_end" + suffix[seed]][workload]
            report["claim"]["seed_%d" % seed] = claim(entry, metric, args.pairs, direction)
        report["claim"]["met"] = all(report["claim"]["seed_%d" % seed]["met"]
                                     for seed in by_seed)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
