"""The statistics of tools/paired_bench.py on canned run results: quartiles
by the inclusive method, pairs won with ties counting for neither, a claim
met only with at least nine tenths of the pairs won, a median gap larger
than the parent's interquartile range, every change run correct and no more
failed operations than the parent, and the metrics outside their bounds
and the workloads whose change runs fail listed as regressions.  Kernel
cases keep each side's raw and normalized CPU minimums."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from bench_inputs import inputs
from superbol import catalog, constructions, envelope, forms, structures
from superbol.graded import GradedMap

spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

METRICS = [("wall_s", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)]


def result(wall_s, peak_rss_mb=20.0, failed=0):
    return {"attempted": 10, "failed": failed, "correct": failed == 0,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def runs(parent, change, workload="check-sparse"):
    return {"parent": [{workload: r} for r in parent], "change": [{workload: r} for r in change]}


def test_quartiles_are_inclusive():
    assert paired_bench.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert paired_bench.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert paired_bench.quartiles([7]) == (7, 7, 7)


def test_a_clear_gain_is_met():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    change = [0.7] * 9 + [1.2]          # one pair lost: 9 of 10 still meet the rule
    summary = paired_bench.summarize(runs([result(v) for v in parent],
                                          [result(v) for v in change]), METRICS)
    wall = summary["check-sparse"]["wall_s"]
    assert wall["change_better_pairs"] == 9
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.7
    assert abs(wall["change_over_parent_median"] - 0.7) < 1e-12
    assert wall["within_bound"]
    assert summary["check-sparse"]["failed"] == {"parent": 0, "change": 0}
    assert summary["check-sparse"]["attempted"] == {"parent": 100, "change": 100}
    claim = paired_bench.claim(summary["check-sparse"], "wall_s", 10, "lower")
    assert claim["met"] and claim["change_better_pairs"] == 9
    assert abs(claim["parent_iqr"] - (1.0175 - 0.9825)) < 1e-12


def test_ties_and_a_small_gap_do_not_meet_a_claim():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    # every pair won, but the median gap (0.05) is inside the parent's IQR (0.15)
    close = paired_bench.summarize(runs([result(v) for v in parent],
                                        [result(v - 0.05) for v in parent]), METRICS)
    assert not paired_bench.claim(close["check-sparse"], "wall_s", 10, "lower")["met"]
    # a large gap, but a tie and two losses leave 7 wins of 10
    change = [0.5] * 7 + [1.0, 1.2, 1.5]
    tied = paired_bench.summarize(runs([result(v) for v in [1.0] * 10],
                                       [result(v) for v in change]), METRICS)
    wall = tied["check-sparse"]["wall_s"]
    assert wall["change_better_pairs"] == 7
    assert not paired_bench.claim(tied["check-sparse"], "wall_s", 10, "lower")["met"]


def test_bounds_and_failures_are_reported():
    parent = [result(1.0, 20.0)] * 4
    change = [result(1.3, 22.5, failed=1)] + [result(1.3, 22.5)] * 3
    summary = paired_bench.summarize(runs(parent, change), METRICS)["check-sparse"]
    assert not summary["wall_s"]["within_bound"]        # 1.3 > 1 + 0.25
    assert not summary["peak_rss_mb"]["within_bound"]   # 1.125 > 1 + 0.1
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] == {"parent": True, "change": False}
    assert paired_bench.better(2, 1, "higher") and not paired_bench.better(1, 1, "lower")


def test_a_fast_change_that_is_wrong_or_fails_more_does_not_meet_a_claim():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    fast = [0.7] * 10

    def claimed(parent_runs, change_runs):
        entry = paired_bench.summarize(runs(parent_runs, change_runs), METRICS)["check-sparse"]
        return paired_bench.claim(entry, "wall_s", 10, "lower")

    assert claimed([result(v) for v in parent], [result(v) for v in fast])["met"]
    # one change run wrong: every run fails one operation, the parent's none
    wrong = claimed([result(v) for v in parent],
                    [result(v, failed=int(k == 3)) for k, v in enumerate(fast)])
    assert not wrong["change_correct"] and not wrong["met"]
    # both sides wrong alike: still not met, the change's runs must all be correct
    both = claimed([result(v, failed=1) for v in parent], [result(v, failed=1) for v in fast])
    assert both["failed"] == {"parent": 10, "change": 10} and not both["met"]
    # correct by the check but failing more operations than the parent
    more = [dict(result(v), failed=2) for v in fast]
    fails_more = claimed([result(v) for v in parent], more)
    assert fails_more["change_correct"] and not fails_more["met"]


def test_metrics_outside_their_bounds_are_listed_as_regressions():
    parent = [result(1.0, 20.0)] * 4
    worse = paired_bench.summarize(runs(parent, [result(1.3, 21.0)] * 4), METRICS)
    assert paired_bench.regressions(worse, 7) == [
        {"workload": "check-sparse", "metric": "wall_s", "seed": 7}]
    both = paired_bench.summarize(runs(parent, [result(1.3, 22.5)] * 4, "pairs"), METRICS)
    assert [(r["workload"], r["metric"]) for r in paired_bench.regressions(both, 1)] == [
        ("pairs", "wall_s"), ("pairs", "peak_rss_mb")]
    assert paired_bench.regressions(
        paired_bench.summarize(runs(parent, [result(1.2, 21.9)] * 4), METRICS), 1) == []


def test_failing_change_runs_are_listed_as_regressions_without_a_claim():
    parent = [result(1.0)] * 4

    def listed(parent_runs, change_runs):
        return paired_bench.regressions(
            paired_bench.summarize(runs(parent_runs, change_runs, "pairs"), METRICS), 1)

    assert listed(parent, [result(1.0)] * 4) == []
    # one change run fails an operation the parent does not
    assert listed(parent, [result(1.0, failed=1)] + [result(1.0)] * 3) == [
        {"workload": "pairs", "metric": "failed", "seed": 1}]
    # both sides fail alike: the change's runs are still incorrect
    assert listed([result(1.0, failed=1)] * 4, [result(1.0, failed=1)] * 4) == [
        {"workload": "pairs", "metric": "failed", "seed": 1}]
    # correct by the check but failing more operations than the parent
    assert listed(parent, [dict(result(1.0), failed=2)] * 4) == [
        {"workload": "pairs", "metric": "failed", "seed": 1}]


def same_case(root, name, seed):
    """A canned kernel-case run: the same time and report digest on both sides."""
    return {"cpu_s": 1.0, "digest": "a" * 64}


def same_wall(root, argv):
    """A canned CLI wall run: the same time, memory and stdout on both sides."""
    return {"cpu_s": 1.0, "peak_rss_mb": 20.0, "exit_code": 0, "stdout_sha256": "a" * 64}


def test_the_report_lists_regressions_and_claims_only_on_correct_runs(tmp_path, monkeypatch):
    """main() on canned runs: the change is faster on pairs but fails an
    operation there, and its check-sparse peak RSS is past the bound."""
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
    (roots["parent"] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "check-sparse"}, {"name": "pairs"}],
        "end_to_end": [{"name": name, "better": better, "bound": bound}
                       for name, better, bound in METRICS]}))
    canned = {("parent", "check-sparse"): result(1.0), ("parent", "pairs"): result(1.0),
              ("change", "check-sparse"): result(1.0, 23.0),
              ("change", "pairs"): result(0.5, failed=1)}
    side_of = {str(root): side for side, root in roots.items()}
    monkeypatch.setattr(paired_bench, "run",
                        lambda root, workload, seed: canned[side_of[str(root)], workload])
    monkeypatch.setattr(paired_bench, "case_run", same_case)
    monkeypatch.setattr(paired_bench, "cli_wall", same_wall)
    out = tmp_path / "bench.json"
    paired_bench.main([str(roots["parent"]), str(roots["change"]), "--pairs", "3",
                       "--out", str(out), "--claim", "pairs:wall_s", "--claim-seed", "7"])
    report = json.loads(out.read_text())
    assert report["regressions"] == [
        {"workload": "check-sparse", "metric": "peak_rss_mb", "seed": 1},
        {"workload": "pairs", "metric": "failed", "seed": 1},
        {"workload": "pairs", "metric": "failed", "seed": 7}]
    assert report["claim"]["seed_1"]["change_better_pairs"] == 3
    assert not report["claim"]["seed_1"]["met"] and not report["claim"]["met"]


def test_a_run_that_exits_nonzero_is_listed_and_the_other_pairs_are_kept(tmp_path, monkeypatch):
    """main() with run.py failing once, in the change's second pairs run: the
    report is still written, the failed run keeps its exit code, is left out
    of the change's medians and its pair counts for neither side, and the
    workload is listed under regressions as "failed"."""
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
    (roots["parent"] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "check-sparse"}, {"name": "pairs"}],
        "end_to_end": [{"name": name, "better": better, "bound": bound}
                       for name, better, bound in METRICS]}))
    side_of = {str(root): side for side, root in roots.items()}
    calls = {"parent": 0, "change": 0}

    def run(root, workload, seed):
        side = side_of[str(root)]
        if workload != "pairs":
            return result(1.0)
        calls[side] += 1
        if side == "change" and calls[side] == 2:
            return {"exit_code": 1}
        return result({"parent": 1.0, "change": 0.8}[side] + calls[side] / 100)

    monkeypatch.setattr(paired_bench, "run", run)
    monkeypatch.setattr(paired_bench, "case_run", same_case)
    monkeypatch.setattr(paired_bench, "cli_wall", same_wall)
    out = tmp_path / "bench.json"
    paired_bench.main([str(roots["parent"]), str(roots["change"]), "--pairs", "4",
                       "--out", str(out), "--claim", "pairs:wall_s"])
    report = json.loads(out.read_text())
    pairs = report["end_to_end"]["pairs"]
    assert pairs["failed_runs"] == {"parent": {}, "change": {"2": 1}}
    assert report["end_to_end"]["check-sparse"]["failed_runs"] == {"parent": {}, "change": {}}
    assert report["runs"]["change"]["2"]["pairs"] == {"exit_code": 1}
    assert abs(pairs["wall_s"]["change"]["median"] - 0.83) < 1e-12   # of 0.81, 0.83, 0.84
    assert pairs["wall_s"]["change_better_pairs"] == 3
    assert pairs["attempted"] == {"parent": 40, "change": 30}
    assert report["regressions"] == [{"workload": "pairs", "metric": "failed", "seed": 1}]
    assert not report["claim"]["met"]


def test_a_side_whose_every_run_failed_has_no_median_and_meets_no_claim():
    parent = [result(1.0)] * 3
    entry = paired_bench.summarize(runs(parent, [{"exit_code": 1}] * 3), METRICS)["check-sparse"]
    assert entry["wall_s"]["change"]["median"] is None
    assert entry["wall_s"]["change_better_pairs"] == 0 and entry["wall_s"]["within_bound"]
    assert not paired_bench.claim(entry, "wall_s", 3, "lower")["met"]
    assert paired_bench.regressions({"check-sparse": entry}, 1) == [
        {"workload": "check-sparse", "metric": "failed", "seed": 1}]


def test_run_keeps_the_exit_code_of_a_failing_run_py(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    assert paired_bench.run(tmp_path, "pairs", 1) == {"exit_code": 3}


def test_a_run_py_without_a_result_line_is_a_failed_run_and_the_pairs_go_on(tmp_path):
    """A run.py that exits 0 but whose last line is plain text, no line at all
    or JSON that is no object is kept as a failed run of its side, exit code
    0, and every pair is still run, the other side's results kept."""
    roots = {side: tmp_path / side for side in ("parent", "change", "empty", "number")}
    scripts = {"parent": "print('log line')\nprint(%r)\n" % json.dumps(result(1.0)),
               "change": "print('one plain line')\n", "empty": "", "number": "print(3)\n"}
    for side, root in roots.items():
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(scripts[side])
    assert paired_bench.run(roots["empty"], "pairs", 1) == {"exit_code": 0}
    assert paired_bench.run(roots["number"], "pairs", 1) == {"exit_code": 0}
    runs = paired_bench.paired(roots, ["pairs"], 1, 2)
    assert runs == {"parent": [{"pairs": result(1.0)}] * 2,
                    "change": [{"pairs": {"exit_code": 0}}] * 2}
    entry = paired_bench.summarize(runs, METRICS)["pairs"]
    assert entry["failed_runs"] == {"parent": {}, "change": {"1": 0, "2": 0}}


def test_the_smallest_kernel_case_runs_on_both_sides_of_one_tree():
    """The lts(osp(1|2) + osp(1|2)) case, three fresh processes per side of this
    checkout: every run gives a CPU time and the same report digest, and the
    run ratios' quartiles are the inclusive ones of change/parent, run by run."""
    root = Path(__file__).resolve().parents[1]
    case = paired_bench.kernel_cases({"parent": root, "change": root}, ["check_lts_osp2"], 3)
    case = case["check_lts_osp2"]
    assert case["how"] == paired_bench.CASES["check_lts_osp2"][0]
    assert len(case["parent"]) == len(case["change"]) == 3
    assert all(t > 0 for t in case["parent"] + case["change"])
    assert case["parent_min"] == min(case["parent"]) and case["change_min"] == min(case["change"])
    assert case["parent_norm_min"] > 0 and case["change_norm_min"] > 0
    assert case["change_over_parent_min"] == case["change_min"] / case["parent_min"]
    ratios = sorted(c / p for p, c in zip(case["parent"], case["change"]))
    runs = case["change_over_parent_runs"]
    assert runs["median"] == ratios[1]
    assert runs["q1"] == (ratios[0] + ratios[1]) / 2 and runs["q3"] == (ratios[1] + ratios[2]) / 2
    norms = case["change_over_parent_norm_runs"]
    assert norms["q1"] <= norms["median"] <= norms["q3"] and norms["median"] > 0
    assert case["digest"] is not None and len(case["digest"]) == 16


def test_a_case_scales_its_time_by_the_reference_chunks_around_it(tmp_path, monkeypatch):
    """norm_s is cpu_s over the median CPU time over nominal time of CASE_CHUNKS
    reference chunks before the expression and as many after it.  In a stub checkout
    whose reference module drives a fake CPU clock, the three chunks before the
    expression read 2, 4 and 2 nominal chunks and the three after 4, 4 and 100, and the
    expression 2 s: 2 s at a quarter of the reference speed, the median, is 0.5 s at
    it, however slow the last chunk ran."""
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "src").symlink_to(root / "src")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "inputs.py").write_text("")
    (tmp_path / "perfbench" / "reference.py").write_text(
        "import time\n"
        "CHUNK_S, now, chunk_s = 0.5, [0.0], iter([1.0, 2.0, 1.0, 2.0, 2.0, 50.0])\n"
        "time.process_time = lambda: now[0]\n"
        "def chunk():\n    now[0] += next(chunk_s)\n"
        "def work(seconds):\n    now[0] += seconds\n    return seconds\n")
    monkeypatch.setitem(paired_bench.CASES, "stub", ("a stub", "2.0", "reference.work(B)"))
    run = paired_bench.case_run(tmp_path, "stub", 1)
    assert paired_bench.CASE_CHUNKS == 3
    assert run["cpu_s"] == 2.0 and run["norm_s"] == 2.0 / 4 == 0.5
    assert run["digest"] == hashlib.sha256(repr(2.0).encode()).hexdigest()


def test_a_case_imports_the_lazily_loaded_sweeps_before_its_timed_expression(tmp_path,
                                                                            monkeypatch):
    """In a stub checkout whose `superbol.rules` and `superbol.malcev` each advance a fake
    CPU clock by 100 s when imported, a case whose expression imports both and then does
    2 s of work reads 2 s: the case script imported them before its chunks and its clock."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "inputs.py").write_text("")
    (tmp_path / "perfbench" / "reference.py").write_text(
        "import time\n"
        "CHUNK_S, now = 0.5, [0.0]\n"
        "time.process_time = lambda: now[0]\n"
        "def chunk():\n    now[0] += CHUNK_S\n"
        "def work(seconds):\n    now[0] += seconds\n    return seconds\n")
    package = tmp_path / "src" / "superbol"
    package.mkdir(parents=True)
    for name in ("__init__", "catalog", "constructions", "envelope", "forms", "structures"):
        (package / (name + ".py")).write_text("")
    (package / "graded.py").write_text("GradedMap = SuperSpace = sign = None\n")
    for name in ("rules", "malcev"):
        (package / (name + ".py")).write_text("import reference\nreference.now[0] += 100.0\n")
    monkeypatch.setitem(paired_bench.CASES, "stub", (
        "a stub", "2.0", "__import__('superbol.rules') and __import__('superbol.malcev') "
        "and reference.work(B)"))
    run = paired_bench.case_run(tmp_path, "stub", 1)
    assert run["cpu_s"] == 2.0 and run["norm_s"] == 2.0
    assert run["digest"] == hashlib.sha256(repr(2.0).encode()).hexdigest()


def test_a_case_times_its_own_expression():
    """The semisimplicity_report case: its digest is that of the report the
    expression gives, built here from the same input."""
    root = Path(__file__).resolve().parents[1]
    B = constructions.malcev_to_bol(inputs.m7())
    report = forms.semisimplicity_report(
        inputs.transport(B, inputs.dense_even_map(random.Random(1), B.space), "dense " + B.name))
    run = paired_bench.case_run(root, "report_dense_bol_m7", 1)
    assert run["cpu_s"] > 0
    assert run["digest"] == hashlib.sha256(repr(report).encode()).hexdigest()


def test_the_dense_m7_lie_case_times_check_denses_failing_check():
    """check_dense_m7_lie: its digest is that of the Lie report of M7 in the dense
    basis of check_dense_m7_malcev, built here, which fails with 210 witnesses;
    report_dense_dim12 reports on check_dense_dim12's input."""
    root = Path(__file__).resolve().parents[1]
    M7 = inputs.m7()
    report = structures.check_axioms(inputs.transport(
        M7, inputs.dense_even_map(random.Random(1), M7.space), "dense " + M7.name), "lie")
    assert len(report.witnesses) == 210
    run = paired_bench.case_run(root, "check_dense_m7_lie", 1)
    assert run["digest"] == hashlib.sha256(repr(report).encode()).hexdigest()
    cases = paired_bench.CASES
    assert cases["check_dense_m7_lie"][1] == cases["check_dense_m7_malcev"][1]
    assert cases["report_dense_dim12"][1:] == (cases["check_dense_dim12"][1],
                                               cases["report_dense_bol_m7"][2])


def test_the_morphism_cases_time_their_own_expressions():
    """The check_morphism cases: each digest is that of the report built here, from
    the map the dense copy was made by, as it stands (passes) and with row 0
    doubled (fails with 336 witnesses)."""
    root = Path(__file__).resolve().parents[1]
    B = constructions.malcev_to_bol(inputs.m7())
    g = inputs.dense_even_map(random.Random(1), B.space)
    D = inputs.transport(B, g, "dense " + B.name)
    for name, rows, witnesses in (
            ("morphism_dense_bol_m7", g, 0),
            ("morphism_dense_bol_m7_doubled", [[2 * c for c in g[0]]] + g[1:], 336)):
        report = structures.check_morphism(GradedMap.from_rows(B.space, 0, rows), D, B)
        assert len(report.witnesses) == witnesses and report.passed == (not witnesses)
        run = paired_bench.case_run(root, name, 1)
        assert run["digest"] == hashlib.sha256(repr(report).encode()).hexdigest(), name


def test_the_pair_space_case_times_its_own_expression():
    """The ps_space cases, of the pairs workload's slowest operation and of
    abelian_14_0 from the catalog, and the maximal envelope of abelian_14_0: each
    digest is that of the pair space or envelope built here from the same signed
    permutation or catalog key."""
    root = Path(__file__).resolve().parents[1]
    A = constructions.malcev_to_bol(inputs.direct_sum(inputs.osp12(), inputs.osp12("_2"),
                                                      "osp12+osp12"))
    Z = catalog.build("abelian_14_0").algebra
    H = envelope.ps_space(Z)
    for name, value in (("ps_bol_osp2", envelope.ps_space(inputs.permute(
            A, *inputs.signed_permutation(random.Random(1), 10)))), ("ps_abelian_14_0", H),
            ("envelope_max_abelian_14_0", envelope.enveloping(Z, H))):
        run = paired_bench.case_run(root, name, 1)
        assert run["cpu_s"] > 0
        assert run["digest"] == hashlib.sha256(repr(value).encode()).hexdigest(), name


def test_the_companion_case_solves_the_pairs_workloads_companions():
    """companion_bol_osp2: its digest is that of companion_space on ps_bol_osp2's input and
    the operator of the inner pair of the basis vectors that were e_0, e_1, built here: six
    companions, as the pairs workload expects of bol(osp(1|2) + osp(1|2))."""
    root = Path(__file__).resolve().parents[1]
    A = constructions.malcev_to_bol(inputs.direct_sum(inputs.osp12(), inputs.osp12("_2"),
                                                      "osp12+osp12"))
    perm, signs = inputs.signed_permutation(random.Random(1), 10)
    B = inputs.permute(A, perm, signs)
    x, y = (B.space.basis_vector(perm.index(k)) for k in (0, 1))
    found = envelope.companion_space(B, envelope.inner_pair(B, x, y).operator)
    assert not found.is_empty and len(found.directions) == 6
    run = paired_bench.case_run(root, "companion_bol_osp2", 1)
    assert run["cpu_s"] > 0
    assert run["digest"] == hashlib.sha256(repr(found).encode()).hexdigest()


def test_the_partial_nambu_case_checks_the_partly_failing_sum():
    """check_lts_nambu_partial: its digest is that of the Lie-supertriple check of M7 +
    osp(1|2) broken as the rule-path tests break Nambu, under the case's name: the input
    where some inner pairs fail Nambu and the rest pass."""
    from test_rule_paths import nambu_broken
    root = Path(__file__).resolve().parents[1]
    B = nambu_broken(inputs.direct_sum(inputs.m7(), inputs.osp12(), "M7+osp12"))
    report = structures.check_axioms(B.renamed("M7+osp12 failing nambu"), "lts")
    assert {w.axiom for w in report.witnesses} == {"nambu"} and len(report.witnesses) == 2912
    run = paired_bench.case_run(root, "check_lts_nambu_partial", 1)
    assert run["digest"] == hashlib.sha256(repr(report).encode()).hexdigest()


def test_the_sparse_pseudo_case_checks_the_sparse_odd_pair():
    """pseudo_sparse_odd_dim12: its digest is that of check_pseudo on the permuted
    sparse dim-12 Bol algebra of check_sparse_dim12 and the pair the rule-path tests
    build as their sparse odd pair, which fails both rules."""
    from test_rule_paths import sparse_odd_pair
    root = Path(__file__).resolve().parents[1]
    B = inputs.permute(constructions.malcev_to_bol(inputs.direct_sum(
        inputs.m7(), inputs.osp12(), "M7+osp12")), *inputs.signed_permutation(random.Random(1), 12))
    report = envelope.check_pseudo(B, sparse_odd_pair(B))
    assert {w.axiom for w in report.witnesses} == {"derives-triple", "derives-product"}
    run = paired_bench.case_run(root, "pseudo_sparse_odd_dim12", 1)
    assert run["digest"] == hashlib.sha256(repr(report).encode()).hexdigest()
    assert paired_bench.CASES["pseudo_sparse_odd_dim12"][1].startswith(
        "sparse_odd_pair(" + paired_bench.CASES["check_sparse_dim12"][1])


def test_the_report_counts_each_sides_source_lines(tmp_path, monkeypatch):
    """main() writes each side's non-blank lines of the modules under src/superbol/,
    subpackages included, as src_lines: no blank or whitespace-only line, no file that
    is not a module and no module outside src/superbol/ is counted."""
    roots = {}
    for side, lines in (("parent", "x = 1\n\n   \ny = 2\n\tz = 3\n"), ("change", "x = 1\n\n")):
        roots[side] = tmp_path / side
        (roots[side] / "src" / "superbol" / "sub").mkdir(parents=True)
        (roots[side] / "src" / "superbol" / "a.py").write_text(lines)
        (roots[side] / "src" / "superbol" / "sub" / "b.py").write_text("\nimport a\n")
        (roots[side] / "src" / "superbol" / "notes.txt").write_text("not code\n")
        (roots[side] / "src" / "other.py").write_text("outside = 1\n")
    (roots["parent"] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "pairs"}],
        "end_to_end": [{"name": name, "better": better, "bound": bound}
                       for name, better, bound in METRICS]}))
    monkeypatch.setattr(paired_bench, "run", lambda root, workload, seed: result(1.0))
    monkeypatch.setattr(paired_bench, "case_run", same_case)
    monkeypatch.setattr(paired_bench, "cli_wall", same_wall)
    out = tmp_path / "bench.json"
    paired_bench.main([str(roots["parent"]), str(roots["change"]), "--pairs", "1",
                       "--out", str(out)])
    assert json.loads(out.read_text())["src_lines"] == {"parent": 4, "change": 2}
    assert paired_bench.src_lines(tmp_path / "nowhere") == 0


def test_main_lists_a_case_whose_digests_differ(tmp_path, monkeypatch):
    """main() writes every case under dense_cases, each run of run k
    with hash seed k on both sides; a case whose report digest differs between
    runs has digest None and is listed under regressions."""
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
    (roots["parent"] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "pairs"}],
        "end_to_end": [{"name": name, "better": better, "bound": bound}
                       for name, better, bound in METRICS]}))
    monkeypatch.setattr(paired_bench, "run", lambda root, workload, seed: result(1.0))
    seeds = []

    def case_run(root, name, seed):
        seeds.append((str(root), seed))
        digest = "b" if name == "check_dense_dim12" and str(root).endswith("change") else "a"
        cpu_s = 2.0 if str(root).endswith("parent") else 1.0
        return {"cpu_s": cpu_s, "norm_s": cpu_s / 2 + seed, "digest": digest * 64}

    monkeypatch.setattr(paired_bench, "case_run", case_run)
    monkeypatch.setattr(paired_bench, "cli_wall", same_wall)
    out = tmp_path / "bench.json"
    paired_bench.main([str(roots["parent"]), str(roots["change"]), "--pairs", "1",
                       "--out", str(out)])
    report = json.loads(out.read_text())
    cases = report["dense_cases"]
    assert list(cases) == list(paired_bench.CASES)
    assert cases["check_sparse_dim12"]["digest"] == "a" * 16
    assert cases["check_sparse_dim12"]["change_over_parent_min"] == 0.5
    assert cases["check_sparse_dim12"]["parent_min"] == 2.0
    assert cases["check_sparse_dim12"]["parent_norm_min"] == 2.0     # run 1's norm_s
    assert cases["check_sparse_dim12"]["change_norm_min"] == 1.5
    assert cases["check_dense_dim12"]["digest"] is None
    assert report["regressions"] == [{"case": "check_dense_dim12", "metric": "digest"}]
    runs = paired_bench.CASE_RUNS
    order = [("parent", "change") if k % 2 else ("change", "parent") for k in range(1, runs + 1)]
    assert seeds[:2 * runs] == [(str(roots[side]), k) for k, sides in enumerate(order, 1)
                                for side in sides]


def test_the_trajectory_prints_every_committed_report(capsys):
    """--trajectory reads every BENCH_*.json in the repository root, in the order
    of their numbers, and prints each workload metric's medians and each kernel
    case's minimums, raw and normalized, as the files hold them."""
    root = Path(__file__).resolve().parents[1]
    files = sorted(root.glob("BENCH_*.json"), key=paired_bench._number)
    reports = {path.name: json.loads(path.read_text()) for path in files}
    assert len(files) >= 20
    assert paired_bench.main(["--trajectory"]) == 0
    series = paired_bench.trajectory(files)
    assert capsys.readouterr().out == paired_bench.trajectory_text(series)
    for points in series.values():
        numbers = [paired_bench._number(Path(name)) for name, _, _ in points]
        assert numbers == sorted(numbers) and len(set(numbers)) == len(numbers)
    for path in files:
        for workload, entry in reports[path.name].get("end_to_end", {}).items():
            wall = entry.get("wall_s", {})
            if isinstance(wall.get("parent"), dict):
                assert (path.name, wall["parent"]["median"], wall["change"]["median"]) in \
                    series["workload", workload, "wall_s"]
    last = files[-1].name
    for case, entry in reports[last]["dense_cases"].items():
        assert series["case", case, "min"][-1] == (last, entry["parent_min"], entry["change_min"])
        if "parent_norm_min" in entry:
            assert series["case", case, "norm_min"][-1] == (
                last, entry["parent_norm_min"], entry["change_norm_min"])


def test_the_trajectory_passes_over_other_layouts(tmp_path):
    """Entries laid out otherwise (early files: counts, flags, a case list under
    `cases`) are passed over, and a failed side's None is printed as it stands."""
    early = tmp_path / "BENCH_2.json"
    early.write_text(json.dumps({"end_to_end": {"pairs": {
        "correct": {"parent": True, "change": True}, "failed": {"parent": 0, "change": 0},
        "wall_s": {"parent": {"median": 2.0}, "change": {"median": 1.0}}}},
        "dense_cases": {"how": "text", "cases": ["a"]}}))
    late = tmp_path / "BENCH_10.json"
    late.write_text(json.dumps({"end_to_end": {"pairs": {
        "wall_s": {"parent": {"median": 1.0}, "change": {"median": None}}}},
        "dense_cases": {"c": {"parent_min": 0.5, "change_min": 0.25}}}))
    series = paired_bench.trajectory([early, late])
    assert series == {("workload", "pairs", "wall_s"): [("BENCH_2.json", 2.0, 1.0),
                                                        ("BENCH_10.json", 1.0, None)],
                      ("case", "c", "min"): [("BENCH_10.json", 0.5, 0.25)]}
    assert paired_bench.trajectory_text(series).splitlines() == [
        "workload pairs wall_s: parent, change",
        "  BENCH_2.json             2           1",
        "  BENCH_10.json            1        None",
        "case c min: parent, change",
        "  BENCH_10.json          0.5        0.25"]


def test_the_trajectory_shows_the_package_size_beside_the_metrics(tmp_path):
    """Each file's `src_lines` is one point of the ("src_lines",) series; a file
    without it, or with a side missing, adds none."""
    files = []
    for number, lines in ((29, None), (30, {"parent": 2851, "change": 2840}),
                          (31, {"parent": 2840}), (44, {"parent": 2930, "change": 2919})):
        files.append(tmp_path / ("BENCH_%d.json" % number))
        files[-1].write_text(json.dumps({"end_to_end": {}} if lines is None else
                                        {"end_to_end": {}, "src_lines": lines}))
    series = paired_bench.trajectory(files)
    assert series == {("src_lines",): [("BENCH_30.json", 2851, 2840),
                                       ("BENCH_44.json", 2930, 2919)]}
    assert paired_bench.trajectory_text(series).splitlines() == [
        "src_lines: parent, change",
        "  BENCH_30.json         2851        2840",
        "  BENCH_44.json         2930        2919"]


def test_main_needs_both_trees_and_an_output_without_the_trajectory(capsys):
    with pytest.raises(SystemExit):
        paired_bench.main(["parent", "change"])
    assert "--out are required" in capsys.readouterr().err


def test_the_moved_path_cases_time_their_own_expressions():
    """check_pseudo_dense_bol_m7 and lie_to_lts_dense_osp2: each digest is that of the
    report or the Lie supertriple built here, from the dense bol(M7) of check_dense_bol_m7
    and an even pair with Fraction entries throughout, which fails both rules, and from
    the dense copy of osp(1|2) + osp(1|2); both inputs have L > 1."""
    from fractions import Fraction
    root, rng = Path(__file__).resolve().parents[1], random.Random(1)
    B = constructions.malcev_to_bol(inputs.m7())
    D = inputs.transport(B, inputs.dense_even_map(random.Random(1), B.space), "dense " + B.name)
    n = D.space.dim
    pair = envelope.PseudoDerivationPair(GradedMap.from_rows(D.space, 0, [
        [Fraction(t - m, 3) for m in range(n)] for t in range(n)]),
        D.space.vector([Fraction(m + 1, 2) for m in range(n)]))
    report = envelope.check_pseudo(D, pair)
    assert {w.axiom for w in report.witnesses} == {"derives-triple", "derives-product"}
    osp2 = inputs.direct_sum(inputs.osp12(), inputs.osp12("_2"), "osp12+osp12")
    L = inputs.transport(osp2, inputs.dense_even_map(rng, osp2.space), "dense " + osp2.name)
    assert D._lifted[0] > 1 and L._lifted[0] > 1
    for name, value in (("check_pseudo_dense_bol_m7", report),
                        ("lie_to_lts_dense_osp2", constructions.lie_to_supertriple(L))):
        run = paired_bench.case_run(root, name, 1)
        assert run["digest"] == hashlib.sha256(repr(value).encode()).hexdigest(), name
    assert paired_bench.CASES["check_pseudo_dense_bol_m7"][1] == \
        "fraction_pair(%s)" % paired_bench.CASES["check_dense_bol_m7"][1]


def test_the_larger_abelian_cases_time_what_the_abelian_14_0_ones_do():
    """ps_abelian_24_0 and envelope_max_abelian_20_0 time the expressions of the
    abelian_14_0 cases on larger catalog keys, the pseudo --max and envelope --maximal
    walls' pair space and envelope."""
    for small, large, key in (("ps_abelian_14_0", "ps_abelian_24_0", "abelian_24_0"),
                              ("envelope_max_abelian_14_0", "envelope_max_abelian_20_0",
                               "abelian_20_0")):
        _, source, timed = paired_bench.CASES[small]
        assert paired_bench.CASES[large][1:] == (source.replace("abelian_14_0", key), timed)


def test_a_cli_wall_is_one_process_read_alone():
    """cli_wall runs `python -m superbol --format machine ...` from the checkout root
    with PYTHONHASHSEED=1: its stdout is that of the same command run here, its CPU
    seconds and peak RSS are its own, and a process that cannot start the package
    keeps its exit code."""
    root = Path(__file__).resolve().parents[1]
    argv = ("center", "abelian_3_1")
    run = paired_bench.cli_wall(root, argv)
    same = subprocess.run([sys.executable, "-m", "superbol", "--format", "machine", *argv],
                          cwd=root, capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="1"))
    assert run["exit_code"] == 0 and 0 < run["cpu_s"] < 30 and 1 < run["peak_rss_mb"] < 500
    assert run["stdout_sha256"] == hashlib.sha256(same.stdout).hexdigest()
    assert paired_bench.cli_wall(Path(paired_bench.__file__).parent, argv)["exit_code"] == 1


def test_cli_walls_compare_each_wall_once_per_side(monkeypatch):
    """Each wall runs once per side, the parent first; the ratios are None unless both
    sides exit 0, and same_stdout needs the same exit code and stdout."""
    calls = []
    canned = {"p": {"cpu_s": 2.0, "peak_rss_mb": 80.0, "exit_code": 0, "stdout_sha256": "a"},
              "c": {"cpu_s": 1.0, "peak_rss_mb": 40.0, "exit_code": 0, "stdout_sha256": "a"},
              "x": {"cpu_s": 0.1, "peak_rss_mb": 9.0, "exit_code": 1, "stdout_sha256": "a"}}
    monkeypatch.setattr(paired_bench, "cli_wall", lambda root, argv: calls.append(
        (root, argv)) or canned[root])
    out = paired_bench.cli_walls({"parent": "p", "change": "c"}, {"w": ("pseudo", "--max")}, 1)
    assert calls == [("p", ("pseudo", "--max")), ("c", ("pseudo", "--max"))]
    assert out["w"]["argv"] == ["superbol", "--format", "machine", "pseudo", "--max"]
    assert (out["w"]["cpu_change_over_parent"], out["w"]["rss_change_over_parent"]) == (0.5, 0.5)
    assert out["w"]["same_stdout"] and out["w"]["parent"]["runs"] == [canned["p"]]
    failed = paired_bench.cli_walls({"parent": "p", "change": "x"}, {"w": ("center",)}, 1)["w"]
    assert failed["cpu_change_over_parent"] is None and not failed["same_stdout"]
    assert failed["cpu_min_change_over_parent"] is None


def test_cli_walls_compare_the_cpu_minimums_beside_the_medians(monkeypatch):
    """On canned runs where one slow change process moves the change's median but not its
    min, cpu_min_change_over_parent is the ratio of the two sides' cpu_s_min; one run
    that exits nonzero makes it None."""
    cpu = {"p": iter([2.0, 2.2, 2.1]), "c": iter([1.8, 3.0, 2.9]),
           "x": iter([1.0, 1.0, 1.0])}
    monkeypatch.setattr(paired_bench, "cli_wall", lambda root, argv: {
        "cpu_s": next(cpu[root]), "peak_rss_mb": 20.0,
        "exit_code": 1 if root == "x" else 0, "stdout_sha256": "a"})
    out = paired_bench.cli_walls({"parent": "p", "change": "c"}, {"w": ("center",)}, 3)["w"]
    assert (out["parent"]["cpu_s_min"], out["change"]["cpu_s_min"]) == (2.0, 1.8)
    assert out["cpu_min_change_over_parent"] == 1.8 / 2.0 < 1
    assert out["cpu_change_over_parent"] == 2.9 / 2.1 > 1
    cpu["p"] = iter([2.0, 2.2, 2.1])
    failed = paired_bench.cli_walls({"parent": "p", "change": "x"}, {"w": ("center",)}, 3)["w"]
    assert failed["cpu_min_change_over_parent"] is None


def test_cli_walls_write_cpu_quartiles_and_whether_they_resolve_the_wall(monkeypatch):
    """On canned runs each side's cpu_s_q1 and cpu_s_q3 are the inclusive quartiles of its
    runs' CPU seconds; cpu_resolved is False where the two sides' interquartile ranges
    overlap, True where they are apart (the change faster or slower), and None where a run
    exits nonzero."""
    def walls(parent, change, code=0):
        cpu = {"p": iter(parent), "c": iter(change)}
        monkeypatch.setattr(paired_bench, "cli_wall", lambda root, argv: {
            "cpu_s": next(cpu[root]), "peak_rss_mb": 20.0,
            "exit_code": code if root == "c" else 0, "stdout_sha256": "a"})
        return paired_bench.cli_walls({"parent": "p", "change": "c"}, {"w": ("center",)},
                                      len(parent))["w"]
    parent = [2.0, 2.4, 2.1, 2.3, 2.2]    # quartiles 2.1 and 2.3
    overlapping = walls(parent, [1.9, 2.2, 2.0, 2.15, 1.95])    # 1.95 to 2.15
    assert (overlapping["parent"]["cpu_s_q1"], overlapping["parent"]["cpu_s_q3"]) == (2.1, 2.3)
    assert (overlapping["change"]["cpu_s_q1"], overlapping["change"]["cpu_s_q3"]) == (1.95, 2.15)
    assert overlapping["cpu_resolved"] is False and overlapping["cpu_change_over_parent"] < 1
    separated = walls(parent, [1.9, 1.7, 2.2, 1.8, 1.75])    # 1.75 to 1.9, one slow run
    assert (separated["change"]["cpu_s_q1"], separated["change"]["cpu_s_q3"]) == (1.75, 1.9)
    assert separated["cpu_resolved"] is True
    assert walls([1.8, 1.75, 1.9], parent[:3])["cpu_resolved"] is True    # the change slower
    assert walls(parent, [1.0] * 5, code=1)["cpu_resolved"] is None


STUB_MAIN = """\
import pathlib, sys
root = pathlib.Path.cwd()
with open(root.parent / "order.log", "a") as log:
    log.write(root.name + "\\n")
runs = (root.parent / "order.log").read_text().split().count(root.name)
print(*sys.argv[1:], "odd" if root.name == "odd" and runs == 3 else "")
sum(range(%d))
"""


def test_cli_walls_alternate_repeated_runs_and_compare_their_medians(tmp_path):
    """On stub trees whose `python -m superbol` logs its tree, prints its argv and
    burns a fixed count of steps, each wall runs WALL_RUNS processes a side, the
    parent first in odd-numbered runs; each side's median and min are those of its
    runs, the ratios those of the medians; and one run of the change that prints
    something else makes the wall's stdout differ."""
    for name, steps in (("parent", 2_000_000), ("change", 10), ("odd", 10)):
        package = tmp_path / name / "src" / "superbol"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(STUB_MAIN % steps)
    roots = {side: str(tmp_path / side) for side in ("parent", "change")}
    out = paired_bench.cli_walls(roots, {"w": ("center", "x")})["w"]
    runs = paired_bench.WALL_RUNS
    assert runs >= 3 and (tmp_path / "order.log").read_text().split() == [
        side for k in range(1, runs + 1)
        for side in (("parent", "change") if k % 2 else ("change", "parent"))]
    for side in ("parent", "change"):
        cpu = [r["cpu_s"] for r in out[side]["runs"]]
        assert len(cpu) == runs and all(r["exit_code"] == 0 for r in out[side]["runs"])
        assert (out[side]["cpu_s_median"], out[side]["cpu_s_min"]) == (sorted(cpu)[runs // 2],
                                                                      min(cpu))
        rss = [r["peak_rss_mb"] for r in out[side]["runs"]]
        assert (out[side]["peak_rss_mb_median"], out[side]["peak_rss_mb_min"]) == (
            sorted(rss)[runs // 2], min(rss))
    assert out["cpu_change_over_parent"] == \
        out["change"]["cpu_s_median"] / out["parent"]["cpu_s_median"] < 1
    assert out["rss_change_over_parent"] == \
        out["change"]["peak_rss_mb_median"] / out["parent"]["peak_rss_mb_median"]
    assert out["same_stdout"]
    (tmp_path / "order.log").unlink()
    odd = paired_bench.cli_walls({"parent": roots["parent"], "change": str(tmp_path / "odd")},
                                 {"w": ("center", "x")})["w"]
    assert not odd["same_stdout"] and odd["cpu_change_over_parent"] is not None
