"""The statistics of tools/paired_bench.py on canned run results: quartiles
by the inclusive method, pairs won with ties counting for neither, and a
claim met only with at least nine tenths of the pairs won and a median gap
larger than the parent's interquartile range."""

import importlib.util
from pathlib import Path

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
    claim = paired_bench.claim(wall, 10, "lower")
    assert claim["met"] and claim["change_better_pairs"] == 9
    assert abs(claim["parent_iqr"] - (1.0175 - 0.9825)) < 1e-12


def test_ties_and_a_small_gap_do_not_meet_a_claim():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    # every pair won, but the median gap (0.05) is inside the parent's IQR (0.15)
    close = paired_bench.summarize(runs([result(v) for v in parent],
                                        [result(v - 0.05) for v in parent]), METRICS)
    assert not paired_bench.claim(close["check-sparse"]["wall_s"], 10, "lower")["met"]
    # a large gap, but a tie and two losses leave 7 wins of 10
    change = [0.5] * 7 + [1.0, 1.2, 1.5]
    tied = paired_bench.summarize(runs([result(v) for v in [1.0] * 10],
                                       [result(v) for v in change]), METRICS)
    wall = tied["check-sparse"]["wall_s"]
    assert wall["change_better_pairs"] == 7
    assert not paired_bench.claim(wall, 10, "lower")["met"]


def test_bounds_and_failures_are_reported():
    parent = [result(1.0, 20.0)] * 4
    change = [result(1.3, 22.5, failed=1)] + [result(1.3, 22.5)] * 3
    summary = paired_bench.summarize(runs(parent, change), METRICS)["check-sparse"]
    assert not summary["wall_s"]["within_bound"]        # 1.3 > 1 + 0.25
    assert not summary["peak_rss_mb"]["within_bound"]   # 1.125 > 1 + 0.1
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] == {"parent": True, "change": False}
    assert paired_bench.better(2, 1, "higher") and not paired_bench.better(1, 1, "lower")
