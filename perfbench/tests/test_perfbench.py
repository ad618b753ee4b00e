"""Tests of the benchmark itself, not of the package.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import superbol  # noqa: E402
from superbol import algfile, catalog, structures  # noqa: E402


def algebra_bytes(A):
    return repr((A.space, A.binary, A.ternary)).encode()


def pass_inputs(W, index):
    return b"".join(algebra_bytes(A) for op in W.ops(index) for A in op.reads)


def test_same_seed_gives_identical_inputs(tmp_path):
    first = workloads.CheckDense(5, str(tmp_path / "a"))
    again = workloads.CheckDense(5, str(tmp_path / "b"))
    other = workloads.CheckDense(6, str(tmp_path / "c"))
    for W in (first, again, other):
        W.setup()
    assert pass_inputs(first, 0) == pass_inputs(again, 0)
    assert pass_inputs(first, 1) == pass_inputs(again, 1)
    assert pass_inputs(first, 0) != pass_inputs(first, 1)
    assert pass_inputs(first, 0) != pass_inputs(other, 0)


def test_same_seed_writes_identical_alg_files(tmp_path):
    texts = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        W = workloads.CliReport(5, str(workdir))
        W.setup()
        for index in (0, 1):
            names = sorted(W.write_files(index))
            texts.append({name: (workdir / name).read_bytes() for name in names})
    assert texts[0] == texts[2] and texts[1] == texts[3]
    assert texts[0] != texts[1]


@pytest.mark.parametrize("key,kind,witnesses", [
    ("osp", "lie", 0),
    ("M7", "lie", 168),
    ("M7", "malcev", 0),
])
def test_signed_permutation_keeps_verdict_and_witness_count(key, kind, witnesses):
    A = workloads.ladder(key)[key]
    rng = workloads.pass_rng(3, 0)
    for _ in range(3):
        B = inputs.permute(A, *inputs.signed_permutation(rng, A.space.dim))
        report = structures.check_axioms(B, kind)
        assert (report.passed, len(report.witnesses)) == (not witnesses, witnesses)


@pytest.mark.parametrize("key,kind,passes", [
    ("L2_3_1_bol", "bol", True),
    ("L2_2_2_malcev", "malcev", True),
    ("L2_2_2_malcev", "lie", False),
])
def test_dense_rebasing_keeps_verdict_and_is_an_isomorphism(key, kind, passes):
    A = catalog.load(key)
    item = workloads.dense_copies([A])[0]
    share = inputs.nonzero_cells(item[1])
    assert share[0] > inputs.nonzero_cells(A)[0]
    B, g = workloads.rebase_dense(item, workloads.pass_rng(3, 0))
    assert structures.check_axioms(B, kind).passed == passes
    assert structures.check_morphism(g, B, A).passed


def test_even_first_copy_round_trips_through_alg_text():
    A = workloads.ladder("osp")["osp"]
    B = inputs.permute(A, *inputs.signed_permutation(workloads.pass_rng(1, 0), 5))
    text = algfile.serialize_algebra(inputs.even_first(B))
    assert algfile.serialize_algebra(algfile.parse_algebra(text)) == text


def bindings():
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if spans._owned(module) for attr, value in vars(module).items()}


def test_wrappers_leave_the_package_unpatched():
    before = bindings()
    tracer, counter = spans.Tracer(), spans.Counter()
    with pytest.raises(structures.AxiomError):
        with tracer.active(), counter.active():
            assert superbol.check_axioms is not before[("superbol", "check_axioms")]
            structures.require_axioms(catalog.entry("L2_2_2_malcev").algebra, "lie")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "catalog.entry"
    assert names[-1] == "structures.check_axioms"
    assert counter.rat_calls > 0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, "a"], ["inner", 1.0, 4.0, 0, "a"],
                    ["inner", 5.0, 6.0, 0, "a"], ["leaf", 2.0, 3.0, 1, "a"]]
    calls, self_s = tracer.totals(lambda op: op == "a")
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_pass_times_are_scaled_by_that_pass_s_reference_chunks():
    fast = [0, [1.0, 2.0], [1.0, 1.0]]
    slow = [1, [2.0, 4.0], [2.0, 2.0]]
    assert run.normalised([fast, slow]) == [pytest.approx([1.0, 2.0])] * 2


def test_pass_count_does_not_depend_on_the_program():
    assert [run.pass_count(name, 10) for name in run.WORKLOAD_NAMES] == [6, 6, 6, 4]
    assert all(run.pass_count(name, 1) == len(run.HASH_SEEDS) for name in run.WORKLOAD_NAMES)


def counted_pass(W):
    counter, tracer = spans.Counter(), spans.Tracer()

    def enter(op):
        counter.op = tracer.op = op.name

    for active in (tracer.active, counter.active):
        ops = W.ops(0)
        with active():
            for op in ops:
                enter(op)
                op.call()
    return counter, tracer


@pytest.fixture(scope="module")
def check_sparse(tmp_path_factory):
    W = workloads.CheckSparse(workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp("sparse")))
    W.setup()
    return counted_pass(W)


def test_check_sparse_sweeps_each_input_once_and_never_eliminates(check_sparse):
    counter, tracer = check_sparse
    assert counter.unique_ratio() == 1.0
    assert counter.rref == []
    assert "linalg.rref" not in {span[0] for span in tracer.spans}


def test_cli_report_repeats_sweeps(tmp_path):
    W = workloads.CliReport(workloads.DEFAULT_SEED, str(tmp_path))
    W.setup()
    W.in_process = True
    counter, _ = counted_pass(W)
    assert counter.unique_ratio() < 1.0
