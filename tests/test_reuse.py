"""Each fact is computed once and read by every later consumer.

* check_axioms sweeps an algebra object once per kind: every CLI command
  that verifies an algebra more than once reads the stored report.
* A PairSpace keeps the brackets of its basis pairs, which it computes
  to verify closure; the envelope's pair block is exactly those brackets.
* The direct Killing-Ricci route is a closed-form sum; it matches the
  route through right multiplication maps in `slow_reference`, types
  included, and both routes transform as g^T beta g under an even change
  of basis g.
"""

import collections
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from bench_inputs import inputs
from superbol import algfile, structures
from superbol.cli import main
from superbol.graded import rat
from test_reference import bols, even_map, transport

BOL_KEYS = ("L2_2_2_bol", "L2_3_1_bol", "abelian_2_2")


@pytest.fixture
def sweeps(monkeypatch):
    """Counts of each axiom sweep per (algebra object, kind, sweep)."""
    seen = collections.Counter()
    alive = []  # keeps every counted algebra alive, so no id is reused

    def counted(name, sweep):
        def run(*args):
            # the caller is check_axioms; its frame holds the algebra and kind
            caller = sys._getframe(1).f_locals
            alive.append(caller["A"])
            seen[(id(caller["A"]), caller["kind"], name)] += 1
            return sweep(*args)
        return run

    for axiom, (sweep, reads, weight) in list(structures._SWEEPS.items()):
        monkeypatch.setitem(structures._SWEEPS, axiom, (counted(axiom, sweep), reads, weight))
    return seen


@pytest.mark.parametrize("argv", [
    ("report",), ("killing-ricci",), ("envelope", "--maximal"), ("pseudo", "--max")])
def test_each_command_sweeps_each_algebra_once_per_kind(sweeps, argv, tmp_path, capsys):
    osp = tmp_path / "bol_osp12.alg"
    osp.write_text(algfile.serialize_algebra(sb.malcev_to_bol(inputs.osp12())), encoding="utf-8")
    for algebra in ("L2_3_1_bol", str(osp)):
        sweeps.clear()
        assert main([argv[0], algebra] + list(argv[1:])) == 0
        capsys.readouterr()
        kinds = {kind for _, kind, _ in sweeps}
        assert "bol" in kinds
        assert ("lie" in kinds) == (argv[0] != "pseudo")
        repeated = {key: count for key, count in sweeps.items() if count > 1}
        assert not repeated, (argv, algebra, repeated)


def test_check_axioms_stores_one_report_per_kind():
    B = sb.catalog.build("L2_3_1_bol").algebra
    report = sb.check_axioms(B, "bol")
    assert sb.check_axioms(B, "bol") is report
    assert sb.check_axioms(B, "lts") is sb.check_axioms(B, "lie_supertriple")
    # the stored reports are no part of the value: equality, hashing and
    # renamed copies are unaffected
    fresh = sb.catalog.build("L2_3_1_bol").algebra
    assert fresh == B and hash(fresh) == hash(B)
    assert sb.check_axioms(B.renamed("other"), "bol").subject == "other"


def test_each_table_is_swept_for_skew_once(monkeypatch):
    """The skew verdict is kept on each structure object: the Bol check,
    ps_space, ips_space and companion_space on one bol(osp(1|2)) read it
    from one sweep of each table."""
    built = sb.malcev_to_bol(inputs.osp12())
    # fresh structure objects, which no earlier call has swept
    B = sb.AlgebraDef("bol(osp12)", built.space, *(
        type(st)._of(built.space, dict(st.cells())) for st in (built.binary, built.ternary)))
    assert B._lifted[0] == 1    # the check sweeps these objects, not lifted copies
    swept = []
    skew = structures._skew
    monkeypatch.setattr(structures, "_skew", lambda space, st: swept.append(st) or skew(space, st))
    assert sb.check_axioms(B, "bol").passed
    H = sb.ps_space(B)
    sb.ips_space(B)
    for pair in H.basis[:3]:
        sb.companion_space(B, pair.operator)
    assert sorted(map(id, swept)) == sorted(map(id, (B.binary, B.ternary)))


def _bol_inputs():
    osp = sb.malcev_to_bol(inputs.osp12())
    return [sb.catalog.load(key) for key in BOL_KEYS] + [
        osp, transport(osp, even_map(osp.space, random.Random(0)))]


def test_envelope_pair_block_is_the_pair_brackets():
    for B in _bol_inputs():
        nb = B.space.dim
        for H in (sb.ips_space(B), sb.ps_space(B)):
            table = sb.enveloping(B, H).lie.binary.table
            for m, p in enumerate(H.basis):
                for l, q in enumerate(H.basis):
                    expected = H.coordinates_of(sb.pair_bracket(B, p, q))
                    assert table[nb + m][nb + l] == (0,) * nb + expected, (B.name, m, l)
        assert sb.enveloping(B) == sb.enveloping(B, sb.ips_space(B))


def typed(form):
    return [[(type(c), c) for c in row] for row in form.gram]


def test_direct_killing_ricci_matches_the_right_map_route():
    for B in bols() + _bol_inputs()[-1:]:
        assert typed(sb.killing_ricci(B, "direct")) == \
            typed(slow_reference.killing_ricci_direct(B)), B.name


@settings(max_examples=15, deadline=None)
@given(st.deferred(lambda: st.integers(0, len(bols()) - 1)), st.integers(0, 2 ** 32))
def test_killing_ricci_routes_transform_as_gt_beta_g(index, seed):
    A = bols()[index]
    g = even_map(A.space, random.Random(seed))
    C = transport(A, g)
    n = A.space.dim
    beta, G = sb.killing_ricci(A, "direct").gram, g.matrix
    expected = tuple(tuple(rat(sum(G[a][i] * beta[a][b] * G[b][j]
                                   for a in range(n) for b in range(n)))
                           for j in range(n)) for i in range(n))
    direct = sb.killing_ricci(C, "direct")
    assert typed(direct) == typed(slow_reference.killing_ricci_direct(C))
    assert direct.gram == expected
    assert sb.killing_ricci(C, "restriction").gram == expected
