"""The pair solvers read their rows from the packed rule evaluator.

ps_space and companion_space take their linear systems from
`structures._pair_rows`: each unknown is a unit pair, all packed into one
pair W bits apart, and that pair runs through the path `_joins` chooses for
each rule's tables, as the Bol check's does.  Each nonzero packed coordinate
of a defect is one row; one seen before, up to sign, is dropped, and a new
one is read off its signed W-bit digits.  `slow_reference.pair_rows` writes both rules out term
by term instead, at the same tuples and on the same lifted scale.

The rows the solvers read must be the reference's up to sign and order, with
no repeat and the same reduced echelon form: on the catalog Bol algebras, bol(M7),
bol(osp(1|2) + osp(1|2)), a dense copy, lifted tables with Fraction
constants and tables whose skew or ternary Jacobi sweep fails, in both
degrees, for ps_space and for companion_space of integer and Fraction
operators.  Both rules are read in one pass, the triple rule's first: an
operator that fails it has no companion, seen at the first row read.  A
width one bit short reads other rows.  Both paths read the same rows in the
same order.
"""

from fractions import Fraction
import random

import pytest

from bench_inputs import inputs
import slow_reference
import superbol as sb
from superbol import envelope, structures
from superbol.linalg import _divided, _rref
from test_packed_pairs import positive
from test_reference import LIFTED
from test_rule_paths import broken, dense, inner_input


def solver_inputs():
    osp = inputs.osp12()
    L231 = sb.catalog.load("L2_3_1_bol")
    return [e.algebra for e in sb.catalog.entries() if e.kind == "bol"] + [
        sb.malcev_to_bol(inputs.m7()),
        sb.malcev_to_bol(inputs.direct_sum(osp, inputs.osp12("_2"), "osp12+osp12")),
        dense(sb.malcev_to_bol(osp)), LIFTED[0], LIFTED[3],
        broken(L231, "skew"), broken(L231, "jacobi")]


INPUTS = solver_inputs()


@pytest.fixture
def read(monkeypatch):
    """(degree, rows) of each `_pair_rows` call a solver makes, each row as it is read."""
    calls, pair_rows = [], envelope._pair_rows

    def recorded(B, r, *args):
        calls.append((r, []))
        for row in pair_rows(B, r, *args):
            calls[-1][1].append(tuple(row))
            yield calls[-1][1][-1]
    monkeypatch.setattr(envelope, "_pair_rows", recorded)
    return calls


def up_to_sign(row):
    return max(row, tuple((k, -c) for k, c in row))


def assert_reference_rows(rows, reference):
    """rows are the reference's up to sign and order, without repeats, same echelon."""
    assert len({up_to_sign(row) for row in rows}) == len(rows)
    assert {up_to_sign(row) for row in rows} == {up_to_sign(row) for row in reference}
    assert echelon(rows) == echelon(reference)


def echelon(rows):
    """The reduced rows, each divided by its lead, and the pivots of `_rref`."""
    reduced, pivots = _rref(rows)
    return list(map(_divided, reduced)), pivots


def solved(B):
    """ps_space(B), or None where B's inner pairs escape it (B fails the Bol axioms)."""
    try:
        return sb.ps_space(B)
    except envelope.EnvelopeError:
        assert not sb.check_axioms(B, "bol").passed
        return None


@pytest.mark.parametrize("B", INPUTS, ids=lambda B: B.name)
def test_ps_space_reads_the_reference_rows(B, read):
    solved(B)
    par = B.space.parities
    assert [r for r, _ in read] == [r for r in (0, 1) if r in par or r == 0]
    for r, rows in read:
        assert_reference_rows(rows, slow_reference.pair_rows(B, r))


@pytest.mark.parametrize("B", INPUTS, ids=lambda B: B.name)
def test_companion_space_reads_the_reference_rows(B, read):
    """On the operators of PS, and a third of one (Fraction entries, D = 3):
    the product rule's rows, with b from the known operator at column n."""
    H = solved(B)
    operators = [p.operator for p in H.basis[:3]] + [Fraction(1, 3) * H.basis[-1].operator] \
        if H else [sb.inner_pair(B, *B.space.basis()[:2]).operator]
    for P in operators:
        read.clear()
        found = sb.companion_space(B, P)
        assert found == slow_reference.companion_space(B, P)
        if found.is_empty:
            continue    # the triple rule failed at the first row read
        [(r, rows)] = read
        assert r == P.degree
        assert_reference_rows(rows, slow_reference.pair_rows(B, r, P))


def random_operator(B, rng, r):
    n, par = B.space.dim, B.space.parities
    return sb.GradedMap.from_rows(B.space, r, [[rng.randint(-3, 3) if par[t] == (par[m] + r) % 2
                                                else 0 for m in range(n)] for t in range(n)])


def test_an_operator_failing_the_triple_rule_has_no_companion(read):
    """Random operators of both degrees: where the reference's triple rule
    fails, companion_space is empty, and its one `_pair_rows` call stops at
    the first row, 0 = b (its only digit at the known column n), reading
    nothing after it."""
    rng, failed = random.Random(7), 0
    for B in INPUTS:
        for r in (0, 1):
            P = random_operator(B, rng, r)
            probe = sb.PseudoDerivationPair(P, B.space.zero())
            if any(w.axiom == "derives-triple"
                   for w in slow_reference.check_pseudo(B, probe).witnesses):
                failed += 1
                read.clear()
                assert sb.companion_space(B, P).is_empty, B.name
                assert slow_reference.companion_space(B, P).is_empty
                [(degree, [row])] = read
                assert degree == r and [k for k, _ in row] == [B.space.dim], B.name
    assert failed > len(INPUTS)


def test_a_width_one_bit_short_reads_other_rows(monkeypatch, read):
    """Companion rows whose digits come within a factor of 2 of `_width`'s
    bound: every entry of the tables near 2^70 and positive, and the zero
    operator, so each row is the companions' a.(e_i e_j) + [e_i, e_j, a]."""
    B = positive(3, 1 << 70)
    zero = sb.GradedMap.from_rows(B.space, 0, [[0] * 3 for _ in range(3)])
    reference = slow_reference.pair_rows(B, 0, zero)
    sb.companion_space(B, zero)
    [(_, rows)] = read
    assert_reference_rows(rows, reference)
    width, widths = structures._width, []
    W = width([((), (), (), ((0, 1),))], structures._swept(B, ("binary", "ternary")))
    assert max(abs(c) for row in rows for _, c in row) >= 1 << W - 2
    monkeypatch.setattr(structures, "_width", lambda *args: widths.append(1) or width(*args) - 1)
    read.clear()
    sb.companion_space(B.renamed("fresh"), zero)
    [(_, short)] = read
    assert widths and {up_to_sign(row) for row in short} != {up_to_sign(row) for row in rows}


@pytest.mark.parametrize("B", inner_input("sparse") + inner_input("dense") + [
    sb.catalog.load("abelian_6_2")] + LIFTED, ids=lambda B: B.name)
def test_both_paths_read_the_same_rows_in_the_same_order(B, monkeypatch):
    """ps_space's unit pairs of each degree, for each rule whose tables B has
    (the one `_RULES` is patched to), joined and listed: the same rows, in the
    same order, nonempty but on the zero algebra."""
    n, par, L = B.space.dim, B.space.parities, B._lifted[0]
    found, joined, join_ = [], [], structures._joined
    monkeypatch.setattr(structures, "_joined", lambda *args: joined.append(1) or join_(*args))
    for rule in structures._RULES:
        if any(getattr(B, what) is None for what in rule[1]):
            continue
        monkeypatch.setattr(structures, "_RULES", (rule,))
        for r in (0, 1):
            columns = [k for k in range(n * n + n) if envelope._degree_at(par, k) == r]
            pairs = [(k, envelope._unflat(n, [(k, L if k < n * n else 1)])) for k in columns]
            rows = []
            for join in (True, False):
                monkeypatch.setattr(structures, "_joins", lambda tables: join)
                joined.clear()
                rows.append(list(structures._pair_rows(B, r, pairs)) if pairs else [])
                assert bool(joined) == (join and bool(pairs))
            assert rows[0] == rows[1], (B.name, rule[0], r)
            found += rows[0]
    assert bool(found) == any(st is not None and st.cells() for st in (B.binary, B.ternary))
