"""The pair solvers read their rows from the packed rule evaluator.

ps_space and companion_space take their linear systems from
`rules._pair_rows`, which reads one pair holding every unknown W bits apart:
ps_space packs its unknowns straight into it, one digit per unknown, and
companion_space its unit companions and then the known operator, -P, at
the last digit.  That pair runs through the path `_joins` chooses for
each rule's tables, as the Bol check's does.  Each nonzero packed coordinate
of a defect is one row; one seen before, up to sign, is dropped, and a new
one is read off its signed W-bit digits.  `slow_reference.pair_rows` writes both rules out term
by term instead, at the same tuples and on the same lifted scale.

The rows the solvers read must be the reference's up to sign and order, with
no repeat and the same reduced echelon form: on the catalog Bol algebras, bol(M7),
bol(osp(1|2) + osp(1|2)), a dense copy, lifted tables with Fraction
constants and tables whose skew or ternary Jacobi sweep fails, in both
degrees, for ps_space and for companion_space of integer and Fraction
operators.  ps_space's direct pack is the reference packer's
(`slow_reference.packed`) of its unit pairs at the same W, on those inputs
and on the odd part of osp(1|2), whose odd degree has only companion
unknowns, and so is companion_space's of its unit companions and -P.  Both
rules are read in one pass, the triple rule's first: an operator that fails
it has no companion, seen at the first row read.  A width one bit short
reads other rows, for both solvers.  Both paths read the same rows in the
same order.
"""

import contextlib
from fractions import Fraction
import functools
import itertools
import math
import random

import pytest

from bench_inputs import inputs
import slow_reference
import superbol as sb
from superbol import envelope, rules, structures
from superbol.linalg import _divided, _rref
from test_packed_pairs import positive
from test_reference import lifted_inputs
from test_rule_paths import broken, dense, inner_input


SOLVER_INPUTS = ("L2_2_2_bol", "L2_3_1_bol", "abelian_2_2", "bol(M7)", "bol(osp12+osp12)",
                 "dense bol(osp12)", "L2_3_1_bol/2", "bol(L2_2_2_malcev)*3/2",
                 "L2_3_1_bol broken skew", "L2_3_1_bol broken jacobi")


@functools.cache
def solver_inputs():
    """The catalog's Bol algebras and the inputs built from others, in SOLVER_INPUTS' order:
    built inside a test, so that a fault in building them fails the tests that read them, not
    the collection of this module."""
    osp = inputs.osp12()
    L231 = sb.catalog.load("L2_3_1_bol")
    return [e.algebra for e in sb.catalog.entries() if e.kind == "bol"] + [
        sb.malcev_to_bol(inputs.m7()),
        sb.malcev_to_bol(inputs.direct_sum(osp, inputs.osp12("_2"), "osp12+osp12")),
        dense(sb.malcev_to_bol(osp)), lifted_inputs()[0], lifted_inputs()[3],
        broken(L231, "skew"), broken(L231, "jacobi")]


@functools.cache
def odd_osp12():
    """The odd part of osp(1|2) as a Bol algebra: the ternary product [[x, y], z] / 3 (so
    L = 3), the binary product zero (odd times odd is even).  A pair of odd degree on it has
    no operator entry, so its unknowns are all the companion's, each at 1, not L."""
    A = inputs.osp12()
    odd = [i for i, p in enumerate(A.space.parities) if p]
    space, e, P = sb.SuperSpace((1,) * len(odd), tuple(A.space.labels[i] for i in odd)), \
        A.space.basis(), A.product
    return sb.AlgebraDef("odd(%s)/3" % A.name, space,
                         binary=sb.BinaryStructure.from_products(space, {}),
                         ternary=sb.TernaryStructure.from_products(space, {
        (a, b, c): [Fraction(P(P(e[i], e[j]), e[k]).coords[m], 3) for m in odd]
        for (a, i), (b, j), (c, k) in itertools.product(enumerate(odd), repeat=3)}))


def solver_input(name):
    found = solver_inputs()
    assert [B.name for B in found] == list(SOLVER_INPUTS)
    return found[SOLVER_INPUTS.index(name)]


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


@pytest.mark.parametrize("name", SOLVER_INPUTS)
def test_ps_space_reads_the_reference_rows(name, read):
    B = solver_input(name)
    solved(B)
    par = B.space.parities
    assert [r for r, _ in read] == [r for r in (0, 1) if r in par or r == 0]
    for r, rows in read:
        assert_reference_rows(rows, slow_reference.pair_rows(B, r))


@pytest.mark.parametrize("name", SOLVER_INPUTS)
def test_companion_space_reads_the_reference_rows(name, read):
    """On the operators of PS, and a third of one (Fraction entries, D = 3):
    the product rule's rows, with b from the known operator at column n."""
    B = solver_input(name)
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
    for B in solver_inputs():
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
    assert failed > len(SOLVER_INPUTS)


def test_a_width_one_bit_short_reads_other_rows(monkeypatch, read):
    """Companion rows whose digits come within a factor of 2 of `_width`'s
    bound: every entry of the tables near 2^70 and positive, and the zero
    operator, so each row is the companions' a.(e_i e_j) + [e_i, e_j, a].
    ps_space's own pack on the same tables, at the same W (x1 = L = 1), reads
    rows of the reference until they reach full rank, its companion unknowns'
    as near the bound; one bit short, it reads other rows or a digit past its
    last unknown."""
    B = positive(3, 1 << 70)
    zero = sb.GradedMap.from_rows(B.space, 0, [[0] * 3 for _ in range(3)])
    reference = slow_reference.pair_rows(B, 0, zero)
    sb.companion_space(B, zero)
    [(_, rows)] = read
    assert_reference_rows(rows, reference)
    width, widths = envelope._width, []
    W = width(1, structures._swept(B, ("binary", "ternary")))
    assert max(abs(c) for row in rows for _, c in row) >= 1 << W - 2

    def ps_rows(B):     # the rows are read before the (escaping) inner pairs raise
        read.clear()
        with contextlib.suppress(envelope.EnvelopeError):
            sb.ps_space(B)
        [(_, found)] = read
        return found
    found, reference = ps_rows(B), slow_reference.pair_rows(B, 0)
    assert {up_to_sign(row) for row in found} < {up_to_sign(row) for row in reference}
    assert echelon(found) == echelon(reference)
    assert max(abs(c) for row in found for _, c in row) >= 1 << W - 2
    monkeypatch.setattr(envelope, "_width", lambda *args: widths.append(1) or width(*args) - 1)
    read.clear()
    sb.companion_space(B.renamed("fresh"), zero)
    [(_, short)] = read
    assert widths and {up_to_sign(row) for row in short} != {up_to_sign(row) for row in rows}
    widths.clear()
    try:
        short = {up_to_sign(row) for row in ps_rows(B.renamed("fresh"))}
    except IndexError:  # a borrow carried past the last unknown's digit
        short = None
    assert widths and short != {up_to_sign(row) for row in found}


@pytest.mark.parametrize("r", (0, 1))
@pytest.mark.parametrize("name", SOLVER_INPUTS + ("odd(osp12)/3",))
def test_ps_space_packs_its_unit_pairs_as_the_packer_does(name, r, monkeypatch):
    """ps_space's degree-r pair, packed straight from its columns, is the reference packer's
    of the unit pairs at those columns (`envelope._unflat`, operator terms times L) at the
    same W, `_width` of their largest row: L, or 1 on the odd part of osp(1|2), whose odd
    degree has only companion unknowns.  A degree without unknowns reads no rows.
    companion_space's pair for degree-r operators (PS's first, a third of its last, and
    the zero map) is the reference packer's of its unit companions at D, the lcm of the
    operator's denominators, and then -D L P at the same W, `_width` of their largest row."""
    B = odd_osp12() if name == "odd(osp12)/3" else solver_input(name)
    calls, pair_rows = [], envelope._pair_rows
    monkeypatch.setattr(envelope, "_pair_rows", lambda B, degree, *args: calls.append(
        (degree, args)) or pair_rows(B, degree, *args))
    H = solved(B)
    n, par, L = B.space.dim, B.space.parities, B._lifted[0]
    columns = [k for k in range(n * n + n) if envelope._degree_at(par, k) == r]
    packed = [args for degree, args in calls if degree == r]
    if not columns:
        assert packed == [] and r == 1 and 1 not in par
        return
    [(read_columns, x, W)] = packed
    units = [envelope._unflat(n, [(k, L if k < n * n else 1)]) for k in columns]
    x1 = slow_reference.norm(units)
    assert list(read_columns) == columns
    assert (min(columns) >= n * n) == (x1 < L) == (name == "odd(osp12)/3" and r == 1)
    assert W == rules._width(x1, structures._swept(B, ("binary", "ternary")))
    assert x == slow_reference.packed(units, W)
    operators = [sb.GradedMap.zero(B.space, r)] + (
        [p.operator for p in H.basis if p.degree == r][:1] + [
            Fraction(1, 3) * p.operator for p in H.basis[::-1] if p.degree == r][:1] if H else [])
    for P in operators:
        calls.clear()
        sb.companion_space(B, P)
        [(degree, (read_columns, x, W))] = calls
        D = math.lcm(*(c.denominator for col in P.columns for _, c in col))
        companions = [m for m in range(n) if par[m] == r]
        known = tuple(tuple((t, -L * int(D * c)) for t, c in col) for col in P.columns) + ((),)
        pairs = [envelope._unflat(n, [(n * n + m, D)]) for m in companions] + [known]
        assert degree == r and list(read_columns) == companions + [n]
        assert W == rules._width(slow_reference.norm(pairs),
                                 structures._swept(B, ("binary", "ternary")))
        assert x == slow_reference.packed(pairs, W), (B.name, str(P.columns))
    assert len(operators) == 3 or not H or not any(p.degree == r for p in H.basis)


@pytest.mark.parametrize("name", ["bol(M7+osp12)", "lts(osp12+osp12)", "dense bol(osp12)",
                                  "abelian_6_2", "L2_3_1_bol/2", "L2_2_2_bol/2 + lts(aff2)/5",
                                  "lts(osp12)/3", "bol(L2_2_2_malcev)*3/2"])
def test_both_paths_read_the_same_rows_in_the_same_order(name, monkeypatch):
    """ps_space's unit pairs of each degree, for each rule whose tables B has
    (the one `_RULES` is patched to), joined and listed: the same rows, in the
    same order, nonempty but on the zero algebra."""
    B = next(B for B in inner_input("sparse") + inner_input("dense") + [
        sb.catalog.load("abelian_6_2")] + lifted_inputs() if B.name == name)
    n, par, L = B.space.dim, B.space.parities, B._lifted[0]
    found, joined, join_ = [], [], rules._joined
    monkeypatch.setattr(rules, "_joined", lambda *args: joined.append(1) or join_(*args))
    for rule in rules._RULES:
        if any(getattr(B, what) is None for what in rule[1]):
            continue
        monkeypatch.setattr(rules, "_RULES", (rule,))
        for r in (0, 1):
            columns = [k for k in range(n * n + n) if envelope._degree_at(par, k) == r]
            pairs = [envelope._unflat(n, [(k, L if k < n * n else 1)]) for k in columns]
            W = rules._width(slow_reference.norm(pairs), structures._swept(B, rule[1]))
            rows = []
            for join in (True, False):
                monkeypatch.setattr(rules, "_joins", lambda tables: join)
                joined.clear()
                rows.append(list(rules._pair_rows(B, r, columns, slow_reference.packed(pairs, W),
                                                  W))
                            if pairs else [])
                assert bool(joined) == (join and bool(pairs))
            assert rows[0] == rows[1], (B.name, rule[0], r)
            found += rows[0]
    assert bool(found) == any(st is not None and st.cells() for st in (B.binary, B.ternary))
