"""The listed pairs of one degree are evaluated at once, as one packed pair.

`rules._rule_defects` gathers the pairs per degree r and evaluates
them as one pair whose coordinates hold theirs W bits apart (`_packed`), on
the path `_joins` chooses for the tables; each coordinate of a packed defect
is then read back as the pairs' signed W-bit digits (`_digits`).  Every
term of both rules is linear in the pair, so this is exact while each defect
coordinate is under 2^(W-1) in size, which `_width` sizes from the pairs and
the tables read.

Packed and one-pair-at-a-time evaluation must give the same (key + tuple,
defect) lists, scalar types included, on both paths: on dense, lifted
(L > 1), failing, odd-vector and both-degree tables, with coefficients past
2^64, and on a table built so that its defects come within a factor of 2 of
the bound.  The decode must read back every digit up to +-(2^(W-1) - 1).
"""

import itertools
import math
import random

import pytest

from bench_inputs import inputs
import superbol as sb
from superbol import rules, structures
from superbol.graded import _dense
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure
from test_rule_paths import KINDS, RULES, dense, inner_input, inner_pairs, reference, typed


@pytest.fixture
def packs(monkeypatch):
    """The number of pairs of each packed evaluation, in order."""
    sizes, packed = [], rules._packed
    monkeypatch.setattr(rules, "_packed", lambda xs, W: sizes.append(len(xs)) or packed(xs, W))
    return sizes


def evaluated(B, tables, pairs, order):
    return [(at, typed(acc)) for at, acc in rules._rule_defects(B.space, tables, pairs, order)]


def one_at_a_time(B, tables, pairs, order):
    return [d for p in pairs for d in evaluated(B, tables, [p], order)]


def assert_packed_as_one_at_a_time(B, pairs_of, packs):
    """For each rule B has the tables of: the pairs pairs_of(tables) packed give
    what they give one at a time, with at least one pack of two or more pairs;
    the defects found, all rules together."""
    found, packs[:] = [], []
    for axiom, reads in RULES:
        if any(getattr(B, what) is None for what in reads):
            continue
        tables = structures._swept(B, reads)
        pairs, order = pairs_of(tables), rules._order(tables)
        together = evaluated(B, tables, pairs, order)
        assert together == one_at_a_time(B, tables, pairs, order), (B.name, axiom)
        assert all(t is int for _, acc in together for t, _ in acc)
        found += together
    assert packs and max(packs) > 1, B.name
    return found


def big_pair(B, rng, r, scale=1 << 70):
    """A random degree-r pair, respecting the grading, with ints past 2^64."""
    n, par = B.space.dim, B.space.parities
    rows = [[rng.randint(-scale, scale) if par[t] == (par[m] + r) % 2 else 0
             for m in range(n)] for t in range(n)]
    companion = [rng.randint(-scale, scale) if par[m] == r else 0 for m in range(n)]
    return sb.PseudoDerivationPair(sb.GradedMap.from_rows(B.space, r, rows),
                                   B.space.vector(companion))


def positive(n, M):
    """An even algebra whose every product has every coordinate near M > 0,
    failing skew, Jacobi and both rules: with pairs of one sign throughout, the
    product rule's terms add up to within a factor of 2 of `_width`'s bound."""
    space = sb.SuperSpace((0,) * n, tuple("e%d" % i for i in range(n)))
    rng = random.Random(n)

    def table(arity):
        return {at: tuple((t, M - rng.randrange(8)) for t in range(n))
                for at in itertools.product(range(n), repeat=arity)}
    from_cells = reference().from_cells
    return AlgebraDef("positive", space, from_cells(BinaryStructure, space, table(2)),
                      from_cells(TernaryStructure, space, table(3)))


def uniform_pair(B, c):
    """The degree-0 pair with every operator and companion entry c."""
    n = B.space.dim
    return ((), 0, tuple(tuple((m, c) for m in range(n)) for _ in range(n + 1)))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_inner_pairs_packed_give_what_they_give_one_at_a_time(kind, packs, monkeypatch):
    """The inner pairs as the Bol check evaluates them, on each path forced:
    every pair listed, so the sparse ladder, whose tables join, is listed too,
    and every pair joined, so the dense copies are joined too."""
    for join in (True, False):
        monkeypatch.setattr(rules, "_joins", lambda tables: join)
        for B in inner_input(kind):
            assert_packed_as_one_at_a_time(B, lambda tables: inner_pairs(B, tables), packs)


def test_dense_bol_m7_packs_every_inner_pair(packs):
    """On its own path choice: the nonzero inner pairs i < j of dim 7, all even,
    packed once per rule, and then one by one, a pack of one each, for the
    comparison."""
    B = dense(sb.malcev_to_bol(inputs.m7()))
    assert_packed_as_one_at_a_time(B, lambda tables: inner_pairs(B, tables), packs)
    assert packs == ([21] + [1] * 21) * 2


@pytest.mark.parametrize("name", ["dense bol(osp12)", "L2_3_1_bol/2", "bol(L2_2_2_malcev)*3/2"])
def test_pairs_of_both_degrees_past_2_64_pack_exactly(name, packs, monkeypatch):
    """Random pairs of both degrees with ints past 2^64, on dense odd vectors
    and on lifted tables (Fraction constants, L > 1), every pair listed; each
    input is built here, so that a fault in building it fails this test alone."""
    B = dense(sb.malcev_to_bol(inputs.osp12())) if name.startswith("dense") else next(
        A for A in reference().lifted_inputs() if A.name == name)
    assert B.name == name
    monkeypatch.setattr(rules, "_joins", lambda tables: False)
    rng = random.Random(B.name)
    pairs = [big_pair(B, rng, r) for r in (0, 1, 1, 0, 1, 0, 0)]
    found = assert_packed_as_one_at_a_time(
        B, lambda tables: [((b,), p.degree, p._x()) for b, p in enumerate(pairs)], packs)
    assert max(abs(c) for _, acc in found for _, c in acc) > 1 << 64
    assert sorted(packs[:2]) == [3, 4]    # the first rule's pairs of each degree


def test_defects_near_the_bound_read_back_with_both_signs(packs):
    """Defects within a factor of 2 of 2^(W-1), positive and negative, on a
    table with every entry past 2^64: a width sized from the entries alone, or
    a decode that reads digits unsigned, gives other defects."""
    B = positive(3, 1 << 70)
    tables = structures._swept(B, ("binary", "ternary"))
    pairs = [uniform_pair(B, c) for c in (1 << 66, -(1 << 66), 3, -(1 << 60))]
    found = assert_packed_as_one_at_a_time(B, lambda tables: pairs, packs)
    W = rules._width([x for _, _, x in pairs], tables)
    biggest = max(abs(c) for _, acc in found for _, c in acc)
    assert biggest < 1 << W - 1 <= 4 * biggest
    assert {c > 0 for _, acc in found for _, c in acc} == {True, False}


def test_joined_and_listed_pairs_keep_pair_order(monkeypatch):
    """With the pairs' degrees by turns, joined and listed, the defects come out
    in pair order, each pair's as one call on it alone gives them, and the same
    on both paths."""
    B = dense(sb.malcev_to_bol(inputs.osp12()))
    rng = random.Random(5)
    pairs = [((b,), p.degree, p._x()) for b, p in
             enumerate(big_pair(B, rng, b % 2, 9) for b in range(8))]
    for _, reads in RULES:
        tables, found = structures._swept(B, reads), []
        for join in (True, False):
            monkeypatch.setattr(rules, "_joins", lambda tables: join)
            together = evaluated(B, tables, pairs, (0, -math.inf))
            assert together and together == one_at_a_time(B, tables, pairs, (0, -math.inf))
            assert [at[0] for at, _ in together] == sorted(at[0] for at, _ in together)
            found.append(together)
        assert found[0] == found[1]


def unpacked(acc, g, W):
    """The g dense rows whose digits the ints acc pack: digit b of acc[t], read by
    `_digits`, at row b, column t."""
    out = [[0] * len(acc) for _ in range(g)]
    for t, v in enumerate(acc):
        for b, c in structures._digits(v, W):
            out[b][t] = c
    return out


@pytest.mark.parametrize("W", [2, 7, 8, 63, 64, 65, 131])
def test_signed_digits_read_back_up_to_the_edge(W):
    """Every digit in +-(2^(W-1) - 1), 0 and +-1 among them, next to every
    other, through `_digits`, from a positive int and from its negative, and
    pairs with such entries through `_packed`."""
    top = (1 << W - 1) - 1
    edge = [top, -top, 0, 1, -1]
    digits = [[edge[(b + t) % 5] for t in range(5)] for b in range(5)]
    digits += [[-top] * 5, [top] * 5, [0] * 5]
    acc = [sum(row[t] << W * b for b, row in enumerate(digits)) for t in range(5)]
    assert unpacked(acc + [0], len(digits), W) == [row + [0] for row in digits]
    assert unpacked([-v for v in acc], len(digits), W) == [[-c for c in row] for row in digits]
    for t, v in enumerate(acc):     # the nonzero digits only, b rising
        assert list(structures._digits(v, W)) == [(b, row[t]) for b, row in enumerate(digits)
                                                  if row[t]]
    xs = [tuple(tuple((m, c) for m, c in enumerate(digits[(b + s) % len(digits)]) if c)
                for s in range(6)) for b in range(len(digits))]    # n = 5: six rows
    for slot, row in enumerate(rules._packed(xs, W)):
        assert unpacked(list(_dense(row, 5)), len(xs), W) == \
            [list(_dense(x[slot], 5)) for x in xs]
