"""The pairs of one degree are evaluated at once, as one packed pair.

`rules._defects` evaluates the pairs of each degree r as one pair whose
coordinates hold theirs W bits apart, on the path `_joins` chooses for the
tables; each coordinate of a packed defect is then read back as the pairs'
signed W-bit digits (`_digits`).  Every term of both rules is linear in the
pair, so this is exact while each defect coordinate is under 2^(W-1) in
size, which `_width` sizes from the pairs and the tables read.  Here any
listed pairs are packed by the reference packer (`slow_reference.packed`,
W from `slow_reference.norm`) and handed to `rules._defects`.

Packed and one-pair-at-a-time evaluation must give the same (key + tuple,
defect) lists, scalar types included, on both paths: on dense, lifted
(L > 1), failing, odd-vector and both-degree tables, with coefficients past
2^64, and on a table built so that its defects come within a factor of 2 of
the bound.  The decode must read back every digit up to +-(2^(W-1) - 1), and
`_cell_rows` must pack such digits as the reference packer does.

The Bol and Lie-supertriple checks read their inner pairs' pack straight off
the cells (`_cell_rows`): each pack they hand the evaluator must be the
reference packer's of their inner pairs at its W, digit by digit, holding the
nonzero inner pairs of its degree, those the ternary cells reach first.  One
Bol check packs the ternary cells once for both rules where the rules agree
on W, and its witnesses stay the reference's on a table whose inner-pair
defects come within a factor of 2 of 2^(W-1), with both signs.  A failing
Nambu sweep evaluates its first pack again, at every u <= v, and packs nothing more.
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
import slow_reference
from test_rule_paths import (KINDS, RULES, dense, inner_input, inner_pairs, nambu_broken,
                             reference, rule_defects, typed)


@pytest.fixture
def packs(monkeypatch):
    """The number of pairs of each packed evaluation, in order."""
    sizes, packed = [], slow_reference.packed
    monkeypatch.setattr(slow_reference, "packed",
                        lambda xs, W: sizes.append(len(xs)) or packed(xs, W))
    return sizes


def evaluated(B, tables, pairs, order):
    return [(at, typed(acc)) for at, acc in rule_defects(B.space, tables, pairs, order)]


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
    W = rules._width(slow_reference.norm([x for _, _, x in pairs]), tables)
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
    pairs with such entries through the reference packer, and through `_cell_rows` as the
    ternary cells of the inner pairs (0, b), (1, b - 5) of an even dim-5 space, which packs
    them as the reference packer does at the same W, in the cells' order."""
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
    for slot, row in enumerate(slow_reference.packed(xs, W)):
        assert unpacked(list(_dense(row, 5)), len(xs), W) == \
            [list(_dense(x[slot], 5)) for x in xs]
    space = sb.SuperSpace((0,) * 5, tuple("e%d" % i for i in range(5)))
    cells = {divmod(b, 5) + (m,): x[m] for b, x in enumerate(xs) for m in range(5) if x[m]}
    keys, rows = rules._cell_rows(space, False, W, cells, 6)
    assert keys == ({divmod(b, 5): W * b for b in range(len(xs))}, {})
    assert rows[0] == slow_reference.packed([x[:5] + ((),) for x in xs], W)


# ---------------------------------------------------------------------------
# the checker's packs, read off the cells


@pytest.fixture
def cell_packs(monkeypatch):
    """Per degree with pairs of each pack a sweep hands the evaluator off the cells, in order:
    (tables, r, W, keys, x), keys {key: its digit's shift}; a failing Nambu sweep's re-run of
    its failing pairs, at other tuples than `_order`'s, is not recorded."""
    seen, defects = [], rules._defects

    def recording(space, tables, W, pack, order):
        if order == rules._order(tables):
            seen.extend((tables, r, W, keys, x) for r, (keys, x) in enumerate(zip(*pack)) if keys)
        return defects(space, tables, W, pack, order)

    monkeypatch.setattr(rules, "_defects", recording)
    return seen


def kind_of(B):
    return "bol" if B.binary is not None else "lts"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_checkers_pack_is_the_inner_pairs_packed_digit_by_digit(kind, cell_packs,
                                                                     monkeypatch):
    """On every inner input (lifted, dense, odd-vector and failing tables among them), on
    both paths forced: each pack the Bol or Lie-supertriple check reads off the cells is
    the reference packer's of the inner pairs listed in its digit order, at its W, every pair
    of its degree, pair b at shift W b; its pairs are the nonzero inner pairs of that degree
    (i <= j where the tables read are super skew), those the ternary cells reach in (i, j)
    order, then those only a binary cell reaches; and its W is at least `_width` of those
    pairs' own norm."""
    for join in (True, False):
        monkeypatch.setattr(rules, "_joins", lambda tables: join)
        for B in inner_input(kind):
            cell_packs.clear()
            sb.check_axioms(B.renamed("fresh " + B.name), kind_of(B))
            assert {len(tables) for tables, *_ in cell_packs} == (
                {1, 2} if B.binary is not None else {1}), B.name
            for tables, r, W, shifts, x in cell_packs:
                keys = list(shifts)
                assert list(shifts.values()) == [W * b for b in range(len(keys))]
                inner = {key: (degree, y) for key, degree, y in inner_pairs(B, tables)}
                xs = [inner[key][1] for key in keys]
                assert {inner[key][0] for key in keys} == {r}
                assert x == slow_reference.packed(xs, W), (B.name, len(tables), r)
                assert W >= rules._width(slow_reference.norm(xs), tables)
                nonzero = [key for key, (degree, y) in inner.items() if degree == r and any(y)]
                reached = [key for key in nonzero if any(inner[key][1][:-1])]
                assert keys == reached + [key for key in nonzero if key not in reached]


def fresh(B):
    """A copy of B on new tables, whose caches are empty."""
    return inputs.permute(B, list(range(B.space.dim)), [1] * B.space.dim)


def test_one_bol_check_packs_the_ternary_cells_once(cell_packs, monkeypatch):
    """On a fresh copy of bol(M7 + osp(1|2)), whose two rules agree on W, the Bol check
    reads the ternary cells once and the binary cells once, for the product rule's
    companion row, and both rules get the same ternary rows; a Lie-supertriple check of
    the same algebra after it reads no cell again.  Where the binary skew sweep fails,
    the rules differ in their pairs, Nambu i <= j and the product rule every (i, j), and
    each reads the ternary cells for its own."""
    reads, cell_rows = [], rules._cell_rows    # per pass over cells: their arity, mirror, W

    def recording(space, mirror, W, cells, *rest):
        if cells:   # a table's cells, not the empty companion of Nambu's pack
            reads.append((len(next(iter(cells))), mirror, W))
        return cell_rows(space, mirror, W, cells, *rest)

    monkeypatch.setattr(rules, "_cell_rows", recording)
    B = fresh(inner_input("sparse")[0])
    assert sb.check_axioms(B, "bol").passed
    assert [len(tables) for tables, *_ in cell_packs] == [1, 1, 2, 2]    # per rule, 2 degrees
    (W,) = {W for _, _, W, _, _ in cell_packs}
    assert reads == [(3, True, W), (2, True, W)]
    for (_, r, _, _, x), (_, s, _, _, y) in zip(cell_packs[:2], cell_packs[2:]):
        assert r == s and all(a is b for a, b in zip(x[:-1], y[:-1]))
        assert x[-1] == () != y[-1]
    assert sb.check_axioms(B, "lts").passed and len(reads) == 2
    reads.clear()
    cell_packs.clear()
    skew = fresh(inner_input("skew broken")[0])
    sb.check_axioms(skew, "bol")
    assert [(arity, mirror) for arity, mirror, _ in reads] == [(3, True), (3, False), (2, False)]
    keys = [sorted(key for tables, _, _, keys, _ in cell_packs if len(tables) == rule
                   for key in keys) for rule in (1, 2)]
    ternary, binary = ({at[:2] for at in st.cells()} for st in (skew.ternary, skew.binary))
    assert keys[0] == sorted((i, j) for i, j in ternary if i <= j)
    assert keys[1] == sorted(ternary | binary) and any(i > j for i, j in keys[1])


def near_width(n, M, m):
    """An even algebra with every cell of both tables filled, each binary coordinate near M
    (cell (0, 1) negated) and each ternary one near m < M: the product rule's defects on
    its inner pairs, led by the binary product's a.(e_i e_j) term, come within a factor of
    2 of 2^(W-1), W the product rule's, with both signs."""
    space = sb.SuperSpace((0,) * n, tuple("e%d" % i for i in range(n)))
    rng = random.Random(n)

    def table(arity, M):
        return {at: tuple((t, (-1 if at == (0, 1) else 1) * (M - rng.randrange(8)))
                          for t in range(n)) for at in itertools.product(range(n), repeat=arity)}
    from_cells = reference().from_cells
    return AlgebraDef("near width", space, from_cells(BinaryStructure, space, table(2, M)),
                      from_cells(TernaryStructure, space, table(3, m)))


def test_inner_pair_defects_near_the_width_read_back_through_check_axioms(cell_packs):
    """The Bol check of `near_width` gives the reference's witnesses, scalar types
    included, though its largest product-rule defects of each sign are past 2^(W-2), W
    the width the product rule's pack was read at: a W one bit short, one sized from the
    ternary table or the largest entry alone, or a decode that reads digits unsigned,
    gives other witnesses."""
    A = near_width(4, 1 << 70, 1 << 60)
    fast, slow = sb.check_axioms(A, "bol"), slow_reference.check_axioms(A, "bol")
    assert fast == slow
    assert [[type(c) for c in w.defect.coords] for w in fast.witnesses] == \
        [[type(c) for c in w.defect.coords] for w in slow.witnesses]
    (W,) = {W for tables, _, W, _, _ in cell_packs if len(tables) == 2}
    coords = [c for w in fast.witnesses if w.axiom == "product-rule" for c in w.defect.coords]
    assert A._lifted[0] == 1 and max(map(abs, coords)) < 1 << W - 1
    assert min(coords) < -(1 << W - 2) and max(coords) > 1 << W - 2


def test_a_failing_nambu_sweep_evaluates_its_first_pack_again(monkeypatch):
    """On fresh copies of the nambu-broken inputs, osp(1|2) and M7 + osp(1|2) so built,
    whose tables pass triple skew and ternary Jacobi but fail Nambu, the Lie-supertriple
    check evaluates Nambu twice: at `_order`'s tuples, then at every u <= v.  The second
    call gets the first pass's pack object again, at its W, and no `_cell_rows` pass packs
    with h = n + 1: the ternary cells are read once.  A pair with no defect at the kept
    tuples has none at the derived ones, so the second call's defects name the pairs the
    first call's do (21 of the 31 nonzero i <= j on M7 + osp(1|2)) and keep every defect
    of the first call, and the witnesses are the reference's."""
    passes, calls, cell_rows, defects = [], [], rules._cell_rows, rules._defects

    def rows_recording(space, mirror, W, cells, h, *rest):
        passes.append(h)
        return cell_rows(space, mirror, W, cells, h, *rest)

    def defects_recording(space, tables, W, pack, order):
        calls.append((W, pack, order, defects(space, tables, W, pack, order)))
        return calls[-1][-1]

    monkeypatch.setattr(rules, "_cell_rows", rows_recording)
    monkeypatch.setattr(rules, "_defects", defects_recording)
    m7osp = inputs.direct_sum(inputs.m7(), inputs.osp12(), "M7+osp12")
    counts = []
    for B in (fresh(inner_input("nambu broken")[0]), nambu_broken(m7osp)):
        n, (ternary,) = B.space.dim, structures._swept(B, ("ternary",))
        passes.clear()
        calls.clear()
        report = sb.check_axioms(B, "lts")
        assert report == slow_reference.check_axioms(B, "lts"), B.name
        (W, pack, first, found), (W2, again, order, refound) = calls
        assert (first, order) == ((1, 0), (0, -math.inf)) and W2 == W and again is pack
        assert passes == [n, 1]     # the ternary cells, then the empty companion row
        failing = {at[:2] for at, _ in found}
        assert {at[:2] for at, _ in refound} == failing
        assert {(at, tuple(acc)) for at, acc in found} <= {(at, tuple(acc)) for at, acc in refound}
        counts.append((len(failing), len({at[:2] for at in ternary.cells() if at[0] <= at[1]}),
                       len(report.witnesses)))
    assert counts == [(11, 11, 830), (21, 31, 2912)]
