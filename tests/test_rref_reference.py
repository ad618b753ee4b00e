"""rref and the solvers built on it against the Gauss-Jordan reference.

`slow_reference.rref` is the dense elimination the package used before
its fraction-free one.  RREF is unique, so both must return the same
reduced rows and the same pivots, and every cell must have the same
scalar type: `int` where the value is integral, `Fraction` otherwise.
`tests/test_linalg_oracle.py` compares with `==`, which cannot see a
type change, so every comparison here is over (type, value) pairs.

Inputs are random matrices (tall and wide, integral `Fraction`s among
the scalars, zero and duplicate rows), Hilbert-type matrices whose
elimination grows large coefficients, and the systems that ps_space,
ips_space and companion_space actually solve on the catalog Bol
algebras, bol(osp(1|2)) and a dense copy of it.  Those solvers
eliminate sparse rows through `linalg._rref`, of which `rref` is the
dense view, so both names are recorded and both are replaced by the
reference.  nullspace, solve_affine and GradedMap.inverse are run twice,
once on each elimination, and must return identical results.  The one
residue routine under `_rref` and the membership tests, `linalg._reduced`,
is held to the reference's reduction of a row modulo random and
Hilbert-type echelons.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from superbol import envelope, linalg
from test_reference import _osp12, even_map, transport

SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 6, Fraction(4, 2), Fraction(-3, 3),
                           Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(7, 12)])


def typed(value):
    """value with every scalar paired with its type, containers kept by type."""
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(typed(x) for x in value))
    return (type(value), value)


def assert_same_rref(rows):
    assert typed(sb.rref(rows)) == typed(slow_reference.rref(rows))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 16))
    nrows = draw(st.integers(0, 12))
    rows = [[draw(SCALARS) for _ in range(ncols)] for _ in range(nrows)]
    # duplicates and multiples of earlier rows, and all-zero rows
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            rows.append([draw(st.sampled_from([1, -2, Fraction(1, 3)])) * x
                         for x in draw(st.sampled_from(rows))])
        else:
            rows.append([0] * ncols)
    return draw(st.permutations(rows))


def test_degenerate_inputs():
    for rows in ([], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]], [[1, 2], [1, 2], [2, 4]],
                 [[Fraction(0), Fraction(2, 2)], [0, 1]], [[Fraction(3, 1), 6]], [[5]]):
        assert_same_rref(rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_random_matrices_match_the_reference(rows):
    assert_same_rref(rows)


@pytest.mark.parametrize("n, extra", [(3, 0), (6, 0), (8, 0), (5, 4), (7, 2)])
def test_hilbert_type_matrices_match_the_reference(n, extra):
    # 1/(i + j + 1) is invertible with huge entries in its inverse; the
    # extra columns make the system wide and shift the pivots
    hilbert = [[Fraction(1, i + j + 1) for j in range(n + extra)] for i in range(n)]
    assert_same_rref(hilbert)
    assert_same_rref(hilbert[::-1] + [[x * 3 for x in hilbert[0]]])
    assert_same_rref([list(col) for col in zip(*hilbert)])


# ---------------------------------------------------------------------------
# the stop at full rank: given the width of the rows, _rref reads no row
# once every one of the width columns is a pivot


@st.composite
def full_rank_early(draw):
    """(width, sparse rows in width columns) that reach rank width after a
    few rows, with nonzero rows after that lie in the span."""
    width = draw(st.integers(1, 8))
    row = st.lists(st.tuples(st.integers(0, width - 1), SCALARS), max_size=width)
    # triangular with a nonzero diagonal: independent, so full rank once all are read
    block = [[(c, draw(SCALARS.filter(bool)))] + [(d, draw(SCALARS)) for d in range(c + 1, width)]
             for c in range(width)]
    rows = draw(st.permutations(block + draw(st.lists(row, max_size=3))))
    return width, rows + draw(st.lists(row, max_size=6)) + [[(draw(st.integers(0, width - 1)), 1)]]


@settings(max_examples=200, deadline=None)
@given(full_rank_early())
def test_rref_stops_at_full_rank_with_the_same_result(drawn):
    width, rows = drawn
    assert typed(linalg._rref(rows, width)) == typed(linalg._rref(rows))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_given_its_width_matches_it_without(rows):
    width = len(rows[0]) if rows else 1
    assert typed(linalg._rref(map(enumerate, rows), width)) == \
        typed(linalg._rref(map(enumerate, rows)))


def test_rref_reads_no_row_past_full_rank():
    read = [[(0, 2), (2, 1)], [(1, 3)], [(0, 1), (2, Fraction(1, 2))], [(2, 5)], [(0, 7), (1, 1)]]

    def rows():
        yield from read[:4]
        raise AssertionError("a row past full rank was read")

    assert linalg._rref(rows(), 3) == linalg._rref(read) == ([((0, 1),), ((1, 1),), ((2, 1),)],
                                                           [0, 1, 2])


# ---------------------------------------------------------------------------
# the one residue routine: _reduced takes a row modulo a reduced echelon


@st.composite
def hilbert_type(draw):
    """Some rows of a Hilbert-type matrix 1/(i + j + 1 + shift), wide by extra columns."""
    n, extra, shift = draw(st.integers(2, 7)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [[Fraction(1, i + j + 1 + shift) for j in range(n + extra)] for i in range(n)]
    return draw(st.permutations(rows))[:draw(st.integers(1, n))]


@st.composite
def echelon_and_row(draw):
    """(rows, row): random or Hilbert-type rows, and a row as wide, either
    random or a combination of the rows."""
    rows = draw(st.one_of(matrices().filter(bool), hilbert_type()))
    if draw(st.booleans()):
        row = [draw(SCALARS) for _ in rows[0]]
    else:
        coeffs = [draw(SCALARS) for _ in rows]
        row = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
    return rows, row


def normalized(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@settings(max_examples=300, deadline=None)
@given(echelon_and_row())
def test_the_residue_matches_the_reference_reduction(drawn):
    rows, row = drawn
    reduced, pivots = linalg._rref(map(enumerate, rows))
    echelon = {p: dict(r) for r, p in zip(reduced, pivots)}
    residue = linalg._reduced(linalg._cleared(enumerate(row))[1], echelon)
    assert all(type(x) is int and x for x in residue.values()) and gcd(*residue.values()) <= 1
    assert not set(residue) & set(echelon)
    # the reference: row minus row[p] times the reduced row leading at p, over the pivots p
    ref_rows, ref_pivots = slow_reference.rref(rows)
    assert list(ref_pivots) == pivots
    left = [Fraction(x) for x in row]
    for ref, p in zip(ref_rows, ref_pivots):
        left = [x - left[p] * y for x, y in zip(left, ref)]
    left = [(c, x) for c, x in enumerate(left) if x]
    expected = tuple((c, normalized(x / left[0][1])) for c, x in left)
    assert bool(residue) == bool(expected)
    if residue:
        assert typed(linalg._divided(tuple(sorted(residue.items())))) == typed(expected)
    in_span = len(slow_reference.rref(rows + [row])[1]) == len(pivots)
    assert (not residue) == in_span


def _bols():
    osp_bol = sb.malcev_to_bol(_osp12())
    dense = transport(osp_bol, even_map(osp_bol.space, random.Random(5)))
    return [ent.algebra for ent in sb.catalog.entries() if ent.kind == "bol"] + [osp_bol, dense]


BOLS = _bols()


def dense(rows):
    """Sparse rows of (column, value) pairs as dense lists, as wide as the
    last column any of them reaches."""
    rows = [dict(row) for row in rows]
    width = 1 + max((c for row in rows for c in row), default=0)
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def sparse_reduced(reduced, pivots):
    """slow_reference.rref's result in linalg._rref's form: each reduced
    row times the lcm of its denominators, as (column, int) pairs."""
    rows = []
    for row in reduced:
        den = lcm(*(Fraction(x).denominator for x in row))
        rows.append(tuple((c, int(x * den)) for c, x in enumerate(row) if x))
    return rows, list(pivots)


def reference_sparse_rref(rows, width=None):
    # every row is read: the reference never stops at full rank
    return sparse_reduced(*slow_reference.rref(dense(rows)))


def solved_systems(B):
    """Every matrix rref or linalg._rref receives, dense, while ps_space,
    ips_space and the companion spaces of a few pair operators are
    computed for B, keyed by the function that solved it."""
    seen, solving = {}, None

    def recording(rows):
        rows = [list(row) for row in rows]
        seen.setdefault(solving, []).append(rows)
        return slow_reference.rref(rows)

    def recording_sparse(rows, width=None):
        rows = dense(rows)
        seen.setdefault(solving, []).append(rows)
        return sparse_reduced(*slow_reference.rref(rows))

    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, envelope):
            mp.setattr(module, "rref", recording, raising=False)
            mp.setattr(module, "_rref", recording_sparse)
        solving = "ps_space"
        ps = sb.ps_space(B)
        solving = "ips_space"
        sb.ips_space(B)
        solving = "companion_space"
        for pair in ps.basis[:4]:
            sb.companion_space(B, pair.operator)
    return seen


@pytest.mark.parametrize("B", BOLS, ids=lambda B: B.name)
def test_pair_space_systems_match_the_reference(B):
    systems = solved_systems(B)
    assert set(systems) == {"ps_space", "ips_space", "companion_space"}
    assert any(systems["ps_space"])
    for rows in itertools.chain(*systems.values()):
        assert_same_rref(rows)


def with_reference_rref(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", slow_reference.rref)
        for module in (linalg, envelope):
            mp.setattr(module, "_rref", reference_sparse_rref)
        return fn(*args)


def assert_same_solvers(rows, rhs):
    ncols = len(rows[0])
    for fn, args in ((sb.nullspace, (rows, ncols)), (sb.solve_affine, (rows, rhs))):
        fast, slow = fn(*args), with_reference_rref(fn, *args)
        if fn is sb.solve_affine:
            fast = (fast.point, fast.directions, fast.pivots)
            slow = (slow.point, slow.directions, slow.pivots)
        assert typed(fast) == typed(slow)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_nullspace_and_solve_affine_match_the_reference(rows, data):
    if not rows:
        rows = [[0]]
    rhs = [data.draw(SCALARS) for _ in rows]
    assert_same_solvers(rows, rhs)


def test_hilbert_type_solvers_match_the_reference():
    for n in (4, 7):
        rows = [[Fraction(1, i + j + 1) for j in range(n + 1)] for i in range(n)]
        assert_same_solvers(rows, [Fraction(1, i + 2) for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(BOLS) - 1), st.integers(0, 2 ** 32))
def test_inverse_matches_the_reference(index, seed):
    space = BOLS[index].space
    g = even_map(space, random.Random(seed))
    g = g.compose(sb.GradedMap.from_rows(space, 0, [
        [Fraction(1, 2) if i == j and i % 2 else int(i == j) for j in range(space.dim)]
        for i in range(space.dim)]))
    fast, slow = g.inverse(), with_reference_rref(g.inverse)
    assert typed(fast.matrix) == typed(slow.matrix)
    assert fast == slow
