from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superbol as sb


def test_rref_canonical_form():
    rows, pivots = sb.rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rows == ((1, 0, 1), (0, 1, 1))
    assert pivots == [0, 1]


def test_rref_with_fractions():
    rows, pivots = sb.rref([[2, 1], [0, Fraction(1, 2)]])
    assert rows == ((1, 0), (0, 1))
    assert pivots == [0, 1]


def test_nullspace_members_satisfy_equations():
    eqs = [[1, 2, 3], [0, 1, 1]]
    basis = sb.nullspace(eqs, 3)
    assert len(basis) == 1
    for vec in basis:
        for row in eqs:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_of_zero_rows_is_everything():
    basis = sb.nullspace([[0, 0]], 2)
    assert len(basis) == 2


def test_solve_affine_unique_point():
    aff = sb.solve_affine([[1, 0], [0, 1]], [2, 3])
    assert not aff.is_empty
    assert aff.point == (2, 3)
    assert aff.dim == 0
    assert aff.contains((2, 3))
    assert not aff.contains((2, 4))


def test_solve_affine_underdetermined():
    # x + y = 1 in two unknowns
    aff = sb.solve_affine([[1, 1]], [1])
    assert aff.dim == 1
    assert aff.contains((1, 0))
    assert aff.contains((0, 1))
    assert not aff.contains((1, 1))


def test_solve_affine_inconsistent_is_empty():
    aff = sb.solve_affine([[1, 1], [1, 1]], [1, 2])
    assert aff.is_empty
    assert aff.dim is None
    assert not aff.contains((0, 0))
    assert sb.AffineSubspace.empty().is_empty


def test_span_reduce_and_membership():
    sp = sb.SuperSpace.even_first(2, 1)
    e1, e2, e3 = sp.basis()
    V = sb.span_reduce(sp, [e1 + e2, e2, e1 + e2])
    assert V.dim == 2
    assert V.contains(e1 - 7 * e2)
    assert not V.contains(e3)
    assert V.coordinates_of(2 * e1 + 3 * e2) is not None
    assert V.coordinates_of(e3) is None


def test_span_coordinates_are_normalized():
    # coefficients are ints when integral and Fractions otherwise, also
    # for a vector built directly from integral Fractions
    space = sb.SuperSpace.even_first(3, 0)
    V = sb.span_reduce(space, [space.vector((1, Fraction(1, 2), 0)), space.vector((0, 1, 1))])
    v = sb.SuperVector(space, (Fraction(2), Fraction(3, 2), Fraction(1, 2)))
    coords = V.coordinates_of(v)
    assert coords == (2, Fraction(3, 2)) and [type(c) for c in coords] == [int, Fraction]
    assert V.coordinates_of(sb.SuperVector(space, (Fraction(2), 0, 0))) is None
    A = sb.solve_affine([[1, 1, 0]], [Fraction(1, 2)])
    assert A.contains((Fraction(1, 2), 0, 7)) and not A.contains((1, 0, 0))


def test_subspace_sum_and_containment():
    sp = sb.SuperSpace.even_first(2, 1)
    e1, e2, e3 = sp.basis()
    V = sb.span_reduce(sp, [e1])
    W = sb.span_reduce(sp, [e2])
    assert V.sum_with(W).dim == 2
    assert sb.whole_space(sp).contains_subspace(V)
    assert not V.contains_subspace(W)
    assert sb.span_reduce(sp, []).is_zero() and not V.is_zero()


def test_span_reduce_and_solve_affine_read_any_iterable_once():
    """A generator of vectors spans what the same list spans, and
    solve_affine takes iterators of rows and of right-hand sides as rref
    and nullspace take iterators of rows."""
    sp = sb.SuperSpace.even_first(2, 1)
    assert sb.span_reduce(sp, (v for v in sp.basis())).dim == 3
    assert sb.span_reduce(sp, iter(sp.basis())) == sb.whole_space(sp)
    rows, rhs = [[1, 1, 0], [0, 1, 1]], [1, Fraction(1, 2)]
    aff, expected = sb.solve_affine(iter(rows), (b for b in rhs)), sb.solve_affine(rows, rhs)
    assert (aff.point, aff.directions) == (expected.point, expected.directions)
    assert aff.contains((1, 0, Fraction(1, 2)))
    with pytest.raises(ValueError, match="no equations"):
        sb.solve_affine(iter([]), iter([]))
    with pytest.raises(ValueError, match="rhs has 1 entries, expected 2"):
        sb.solve_affine(iter(rows), iter([1]))


def test_graded_detection():
    sp = sb.SuperSpace.even_first(2, 1)
    e1, e2, e3 = sp.basis()
    assert sb.span_reduce(sp, [e1 + e2, e3]).is_graded()
    # a genuinely mixed line is not a graded subspace
    assert not sb.span_reduce(sp, [e1 + e3]).is_graded()


_mats = st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=4)


@given(rows=_mats)
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(rows):
    reduced, _ = sb.rref(rows)
    again, _ = sb.rref([list(r) for r in reduced])
    assert again == reduced


@given(rows=_mats, scale=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_rref_invariant_under_row_scaling(rows, scale):
    scaled = [[scale * x for x in row] for row in rows]
    assert sb.rref(scaled)[0] == sb.rref(rows)[0]


@given(rows=_mats)
@settings(max_examples=40, deadline=None)
def test_rank_nullity(rows):
    reduced, pivots = sb.rref(rows)
    assert len(pivots) + len(sb.nullspace(rows, 3)) == 3


@pytest.mark.parametrize("call, message", [
    (lambda: sb.nullspace([[1, 0], [0, 1, 5]], 2), "row 1 has 3 entries, expected 2"),
    (lambda: sb.nullspace([[1, 0, 0]], 2), "row 0 has 3 entries, expected 2"),
    (lambda: sb.rref([[1, 0], [0, 1, 5]]), "row 1 has 3 entries, expected 2"),
    (lambda: sb.rref([[1, 0, 0], [1, 0]]), "row 1 has 2 entries, expected 3"),
    (lambda: sb.solve_affine([[1, 0], [0, 1, 5]], [1, 2]), "row 1 has 3 entries, expected 2"),
    (lambda: sb.solve_affine([[1, 0], [0, 1]], [1]), "rhs has 1 entries, expected 2"),
    (lambda: sb.solve_affine([[1, 0]], [1, 2]), "rhs has 2 entries, expected 1"),
], ids=["nullspace-long-row", "nullspace-wide-first-row", "rref-long-row", "rref-short-row",
        "solve-long-row", "solve-short-rhs", "solve-long-rhs"])
def test_ragged_rows_and_right_hand_sides_raise(call, message):
    """A row of another length than the first row's (or than ncols), or a
    right-hand side without one entry per row, raises instead of being
    read short, padded or overwritten by the right-hand side."""
    with pytest.raises(ValueError, match=message):
        call()
