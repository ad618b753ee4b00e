"""linalg against sympy on random Fraction matrices.

sympy is an optional test oracle: these tests are skipped where it is
not importable, and the package never imports it.  rref must give
sympy's reduced rows and pivots, nullspace the span of sympy's
nullspace in the same canonical form, and Subspace.coordinates_of the
coefficients that rebuild a vector from the reduced basis, or None
exactly when sympy finds the vector outside the span.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superbol as sb

sympy = pytest.importorskip("sympy")

SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])


@st.composite
def matrices(draw, min_rows=1):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(min_rows, 6))
    return [[draw(SCALARS) for _ in range(ncols)] for _ in range(nrows)], ncols


def fractions(matrix):
    return [tuple(Fraction(int(x.p), int(x.q)) for x in matrix.row(r)) for r in range(matrix.rows)]


def sympy_rref(rows):
    reduced, pivots = sympy.Matrix(rows).applyfunc(sympy.Rational).rref()
    return tuple(fractions(reduced)[:len(pivots)]), list(pivots)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_sympy(drawn):
    rows, _ = drawn
    assert sb.rref(rows) == sympy_rref(rows)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(drawn):
    rows, ncols = drawn
    kernel = sympy.Matrix(rows).applyfunc(sympy.Rational).nullspace()
    expected = sympy_rref([list(v) for v in kernel])[0] if kernel else ()
    assert tuple(sb.nullspace(rows, ncols)) == expected


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=0), st.data())
def test_coordinates_of_matches_sympy(drawn, data):
    rows, ncols = drawn
    space = sb.SuperSpace.even_first(ncols, 0)
    V = sb.span_reduce(space, [space.vector(r) for r in rows])
    basis = [v.coords for v in V.basis]
    # a vector in the span, from drawn coefficients
    coeffs = [data.draw(SCALARS) for _ in basis]
    inside = [sum((c * b[t] for c, b in zip(coeffs, basis)), Fraction(0)) for t in range(ncols)]
    assert V.coordinates_of(space.vector(inside)) == tuple(coeffs)
    # an arbitrary vector: outside exactly when it raises sympy's rank
    w = [data.draw(SCALARS) for _ in range(ncols)]
    coords = V.coordinates_of(space.vector(w))
    rank = sympy.Matrix(basis + [w]).rank() if basis else int(any(w))
    assert (coords is None) == (rank > len(basis))
    if coords is not None:
        assert [sum((c * b[t] for c, b in zip(coords, basis)), Fraction(0))
                for t in range(ncols)] == w
