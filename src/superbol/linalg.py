"""Exact linear algebra over the rationals.

Everything here reduces to Gaussian elimination on lists of scalars
(ints and Fractions mixed).  Reduced row echelon form is the canonical
representative of a span, so two subspaces are equal iff their reduced
bases are identical tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graded import GradingError, SuperVector, _sparse, rat


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Rows come out
    sorted by pivot column with unit pivots and zeros above and below.
    """
    a = [[rat(x) for x in row] for row in rows]
    if not a:
        return (), []
    ncols = len(a[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = Fraction(1, 1) / a[row][col]
        a[row] = [rat(inv * x) for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [rat(x - f * y) for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return tuple(tuple(r) for r in a[:row]), pivots


def nullspace(rows, ncols):
    """Canonical basis of {x : rows . x = 0}, as a list of tuples."""
    return list(_nullspace(rows, ncols)[0])


def _nullspace(rows, ncols):  # the basis and its pivots
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, p in zip(red, pivots):
            vec[p] = rat(-r[f])
        basis.append(vec)
    return rref(basis)


@dataclass(frozen=True)
class AffineSubspace:
    """Solution set of a linear system: a point plus a direction span.

    `point` is None for the empty set.  Directions are stored as a
    canonical reduced basis of raw coordinate tuples (leading columns in
    `pivots`).
    """

    point: tuple | None
    directions: tuple
    pivots: tuple = field(compare=False, repr=False)

    @classmethod
    def empty(cls):
        return cls(None, (), ())

    @property
    def is_empty(self):
        return self.point is None

    @property
    def dim(self):
        return None if self.is_empty else len(self.directions)

    def contains(self, coords):
        if self.is_empty:
            return False
        coords = tuple(rat(c) for c in coords)
        if len(coords) != len(self.point):
            raise ValueError("coordinate length mismatch")
        diff = [a - b for a, b in zip(coords, self.point)]
        return _span_coordinates(self._sparse_rows, self.pivots, diff) is not None

    @cached_property
    def _sparse_rows(self):
        return tuple(map(_sparse, self.directions))


def _span_coordinates(sparse_rows, pivots, vec):
    """Coefficients expressing vec over reduced rows, or None when vec is
    outside their span; sparse_rows holds the nonzero (column, value)
    pairs of reduced nonzero rows, and pivots[r] is the leading column of
    row r."""
    residue = list(vec)
    coeffs = []
    for row, lead in zip(sparse_rows, pivots):
        f = residue[lead]
        coeffs.append(rat(f))
        if f:
            for t, y in row:
                residue[t] -= f * y
    if any(residue):
        return None
    return tuple(coeffs)


def solve_affine(rows, rhs):
    """Exact solution set of rows . x = rhs.

    `rows` may be empty only if rhs is empty; the number of unknowns is
    taken from the row length.
    """
    if not rows:
        raise ValueError("no equations: unknown count is undetermined")
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return AffineSubspace.empty()
    point = [0] * ncols
    for r, p in zip(red, pivots):
        point[p] = rat(r[ncols])
    dirs, leads = _nullspace([r[:ncols] for r in red], ncols)
    return AffineSubspace(tuple(point), dirs, tuple(leads))


@dataclass(frozen=True)
class Subspace:
    """Subspace of a SuperSpace with a canonical reduced basis (leading
    columns in `pivots`)."""

    space: object
    basis: tuple
    pivots: tuple = field(compare=False, repr=False)

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def rows(self):
        return tuple(v.coords for v in self.basis)

    @cached_property
    def _sparse_rows(self):
        return tuple(map(_sparse, self.rows))

    def contains(self, v):
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v):
        """Coefficients of v over this basis, or None if outside."""
        if v.space != self.space:
            raise GradingError("vector lives in a different space")
        return _span_coordinates(self._sparse_rows, self.pivots, v.coords)

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def sum_with(self, other):
        if other.space != self.space:
            raise GradingError("subspaces of different spaces")
        return span_reduce(self.space, self.basis + other.basis)

    def is_graded(self):
        # the reduced basis of a graded subspace is itself homogeneous,
        # because even and odd coordinate positions never mix under
        # row reduction of homogeneous generators
        return all(v.parity is not None for v in self.basis)

    def is_zero(self):
        return not self.basis


def span_reduce(space, vectors):
    """Canonical Subspace spanned by the given SuperVectors."""
    for v in vectors:
        if v.space != space:
            raise GradingError("vector lives in a different space")
    rows = [v.coords for v in vectors]
    reduced, pivots = rref(rows)
    return Subspace(space, tuple(SuperVector(space, row) for row in reduced), tuple(pivots))


def whole_space(space):
    return span_reduce(space, space.basis())
