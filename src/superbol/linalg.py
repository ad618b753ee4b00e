"""Exact linear algebra over the rationals.

Everything here reduces to one elimination, `rref`, which works on
sparse integer rows: each input row is cleared of denominators and
eliminated fraction-free, and only the final reduced rows are divided
back into `int`s and `Fraction`s.  Reduced row echelon form is the
canonical representative of a span, so two subspaces are equal iff their
reduced bases are identical tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .graded import GradingError, SuperVector, _quotient, _sparse, rat


def _integral(row):
    """The sparse integer row {column: value} spanning the same line as the
    dense row: scaled by the lcm of its denominators, divided by its content."""
    cells = {}
    den = 1
    for c, x in enumerate(row):
        if x:
            if type(x) is not int:
                x = x if type(x) is Fraction else rat(x)
                if x.denominator != 1:
                    den = lcm(den, x.denominator)
                else:
                    x = x.numerator
            cells[c] = x
    if den > 1:
        cells = {c: x * den if type(x) is int else x.numerator * (den // x.denominator)
                 for c, x in cells.items()}
    return _primitive(cells)


def _primitive(cells):
    """The integer row divided by its content, the gcd of its values."""
    g = gcd(*cells.values())
    return {c: x // g for c, x in cells.items()} if g > 1 else cells


def _eliminate(row, pivot, col):
    """(b/g) row - (a/g) pivot, divided by its content, where a and b are the
    entries of row and pivot at col and g = gcd(a, b): col drops out."""
    a, b = row[col], pivot[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: b * x for c, x in row.items()} if b != 1 else dict(row)
    for c, y in pivot.items():
        x = out.get(c, 0) - a * y
        if x:
            out[c] = x
        else:
            del out[c]
    return _primitive(out)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Rows come out
    sorted by pivot column with unit pivots and zeros above and below;
    every entry is an `int` when integral and a `Fraction` otherwise.

    Each row enters an echelon of primitive integer rows keyed by leading
    column and is reduced fraction-free against the pivot rows it meets
    (Bareiss 1968, with content division in place of his exact divisor).
    Back-substitution runs bottom-up over the integers, and each reduced
    row is divided by its leading entry only at the end.
    """
    echelon = {}
    ncols = 0
    for row in rows:
        ncols = ncols or len(row)
        cells = _integral(row)
        while cells:
            lead = min(cells)
            pivot = echelon.get(lead)
            if pivot is None:
                echelon[lead] = cells
                break
            cells = _eliminate(cells, pivot, lead)
    pivots = sorted(echelon)
    for p in reversed(pivots):
        cells = echelon[p]
        for c in [c for c in cells if c != p and c in echelon]:
            cells = _eliminate(cells, echelon[c], c)
        echelon[p] = cells
    reduced = []
    for p in pivots:
        cells, lead = echelon[p], echelon[p][p]
        out = [0] * ncols
        for c, x in cells.items():
            out[c] = _quotient(x, lead)
        reduced.append(tuple(out))
    return tuple(reduced), pivots


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
            vec[p] = -r[f]
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
        return _span_coordinates(self._sparse_rows, self.pivots, _sparse(diff)) is not None

    @cached_property
    def _sparse_rows(self):
        return tuple(map(_sparse, self.directions))


def _span_coordinates(sparse_rows, pivots, vec):
    """Coefficients expressing vec over reduced rows, or None when vec is
    outside their span; vec and each of sparse_rows hold the nonzero
    (column, value) pairs of a vector and of a reduced nonzero row, and
    pivots[r] is the leading column of row r."""
    residue = dict(vec)
    coeffs = []
    for row, lead in zip(sparse_rows, pivots):
        f = residue.get(lead)
        if not f:
            coeffs.append(0)
            continue
        coeffs.append(rat(f))
        for t, y in row:
            residue[t] = residue.get(t, 0) - f * y
    if any(residue.values()):
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
        point[p] = r[ncols]
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
        return _span_coordinates(self._sparse_rows, self.pivots, _sparse(v.coords))

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
