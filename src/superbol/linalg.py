"""Exact linear algebra over the rationals.

Everything here reduces to one sparse elimination, `_rref`, on integer
rows of (column, value) pairs; `rref`, `nullspace` and `solve_affine`
are its dense views.  Every reduction modulo a reduced echelon, in
`_rref` and in the membership tests, is one residue, `_reduced`.
Reduced row echelon form is the canonical representative of a span, so
two subspaces are equal iff their reduced bases are identical tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .graded import (GradingError, SuperVector, _dense, _quotient, _sparse, hidden, rat,
                     record)


def _cleared(row):
    """(d, {column: d * value}) over the (column, value) pairs of row with a
    nonzero value, d the lcm of their denominators, so every value is an int."""
    cells, den = {}, 1
    for c, x in row:
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
    return den, cells


def _primitive(cells):
    """The integer row divided by its content, the gcd of its values."""
    g = gcd(*cells.values())
    return {c: x // g for c, x in cells.items()} if g > 1 else cells


def _reduced(cells, echelon):
    """The primitive residue of the integer row cells modulo a reduced
    echelon {lead: integer row}, each row zero at every other lead:
    M cells - sum of cells[p] (M / row_p[p]) row_p over the leads p that
    cells meets, M the lcm of those rows' entries at their leads.  It is
    zero at every lead, and empty iff cells lies in the echelon's span."""
    met = [p for p in cells if p in echelon]
    if not met:
        return _primitive(cells)
    M = lcm(*(echelon[p][p] for p in met))
    out = {c: M * x for c, x in cells.items()} if M != 1 else dict(cells)
    for p in met:
        f = cells[p] * (M // echelon[p][p])
        for c, y in echelon[p].items():
            x = out.get(c, 0) - f * y
            if x:
                out[c] = x
            else:
                del out[c]
    return _primitive(out) if out else out


def _rref(rows, width=None):
    """(integer rows, pivot columns) of the reduced echelon form of sparse
    rows of (column, value) pairs: each integer row is the sorted pairs of a
    reduced row times its leading entry, primitive.  Gauss-Jordan on
    integers over a common denominator, as FLINT's fmpz_mat_rref: each row,
    cleared of denominators, is replaced in one pass by its residue modulo
    the echelon (_reduced); a nonzero residue's leftmost column becomes a
    pivot, and each pivot row meeting it is replaced by its residue modulo
    that one row, so the pivot rows stay zero at every other pivot column
    and need no back-substitution.

    With width given, every row's columns must lie among width columns:
    once the echelon holds width pivots, every column is one, each later
    row lies in the span and cannot change the result, and no more rows
    are read."""
    echelon = {}
    for row in rows:
        cells = _reduced(_cleared(row)[1], echelon)
        if cells:
            lead = min(cells)
            for p, pivot in echelon.items():
                if lead in pivot:
                    echelon[p] = _reduced(pivot, {lead: cells})
            echelon[lead] = cells
            if len(echelon) == width:
                break
    pivots = sorted(echelon)
    return [tuple(sorted(echelon[p].items())) for p in pivots], pivots


def _divided(row):
    """An integer row of _rref divided by its leading entry: the reduced row."""
    lead = row[0][1]
    return tuple((c, _quotient(x, lead)) for c, x in row)


def _checked(rows, ncols=None):
    """The rows as a list, each checked to hold ncols entries, by default the first row's."""
    rows = list(rows)
    ncols = len(rows[0]) if ncols is None and rows else ncols
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("row %d has %d entries, expected %d" % (i, len(row), ncols))
    return rows


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Rows come out
    sorted by pivot column with unit pivots and zeros above and below;
    every entry is an `int` when integral and a `Fraction` otherwise.
    """
    rows = _checked(rows)
    reduced, pivots = _rref(map(enumerate, rows))
    return tuple(_dense(_divided(row), len(rows[0])) for row in reduced), pivots


def _kernel(reduced, pivots, columns):
    """_rref of {x : rows . x = 0, x zero off columns}, given _rref of rows in
    those columns: per free column f, e_f - r[f] e_p per reduced row r, lead p."""
    free = {f: [(f, 1)] for f in columns}
    for row, p in zip(map(_divided, reduced), pivots):
        del free[p]
        for c, x in row[1:]:
            free[c].append((p, -x))
    return _rref(free.values())


def nullspace(rows, ncols):
    """Canonical basis of {x : rows . x = 0}, as a list of tuples."""
    basis = _kernel(*_rref(map(enumerate, _checked(rows, ncols)), ncols), range(ncols))[0]
    return [_dense(_divided(row), ncols) for row in basis]


def _null_space(space, rows):
    """The Subspace of space on which the sparse rows vanish."""
    return _subspace(space, *_kernel(*_rref(rows, space.dim), range(space.dim)))


@record
class AffineSubspace:
    """Solution set of a linear system: a point plus a direction span.

    `point` is None for the empty set.  Directions are stored as a
    canonical reduced basis of raw coordinate tuples (leading columns in
    `pivots`; as integer rows by lead, `_by_lead`, in `_common`).
    """

    point: tuple | None
    directions: tuple
    pivots: tuple = hidden
    _common: tuple = hidden

    @classmethod
    def empty(cls):
        return cls(None, (), (), ({}, {}))

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
        return _in_span(self._common, _sparse(diff))


def _by_lead(rows):
    """_rref's integer rows by lead, as dicts, and each lead's row index."""
    return {row[0][0]: dict(row) for row in rows}, {row[0][0]: r for r, row in enumerate(rows)}


def _in_span(common, vec):
    """Whether the sparse vec lies in the span _span_coordinates reads: its residue alone."""
    return not _reduced(_cleared(vec)[1], common[0])


def _span_coordinates(common, vec):
    """The nonzero coefficients (r, c) of the sparse vec over reduced rows,
    given as _by_lead of their integer rows, or None outside their span:
    row r's is vec at its lead, and vec is in the span iff its residue
    (_reduced) is empty."""
    echelon, index = common
    d, cells = _cleared(vec)
    if _reduced(cells, echelon):
        return None
    return tuple(sorted((index[c], _quotient(f, d)) for c, f in cells.items()
                        if c in index))


class _Span:
    """Base of the spans held as a canonical reduced `basis` whose integer rows,
    by lead (`_by_lead`), are `_common`: membership and coordinates of an item
    read as sparse entries by the class's `_entries`, which checks it first."""

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, item):
        return _in_span(self._common, self._entries(item))

    def coordinates_of(self, item):
        """Coefficients of item over this basis, or None if outside."""
        coords = _span_coordinates(self._common, self._entries(item))
        return None if coords is None else _dense(coords, self.dim)


def solve_affine(rows, rhs):
    """Exact solution set of rows . x = rhs, in as many unknowns as each row
    has entries; `rows` must not be empty, and rhs holds one entry per row."""
    rows, rhs = list(rows), list(rhs)
    if not rows:
        raise ValueError("no equations: unknown count is undetermined")
    if len(rhs) != len(rows):
        raise ValueError("rhs has %d entries, expected %d, one per row" % (len(rhs), len(rows)))
    ncols = len(rows[0])
    return _affine(*_rref((list(enumerate(r)) + [(ncols, b)] for r, b in zip(
        _checked(rows, ncols), rhs)), ncols + 1), ncols)


def _affine(reduced, pivots, ncols):
    """The solution set of ncols unknowns from _rref of rows . x = b, b at column ncols."""
    if ncols in pivots:
        return AffineSubspace.empty()
    point = _dense([(p, row[-1][1]) for row, p in zip(map(_divided, reduced), pivots)
                    if row[-1][0] == ncols], ncols)
    reduced = [row[:-1] if row[-1][0] == ncols else row for row in reduced]
    dirs, leads = _kernel(reduced, pivots, range(ncols))
    return AffineSubspace(point, tuple(_dense(_divided(d), ncols) for d in dirs), tuple(leads),
                          _by_lead(dirs))


@record
class Subspace(_Span):
    """Subspace of a SuperSpace with a canonical reduced basis (leading
    columns in `pivots`; as integer rows by lead, `_by_lead`, in `_common`)."""

    space: object
    basis: tuple
    pivots: tuple = hidden
    _common: tuple = hidden

    def _entries(self, v):
        if v.space != self.space:
            raise GradingError("vector lives in a different space")
        return _sparse(v.coords)

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
    vectors = list(vectors)
    for v in vectors:
        if v.space != space:
            raise GradingError("vector lives in a different space")
    return _subspace(space, *_rref((enumerate(v.coords) for v in vectors), space.dim))


def _subspace(space, reduced, pivots):
    """The Subspace of space spanned by _rref's integer rows leading at pivots."""
    return Subspace(space, tuple(SuperVector(space, _dense(_divided(row), space.dim))
                                 for row in reduced), tuple(pivots), _by_lead(reduced))


def whole_space(space):
    return span_reduce(space, space.basis())
