"""Z2-graded vector spaces over the rationals.

Conventions used throughout the package:

* parity is 0 (even) or 1 (odd); parities add mod 2,
* a basis is an ordered tuple of labelled homogeneous vectors; the basis
  order is arbitrary (enveloping constructions interleave parities),
* a linear map of degree r sends parity i to parity i + r, so its matrix
  entry (i, j) vanishes unless parity(i) = parity(j) + r,
* supertrace is the parity-signed diagonal sum, which is independent of
  the homogeneous basis order.

All arithmetic is exact.  Scalars are `fractions.Fraction`; integral
values are normalized to plain `int` (equal and interchangeable, cheaper
in the check loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

EVEN = 0
ODD = 1


class GradingError(ValueError):
    """A vector, map or table violates the Z2 grading."""


def rat(x):
    """Normalize a scalar: exact rational, `int` when integral."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def sign(exponent):
    # (-1)**exponent for a mod-2 exponent
    return -1 if exponent % 2 else 1


def _sparse(coords):
    """The nonzero (index, coefficient) pairs of a coordinate sequence."""
    return tuple((t, c) for t, c in enumerate(coords) if c)


def _into(acc, vec, rows, s=1):
    """acc += s * sum of c * rows[m] over the pairs (m, c) of vec.

    vec and every rows[m] are sparse (index, coefficient) tuples and acc
    is a dense coordinate list, which is returned.  The package contracts
    vectors through this one routine, rows being a sparse view:
    `entries[i]` is [e_i, .] and `col[k]` [., e_k] for a binary product,
    `columns[m]` is f(e_m) for a map f, `rows[m]` and `columns[m]` are
    b(e_m, .) and b(., e_m) for a bilinear form b.
    """
    for m, c in vec:
        row = rows[m]
        if row:
            c = c if s == 1 else s * c
            for t, d in row:
                acc[t] += c * d
    return acc


def _vector(space, acc):
    return SuperVector(space, tuple(rat(c) for c in acc))


@dataclass(frozen=True)
class SuperSpace:
    """Finite dimensional Z2-graded space with a labelled homogeneous basis."""

    parities: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.parities) != len(self.labels):
            raise GradingError("parities and labels must have equal length")
        if any(p not in (0, 1) for p in self.parities):
            raise GradingError("parities must be 0 or 1")
        if len(set(self.labels)) != len(self.labels):
            raise GradingError("basis labels must be distinct")

    @classmethod
    def even_first(cls, even, odd):
        """Build a space from even part then odd part.

        `even` and `odd` are label sequences, or ints for default labels
        e1, e2, ... numbered across both parts.
        """
        if isinstance(even, int) and isinstance(odd, int):
            even = tuple("e%d" % (i + 1) for i in range(even))
            odd = tuple("e%d" % (len(even) + i + 1) for i in range(odd))
        even = tuple(even)
        odd = tuple(odd)
        return cls((0,) * len(even) + (1,) * len(odd), even + odd)

    @property
    def dim(self):
        return len(self.parities)

    @property
    def even_dim(self):
        return self.parities.count(0)

    @property
    def odd_dim(self):
        return self.parities.count(1)

    def parity(self, i):
        return self.parities[i]

    def is_even_first(self):
        return list(self.parities) == sorted(self.parities)

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("unknown basis label %r" % (label,)) from None

    def basis_vector(self, i):
        coords = [0] * self.dim
        coords[i] = 1
        return SuperVector(self, tuple(coords))

    def basis(self):
        return tuple(self.basis_vector(i) for i in range(self.dim))

    def zero(self):
        return SuperVector(self, (0,) * self.dim)

    def vector(self, coords):
        if isinstance(coords, dict):  # label -> coefficient
            out = [0] * self.dim
            for lab, c in coords.items():
                out[self.index_of(lab)] = c
            coords = out
        coords = tuple(rat(c) for c in coords)
        if len(coords) != self.dim:
            raise GradingError("expected %d coordinates, got %d" % (self.dim, len(coords)))
        return SuperVector(self, coords)


@dataclass(frozen=True)
class SuperVector:
    space: SuperSpace
    coords: tuple

    def is_zero(self):
        return not any(self.coords)

    @property
    def parity(self):
        """Parity of a homogeneous vector; None for zero or mixed support."""
        seen = {self.space.parities[i] for i, c in enumerate(self.coords) if c}
        return seen.pop() if len(seen) == 1 else None

    def parity_or(self, default):
        """Parity, with `default` for the zero vector.  Mixed support raises."""
        if self.is_zero():
            return default
        p = self.parity
        if p is None:
            raise GradingError("vector is not homogeneous: %s" % (self,))
        return p

    def __add__(self, other):
        self._check_mate(other)
        return SuperVector(self.space, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_mate(other)
        return SuperVector(self.space, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return SuperVector(self.space, tuple(-a for a in self.coords))

    def scale(self, c):
        c = rat(c)
        return SuperVector(self.space, tuple(c * a for a in self.coords))

    __rmul__ = scale

    def _check_mate(self, other):
        if not isinstance(other, SuperVector) or other.space != self.space:
            raise GradingError("vectors live in different spaces")

    def __str__(self):
        terms = []
        for c, lab in zip(self.coords, self.space.labels):
            if not c:
                continue
            if c == 1:
                t = lab
            elif c == -1:
                t = "-" + lab
            else:
                t = "%s*%s" % (c, lab)
            terms.append(t)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class GradedMap:
    """Homogeneous linear map; matrix[i][j] is the e_i coefficient of f(e_j),
    and the sparse view columns[m], built once, is f(e_m)."""

    space: SuperSpace
    degree: int
    matrix: tuple

    def __post_init__(self):
        n = self.space.dim
        if self.degree not in (0, 1):
            raise GradingError("degree must be 0 or 1")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise GradingError("matrix must be %d x %d" % (n, n))
        par = self.space.parities
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] and par[i] != (par[j] + self.degree) % 2:
                    raise GradingError(
                        "entry (%d, %d) breaks the degree-%d block structure"
                        % (i, j, self.degree))

    @classmethod
    def from_rows(cls, space, degree, rows):
        return cls(space, degree, tuple(tuple(rat(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, space, degree, cols):
        n = space.dim
        return cls.from_rows(space, degree, [[cols[j][i] for j in range(n)] for i in range(n)])

    @classmethod
    def from_action(cls, space, degree, fn):
        """Map defined by its values fn(e_j) on basis vectors."""
        cols = [fn(space.basis_vector(j)).coords for j in range(space.dim)]
        return cls.from_columns(space, degree, cols)

    @classmethod
    def zero(cls, space, degree=0):
        n = space.dim
        return cls(space, degree, ((0,) * n,) * n)

    @classmethod
    def identity(cls, space):
        return cls.from_rows(space, 0, _identity_rows(space.dim))

    @cached_property
    def columns(self):
        return tuple(_sparse(c) for c in zip(*self.matrix))

    def __call__(self, v):
        if v.space != self.space:
            raise GradingError("vector lives in a different space")
        return _vector(self.space, _into([0] * self.space.dim, _sparse(v.coords), self.columns))

    def compose(self, other):
        """self after other."""
        if other.space != self.space:
            raise GradingError("maps live on different spaces")
        n = self.space.dim
        return GradedMap.from_columns(self.space, (self.degree + other.degree) % 2,
                                      [_into([0] * n, c, self.columns) for c in other.columns])

    def __add__(self, other):
        if other.space != self.space or other.degree != self.degree:
            raise GradingError("maps must share space and degree to add")
        return GradedMap(self.space, self.degree, tuple(
            tuple(rat(a + b) for a, b in zip(ra, rb)) for ra, rb in zip(self.matrix, other.matrix)))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = rat(c)
        return GradedMap(self.space, self.degree, tuple(
            tuple(rat(c * a) for a in row) for row in self.matrix))

    def __neg__(self):
        return (-1) * self

    def is_zero(self):
        return not any(any(row) for row in self.matrix)

    @property
    def supertrace(self):
        # parity-signed diagonal sum; zero by block structure for odd degree
        return rat(sum(sign(p) * self.matrix[i][i]
                       for i, p in enumerate(self.space.parities)))

    def inverse(self):
        from .linalg import rref  # linalg imports this module
        n = self.space.dim
        # [M | I] reduces to [I | M^-1] exactly when M is invertible
        reduced, pivots = rref([list(row) + ident
                                for row, ident in zip(self.matrix, _identity_rows(n))])
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("map is singular")
        return GradedMap.from_rows(self.space, self.degree, [row[n:] for row in reduced])


def supertrace(f):
    """str(f) = tr(even block) - tr(odd block), basis-order independent."""
    return f.supertrace


def graded_commutator(f, g):
    """[f, g] = f g - (-1)^{deg f deg g} g f, one column f(g e_j) -+ g(f e_j) at a time."""
    if g.space != f.space:
        raise GradingError("maps live on different spaces")
    n = f.space.dim
    fc, gc = f.columns, g.columns
    s = -sign(f.degree * g.degree)
    return GradedMap.from_columns(f.space, (f.degree + g.degree) % 2,
                                  [_into(_into([0] * n, gc[j], fc), fc[j], gc, s)
                                   for j in range(n)])

