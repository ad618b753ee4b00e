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

from fractions import Fraction
from functools import cached_property

EVEN = 0
ODD = 1

# the most basis vectors of an abelian_m_n key or an .alg file: the work of
# every check grows as the fourth power of the dimension or faster
ABELIAN_MAX_DIM = 64


class GradingError(ValueError):
    """A vector, map or table violates the Z2 grading."""


def rat(x):
    """Normalize a scalar: exact rational, `int` when integral."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _text(c):  # str(c) of an exact scalar, past Python's limit on the digits str converts
    if c.denominator != 1:
        return "%s/%s" % (_text(c.numerator), _text(c.denominator))
    q, r = divmod(abs(c), 10 ** 300)    # the limit is >= 640 digits
    return "-" * (c < 0) + (_text(q) + str(r).zfill(300) if q else str(r))


def _quotient(x, d):
    """The exact quotient of the ints x and d, normalized like `rat`."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def sign(exponent):
    # (-1)**exponent for a mod-2 exponent
    return -1 if exponent % 2 else 1


def _sparse(coords):
    """The nonzero (index, coefficient) pairs of a coordinate sequence."""
    return tuple((t, c) for t, c in enumerate(coords) if c) if any(coords) else ()


def _exact(coords):
    """_sparse with `rat` coefficients: how structures, maps and forms hold constants."""
    return tuple((t, rat(c)) for t, c in enumerate(coords) if c)


def _dense(entry, n):
    """The length-n coordinate tuple of a sparse (index, coefficient) tuple."""
    out = [0] * n
    for t, c in entry:
        out[t] = c
    return tuple(out)


def _transposed(rows, n):
    """Sparse rows read by column: column j holds (i, c) for each (j, c) of rows[i]."""
    cols = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, c in row:
            cols[j].append((i, c))
    return tuple(map(tuple, cols))


def _unit(n):
    """The identity view: _into(acc, vec, _unit(n), s) adds s * vec to acc."""
    return tuple(((m, 1),) for m in range(n))


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


# `x: tuple = hidden` leaves the record field x out of ==, the hash and the
# repr; such a field has no default
hidden = object()


def _frozen(self, name, *value):
    raise AttributeError("cannot %s field %r" % ("assign to" if value else "delete", name))


class _Compiled:
    """A record method held as source and compiled for its class at first
    use, so that importing the package compiles none of them."""

    def __init__(self, cls, name, source):
        self.cls, self.name, self.source = cls, name, source

    def __get__(self, obj, owner=None):
        scope = {}
        exec(self.source, {"_set": object.__setattr__, "_cls": self.cls}, scope)
        method = scope[self.name]
        method.__qualname__ = "%s.%s" % (self.cls.__qualname__, self.name)
        setattr(self.cls, self.name, method)
        return method.__get__(obj, owner)


def record(cls):
    """Make cls a frozen record over its annotated fields, in order, with what
    dataclass(frozen=True) gives it: __init__ (class attributes are defaults,
    then __post_init__ if any), __eq__, __hash__ and the repr
    Cls(field=value, ...) over the fields not marked `hidden`, AttributeError
    on assignment and deletion; a method cls defines itself is kept.  Each method is compiled
    for cls at its first use.  __ne__, which the package's space checks use,
    is written out too and answers at once for an object and itself."""
    names = tuple(vars(cls).get("__annotations__", ()))
    shown = [f for f in names if vars(cls).get(f) is not hidden]
    for f in set(names) - set(shown):
        delattr(cls, f)
    mine, theirs = ("".join("%s.%s, " % (who, f) for f in shown) for who in ("self", "other"))
    same = "(%s) == (%s)" % (mine, theirs)
    params = ", ".join(f + "=_cls." + f if f in vars(cls) else f for f in names)  # defaults
    code = {
        "__init__": "def __init__(self, %s):\n%s %s" % (
            params, "".join(" _set(self, %r, %s)\n" % (f, f) for f in names),
            "self.__post_init__()" if hasattr(cls, "__post_init__") else "pass"),
        "__eq__": "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
                  "  return %s\n return NotImplemented" % same,
        "__ne__": "def __ne__(self, other):\n if self is other:\n  return False\n"
                  " if other.__class__ is self.__class__:\n  return not %s\n"
                  " return NotImplemented" % same,
        "__hash__": "def __hash__(self):\n return hash((%s))" % mine,
        "__repr__": "def __repr__(self):\n return '%%s(%s)' %% (self.__class__.__qualname__, %s)"
                    % (", ".join(f + "=%r" for f in shown), mine),
    }
    for name, source in code.items():
        if name not in vars(cls):
            setattr(cls, name, _Compiled(cls, name, source))
    cls.__match_args__, cls.__setattr__, cls.__delattr__ = names, _frozen, _frozen
    return cls


class _SparseValue:
    """Base of the frozen records whose value is a sparse form: the public
    constructor converts a dense form, `_of` takes the sparse form, and both
    end in the class's one validator `_init`, which stores the fields (a structure
    also its nonzero cells; only its `_scaled` copy, of cells already checked, stores its own)."""

    @classmethod
    def _of(cls, *fields):
        obj = object.__new__(cls)
        obj._init(*fields)
        return obj


def _vector(space, acc):
    return SuperVector(space, tuple(rat(c) for c in acc))


@record
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


@record
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
                t = "%s*%s" % (_text(c), lab)
            terms.append(t)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


@record
class GradedMap(_SparseValue):
    """Homogeneous linear map, held as its sparse columns: columns[m] is
    the tuple of nonzero (i, c) of f(e_m).  The dense view matrix[i][j],
    the e_i coefficient of f(e_j), is derived on demand."""

    space: SuperSpace
    degree: int
    columns: tuple

    def __init__(self, space, degree, matrix):
        n = space.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise GradingError("matrix must be %d x %d" % (n, n))
        self._init(space, degree, tuple(_exact(col) for col in zip(*matrix)))

    def _init(self, space, degree, columns):
        # the degree, and the block structure of the nonzero entries
        if degree not in (0, 1):
            raise GradingError("degree must be 0 or 1")
        par = space.parities
        bad = [(i, j) for j, col in enumerate(columns) for i, _ in col
               if par[i] != (par[j] + degree) % 2]
        if bad:
            raise GradingError("entry (%d, %d) breaks the degree-%d block structure"
                               % (min(bad) + (degree,)))
        vars(self).update(space=space, degree=degree, columns=columns)

    @classmethod
    def from_rows(cls, space, degree, rows):
        return cls(space, degree, tuple(map(tuple, rows)))

    @classmethod
    def from_columns(cls, space, degree, cols):
        n = space.dim
        if len(cols) != n or any(len(col) != n for col in cols):
            raise GradingError("matrix must be %d x %d" % (n, n))
        return cls._of(space, degree, tuple(_exact(col) for col in cols))

    @classmethod
    def zero(cls, space, degree=0):
        return cls._of(space, degree, ((),) * space.dim)

    @classmethod
    def identity(cls, space):
        return cls._of(space, 0, _unit(space.dim))

    @cached_property
    def matrix(self):
        n = self.space.dim
        return tuple(zip(*(_dense(col, n) for col in self.columns)))

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
        n, unit = self.space.dim, _unit(self.space.dim)
        return GradedMap.from_columns(self.space, self.degree, [
            _into(_into([0] * n, a, unit), b, unit) for a, b in zip(self.columns, other.columns)])

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = rat(c)
        return GradedMap._of(self.space, self.degree, tuple(
            tuple((t, rat(c * a)) for t, a in col) if c else () for col in self.columns))

    def __neg__(self):
        return (-1) * self

    def is_zero(self):
        return not any(self.columns)

    @property
    def supertrace(self):
        # parity-signed diagonal sum; zero by block structure for odd degree
        par = self.space.parities
        return rat(sum(sign(par[j]) * c for j, col in enumerate(self.columns)
                       for i, c in col if i == j))

    def inverse(self):
        from .linalg import rref  # linalg imports this module
        n = self.space.dim
        # [M | I] reduces to [I | M^-1] exactly when M is invertible
        reduced, pivots = rref([list(row) + [1 if i == j else 0 for j in range(n)]
                                for i, row in enumerate(self.matrix)])
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

