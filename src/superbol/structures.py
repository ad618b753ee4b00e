"""Structure-constant algebra definitions and axiom checking.

An algebra is given by the products of basis vectors.  Checking an
identity that quantifies over homogeneous elements then reduces, by
multilinearity, to evaluating it on all tuples of basis vectors; the
checkers below do exactly that, in lexicographic tuple order, and report
every failing tuple together with its defect.

Defect conventions:

* skew axioms report x*y + (-1)^{xy} y*x,
* cyclic-sum axioms (super Jacobi, ternary Jacobi) report the sum,
* equational axioms (Malcev, Nambu, product rule, morphism) report
  RHS - LHS.

The pseudo-derivation rules, Nambu and the product rule, are evaluated in `rules`, and the
Malcev sweep is the walk in `malcev`; a sweep loads its module when it first runs.
Each sweep evaluates the least tuple of each symmetry orbit and reports the rest as signed
copies of its defect D.  The skew sweeps always, only i <= j: D(j,i,...) = (-1)^{p_i p_j}
D(i,j,...).  The cyclic sums (super and ternary Jacobi) always: D(j,k,i) = (-1)^{p_i(p_j+p_k)}
D(i,j,k).  Once the skew sweeps of the tables read find nothing (each runs once per structure
object): super Jacobi D(j,i,k) = -(-1)^{p_i p_j} D(i,j,k), so i <= j <= k; Malcev D(j,k,l,i) =
(-1)^{p_i(p_j+p_k+p_l)} D(i,j,k,l), not i <-> k, so its loops keep i <= j, k, l and, where i
repeats, the least rotation; the pseudo-derivation rules by that skew sign in (i, j), as the
inner pairs are, and in (u, v): i <= j and u <= v, here and in the pair-space solvers.  A table
listed by its kept half, i <= j (from_products, the .alg parser, enveloping algebras and pair
brackets), is completed by one routine, `_mirrored`.

The sweeps run on integer tables.  With L the lcm of every denominator in the binary table B and
the ternary table T, check_axioms sweeps L*B and L^2*T, the algebra in the basis L e_i.  Every
identity is homogeneous when a binary constant has weight 1 and a ternary one weight 2, so each
defect comes out L^weight times the true one and is divided back exactly, once per orbit
representative: its orbit's witnesses share that quotient and its negation (`_witnesses`).  The
weights, kept in `_SWEEPS` next to the sweeps: skew 1; jacobi, triple-skew and triple-jacobi 2;
malcev and product-rule 3; nambu 4.  Scaling B and T by the same factor would not do: the
product rule mixes B.B.B and T.B terms.  check_pseudo and the pair solvers read the same
tables, where an operator's matrix is unchanged and a companion's coordinates are L times
smaller: they take operator terms times L.  The lift is made once per algebra object; when
L = 1 the tables are swept as they stand.  Only these integer tables reach the packed layer.

Each table also packs its cells once, by Kronecker substitution, as {cell: sum of c 2^(W t)}
(`_packs`, by `_packed_cells`) with 2^(W-1) > 4 S1 M, S1 the largest cell L1 norm and M the
largest |entry| (`_magnitudes`): above the skew (2M), ternary Jacobi (3M) and super Jacobi
(3 S1 M) defects and the sums of malcev_to_bol (weights 2, -1, -1: 4 S1 M) and
lie_to_supertriple (1, 0, 0: S1 M), which add these ints (a super Jacobi term: one multiply-add
per (m, c) of e_i e_j); the Malcev walk packs at its own W.  One decoder, `_packed_orbits`,
reads back every sweep's nonzero defects.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, partial

from .graded import (GradingError, SuperVector, _dense, _exact, _into, _quotient,
                     _sparse, _SparseValue, _transposed, _vector, record, sign)
from .linalg import Subspace, _null_space

KINDS = ("lie", "malcev", "supertriple", "lie_supertriple", "bol")

# CLI spelling for the Lie supertriple kind
KIND_ALIASES = {"lts": "lie_supertriple"}


class StructureError(ValueError):
    """Malformed or contradictory structure constants."""


class AxiomError(ValueError):
    """An operation required an axiom system that the input fails."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _bracket(space, at):
    return "[%s]" % ",".join(space.labels[i] for i in at)


def _cell(space, coords, at):
    # one table cell, length checked: its sparse form with exact coefficients
    if len(coords) != space.dim:
        raise StructureError("product %s: expected %d coordinates"
                             % (_bracket(space, at), space.dim))
    return _exact(coords)


def _nested(cells, n, depth):
    """The sparse form from its cells {index tuple: entry}, unlisted cells
    zero: tuples nested `depth` deep, each unlisted block one shared object."""
    if not depth:
        return cells.get((), ())
    groups = {}
    for at, entry in cells.items():
        groups.setdefault(at[0], {})[at[1:]] = entry
    zero = _nested({}, n, depth - 1)
    return tuple(_nested(groups[i], n, depth - 1) if i in groups else zero for i in range(n))


def _densified(block, n, depth):
    if not depth:
        return _dense(block, n)
    return tuple(_densified(sub, n, depth - 1) for sub in block)


@record
class _Structure(_SparseValue):
    """Structure constants of one arity, held as their sparse form.

    entries[i][j]... (ARITY indices) is the tuple of nonzero (t, c) of
    the product of e_i, e_j, ...; cells() holds the same entries by index
    tuple, kept from construction; the dense view `table` holds the
    coordinate tuple of that product instead and is derived on demand.
    """

    space: object
    entries: tuple

    def __init__(self, space, table):
        n, arity = space.dim, self.ARITY
        cells = [table]
        for _ in range(arity):
            if any(len(block) != n for block in cells):
                raise StructureError("%s table must be %s"
                                     % (self.NAME, " x ".join([str(n)] * arity)))
            cells = [sub for block in cells for sub in block]
        self._init(space, {at: _cell(space, coords, at) for at, coords in
                           zip(itertools.product(range(n), repeat=arity), cells)})

    def _init(self, space, cells):
        # every nonzero cell's output has the parity of its inputs
        par = space.parities
        bad = [(at, t) for at, entry in cells.items() for t, _ in entry
               if par[t] != sum(par[i] for i in at) % 2]
        if bad:
            at, t = min(bad)
            raise GradingError("product %s: output has a component on %s of wrong parity"
                               % (_bracket(space, at), space.labels[t]))
        cells = {at: cells[at] for at in sorted(cells) if cells[at]}
        vars(self).update(space=space, entries=_nested(cells, space.dim, self.ARITY), _cells=cells)

    @cached_property
    def table(self):
        return _densified(self.entries, self.space.dim, self.ARITY)

    def cells(self):
        """{index tuple: entry} of the nonzero products, in lexicographic order: the
        same constants as `entries`, kept from construction.  Callers only read it."""
        return self._cells

    @cached_property
    def _magnitudes(self):  # largest |entry|, cell L1 norm: `_width`, `_packs`, `_hom_defects`
        m = s1 = 0
        for entry in self.cells().values():
            s = 0
            for _, c in entry:
                c = c if c > 0 else -c
                s, m = s + c, c if c > m else m
            s1 = s if s > s1 else s1
        return m, s1

    @cached_property
    def _packs(self):  # (W, {cell: entry packed}) the skew and Jacobi sweeps add and test
        W = (4 * math.prod(self._magnitudes)).bit_length() + 1
        return W, _packed_cells(self.cells(), W)

    def _scaled(self, values):  # each constant, in cells() order, the next of values: none checked
        leaves = []
        def scaled(block, depth):  # a loop per leaf cell: a comprehension is a call of its own
            if depth:
                return tuple([scaled(sub, depth - 1) for sub in block])
            out = []
            for t, _ in block:
                out.append((t, next(values)))
            out = tuple(out)
            if out:
                leaves.append(out)
            return out
        out = object.__new__(type(self))
        vars(out).update(space=self.space, entries=scaled(self.entries, self.ARITY),
                         _cells=dict(zip(self._cells, leaves)))
        return out

    @cached_property
    def _indexes(self):  # this table's part of the join's index (`_by_slot`) per (order, arity)
        return {}

    @cached_property
    def _skew_witnesses(self):  # the skew sweep, run once per structure object
        return tuple(_skew(self.space, self))

    @classmethod
    def from_products(cls, space, products):
        """Build from `products`, index tuples to coordinate sequences, completed by
        super skew-symmetry in the first two slots (`_mirrored`).  A key that is not
        ARITY basis indices and an explicit contradiction (a nonzero even square too)
        raise.  Ternary Jacobi consequences are NOT filled in; the checker sweeps them."""
        n, par, arity = space.dim, space.parities, cls.ARITY
        cells = {}
        for at, coords in products.items():
            if not (isinstance(at, tuple) and len(at) == arity
                    and all(isinstance(i, int) and 0 <= i < n for i in at)):
                raise StructureError("%s product key %r is not %d basis indices"
                                     % (cls.NAME, at, arity))
            cells[at] = _cell(space, coords, at)
        for at in sorted(cells):
            mirror, s = _swapped(0, par, at)
            if mirror in cells and cells[mirror] != tuple((t, s * c) for t, c in cells[at]):
                if mirror == at:
                    raise StructureError("%s must vanish by skew-symmetry" % _bracket(space, at))
                raise StructureError("%s contradicts %s under skew-symmetry"
                                     % (_bracket(space, mirror), _bracket(space, at)))
        return cls._of(space, _mirrored(par, cells))

    def eval(self, *args):
        if len(args) != self.ARITY:
            raise TypeError("%s product takes %d arguments" % (self.NAME, self.ARITY))
        if any(v.space != self.space for v in args):
            raise GradingError("vector lives in a different space")
        acc = [0] * self.space.dim
        *head, last = (_sparse(v.coords) for v in args)
        for picks in itertools.product(*head):
            rows, c = self.entries, 1
            for i, a in picks:
                rows, c = rows[i], c * a
            _into(acc, last, rows, c)
        return _vector(self.space, acc)


class BinaryStructure(_Structure):
    """entries[i][j] is the sparse e_i * e_j, and col[k][m] = entries[m][k]
    the row view of right multiplication."""

    ARITY, NAME = 2, "binary"

    @cached_property
    def col(self):
        return tuple(zip(*self.entries))


class TernaryStructure(_Structure):
    """entries[i][j][k] is the sparse [e_i, e_j, e_k], with the row views
    first[j][k][m] = entries[m][j][k] and mid[i][k][m] = entries[i][m][k]
    for a vector in the first and the middle slot."""

    ARITY, NAME = 3, "ternary"

    @cached_property
    def _jacobi_witnesses(self):  # the ternary Jacobi sweep, run once per structure object
        return tuple(_sweep_ternary_jacobi(self.space, self))

    @cached_property
    def first(self):
        return tuple(tuple(zip(*plane)) for plane in zip(*self.entries))

    @cached_property
    def mid(self):
        return tuple(tuple(zip(*plane)) for plane in self.entries)


@record
class AlgebraDef:
    """A named algebra: a superspace plus binary and/or ternary constants."""

    name: str
    space: object
    binary: BinaryStructure | None = None
    ternary: TernaryStructure | None = None

    def __post_init__(self):
        if self.binary is None and self.ternary is None:
            raise StructureError("an algebra needs at least one structure")
        for s in (self.binary, self.ternary):
            if s is not None and s.space != self.space:
                raise StructureError("structure lives on a different space")

    @cached_property
    def _reports(self):
        # check_axioms' report per kind, stored on this object only
        return {}

    @cached_property
    def _lifted(self):
        # the integer tables check_axioms sweeps, built once for every kind
        return _lift(self)

    def renamed(self, name):
        return type(self)(name, self.space, self.binary, self.ternary)

    def product(self, x, y):
        return _structures(self, ("binary",))[0].eval(x, y)

    def triple(self, x, y, z):
        return _structures(self, ("ternary",))[0].eval(x, y, z)


@record
class Witness:
    axiom: str
    at: tuple
    defect: object

    def __str__(self):
        return "%s at (%s): defect %s" % (self.axiom, ", ".join(self.at), self.defect)


@record
class CheckReport:
    subject: str
    kind: str
    passed: bool
    witnesses: tuple

    @property
    def first_failure(self):
        return self.witnesses[0] if self.witnesses else None

    def __str__(self):
        head = "%s: %s [%s]" % (self.subject, "PASS" if self.passed else "FAIL", self.kind)
        return "\n".join([head] + ["  " + str(w) for w in self.witnesses])


# ---------------------------------------------------------------------------
# axiom sweeps; each yields Witness objects in lexicographic tuple order and
# visits only the tuples (or orbits) where some term of its identity can be nonzero


def _rotated(par, at):
    # the cyclic identities: the first index moved last, times (-1)^{p_first (p_rest)}
    return at[1:] + at[:1], -1 if par[at[0]] and sum(map(par.__getitem__, at[1:])) % 2 else 1


def _swapped(u, par, at):
    # super skew in slots u, u + 1: times -(-1)^{p_i p_j}
    i, j = at[u:u + 2]
    return at[:u] + (j, i) + at[u + 2:], 1 if par[i] & par[j] else -1


def _mirrored(par, cells):
    """The cells {index tuple: entry} completed by super skew-symmetry in the first two
    slots: each unlisted (j, i, ...) is the listed (i, j, ...) times _swapped's sign."""
    out = dict(cells)
    for at, entry in cells.items():
        mirror, s = _swapped(0, par, at)
        if mirror not in out:
            out[mirror] = entry if s == 1 else tuple((t, -c) for t, c in entry)
    return out


def _skew(space, st):
    # x y + (-1)^{xy} y x wherever either product is nonzero, at the tuples whose first two
    # indices are in order: at (j, i, ...) it is (-1)^{p_i p_j} times that
    par, (W, packs) = space.parities, st._packs
    kept = {at if at[0] <= at[1] else (at[1], at[0]) + at[2:] for at in packs}
    sums = ((at, packs.get(at, 0) - s * packs.get(mirror, 0))
            for at in kept for mirror, s in [_swapped(0, par, at)])
    return _packed_orbits("skew" if st.ARITY == 2 else "triple-skew", space, W, sums, (
        lambda at: ((at[1], at[0]) + at[2:], sign(par[at[0]] * par[at[1]])),))


def _packed_orbits(axiom, space, W, sums, moves):
    # every sweep's decoder: `_orbit_witnesses` of the sums (at, v), v's W-bit digits
    return _orbit_witnesses(axiom, space, ((at, _dense(_digits(v, W), space.dim) if v else ())
                                           for at, v in sums), moves)


def _orbit_witnesses(axiom, space, defects, moves):
    """(acc, images) per nonzero defect (at, acc) at an orbit representative, in turn: at's
    images (image, s), itself first, closed under the moves at -> (image, s), s acc's sign."""
    orbits = []
    for at, acc in defects:
        if any(acc):
            images, seen = [(at, 1)], {at}
            for b, s in images:     # the list grows while it is read: a breadth-first closure
                for move in moves:
                    image, t = move(b)
                    if image not in seen:
                        seen.add(image)
                        images.append((image, s * t))
            orbits.append((acc, images))
    return orbits


def _witnesses(axiom, space, orbits, scale=1):
    """The Witnesses of the orbits in tuple order, each representative's defect divided by scale
    once (not at all when it is 1), that vector and, if used, its negation shared by its orbit."""
    lab, found = space.labels, []
    for acc, images in orbits:
        vec = SuperVector(space, tuple(acc if scale == 1 else [_quotient(c, scale) for c in acc]))
        neg = -vec if any(s < 0 for _, s in images) else None
        found += [(at, vec if s > 0 else neg) for at, s in images]
    found.sort(key=lambda w: w[0])
    return [Witness(axiom, tuple(map(lab.__getitem__, at)), v) for at, v in found]


def _jacobi_sums(space, bs, w1, w2, w3, heads):
    """((i, j, k), v) for (i, j, ks) of heads and k in the range ks, rising, where e_i e_j, e_j e_k
    (k in right[j]) or e_k e_i (k in left[i]) is nonzero, v packed as bs's int cells (`_packs`):
    w1 [[e_i,e_j],e_k] + w2 (-1)^{i(j+k)} [[e_j,e_k],e_i] + w3 (-1)^{k(i+j)} [[e_k,e_i],e_j]."""
    n, par, E, packs = space.dim, space.parities, bs.entries, bs._packs[1]
    col = [[packs.get((m, k), 0) for m in range(n)] for k in range(n)]  # col[k][m]: e_m e_k
    right, left = ([{k for k, e in enumerate(row) if e} for row in view] for view in (E, bs.col))
    for i, j, ks in heads:
        eij, Ej, Ci, ci, cj, pi, pj = E[i][j], E[j], bs.col[i], col[i], col[j], par[i], par[j]
        for k in ks if eij else sorted(k for k in right[j] | left[i] if k in ks):
            ejk, eki, ck, v = Ej[k], Ci[k], col[k], 0
            for m, c in eij:
                v += w1 * c * ck[m]
            if ejk or eki:
                s2, s3 = (-w2 if pi & (pj ^ par[k]) else w2), (-w3 if par[k] & (pi ^ pj) else w3)
                for m, c in ejk:
                    v += s2 * c * ci[m]
                for m, c in eki:
                    v += s3 * c * cj[m]
            yield (i, j, k), v


def _sweep_super_jacobi(space, bs):
    # cyclic always: the least rotations, i <= j and i + (j > i) <= k; skew too: i <= j <= k
    n, par, skew = space.dim, space.parities, _all_skew((bs,))
    heads = ((i, j, range(j if skew else i + (j > i), n)) for i in range(n) for j in range(i, n))
    moves = (partial(_rotated, par),) + ((partial(_swapped, 0, par),) if skew else ())
    return _packed_orbits("jacobi", space, bs._packs[0], _jacobi_sums(space, bs, 1, 1, 1, heads),
                          moves)


def _sweep_ternary_jacobi(space, ts):
    # the cyclic sum, at the least rotation of each nonzero product's tuple
    (W, packs), par = ts._packs, space.parities
    sums = (((i, j, k), packs.get((i, j, k), 0)
             + sign(par[i] * (par[j] + par[k])) * packs.get((j, k, i), 0)
             + sign(par[k] * (par[i] + par[j])) * packs.get((k, i, j), 0))
            for i, j, k in {min(at, at[1:] + at[:1], at[2:] + at[:2]) for at in packs})
    return _packed_orbits("triple-jacobi", space, W, sums, (partial(_rotated, par),))


def _structures(A, reads):
    """A's structures named in reads, in order; a missing one raises."""
    for what in reads:
        if getattr(A, what) is None:
            raise StructureError("%s has no %s structure" % (A.name, what))
    return tuple(getattr(A, what) for what in reads)


def _all_skew(structures):
    """Whether the skew sweep finds nothing on each of the structures."""
    return not any(st._skew_witnesses for st in structures)


def _swept(A, reads):
    """A's lifted structures named in reads, A in the basis L e_i (a missing one
    raises): the tables check_axioms sweeps and the pair solvers read."""
    _structures(A, reads)
    return tuple(A._lifted[1][what] for what in reads)


def _packed_cells(cells, W):
    """{cell: sum of c_t 2^(W t)} of the integer cells {index tuple: entry}: each one int."""
    packs = {}
    for at, entry in cells.items():
        v = 0
        for t, c in entry:
            v += c << W * t
        packs[at] = v
    return packs


def _digits(v, W):
    """The nonzero signed digits (b, c) of v = sum of c 2^(W b), |c| < 2^(W-1), b rising."""
    half, mask, b = 1 << W - 1, (1 << W) - 1, 0
    while v:    # v holds digits b and up
        if not v & mask:    # on to the lowest nonzero digit
            skip = ((v & -v).bit_length() - 1) // W
            v, b = v >> W * skip, b + skip
        c = ((v & mask) ^ half) - half    # signed: its sign borrows from v
        yield b, c
        v, b = (v - c) >> W, b + 1


def _malcev(space, bs):  # the Malcev walk, compiled only by the commands that run it
    from .malcev import _sweep_malcev
    return _sweep_malcev(space, bs)


def _rules(axiom, space, *structures):  # the pair rules, compiled only where a sweep runs them
    from .rules import _inner_witnesses
    return _inner_witnesses(axiom, space, *structures)


# every sweep with the structures it reads and the weight of its identity,
# a binary constant counting 1 and a ternary one 2 in each term; the kinds'
# sweeps in witness order
_SWEEPS = {
    "skew": (lambda space, st: st._skew_witnesses, ("binary",), 1),
    "jacobi": (_sweep_super_jacobi, ("binary",), 2),
    "malcev": (_malcev, ("binary",), 3),
    "triple-skew": (lambda space, st: st._skew_witnesses, ("ternary",), 2),
    "triple-jacobi": (lambda space, ts: ts._jacobi_witnesses, ("ternary",), 2),
    "nambu": (partial(_rules, "nambu"), ("ternary",), 4),
    "product-rule": (partial(_rules, "product-rule"), ("binary", "ternary"), 3),
}
_SYSTEMS = {
    "lie": ("skew", "jacobi"),
    "malcev": ("skew", "malcev"),
    "supertriple": ("triple-skew", "triple-jacobi"),
    "lie_supertriple": ("triple-skew", "triple-jacobi", "nambu"),
    "bol": ("skew", "triple-skew", "triple-jacobi", "nambu", "product-rule"),
}


def _lift(A):
    """(L, {"binary": L*binary, "ternary": L^2*ternary}) with L the lcm of
    every denominator of both tables, so the lifted constants are ints;
    L = 1 keeps the structures themselves.  Each constant is read once, in
    cells() order: an int as it stands, a Fraction as its numerator and denominator."""
    structures = {"binary": A.binary, "ternary": A.ternary}
    read = {what: [c if type(c) is int else c.as_integer_ratio()
                   for entry in st.cells().values() for _, c in entry]
            for what, st in structures.items() if st is not None}
    L = math.lcm(*{c[1] for cs in read.values() for c in cs if type(c) is tuple})
    if L == 1:
        return 1, structures
    return L, {what: st and st._scaled(iter([c * f if type(c) is int else c[0] * (f // c[1])
                                             for c in read[what]]))
               for (what, st), f in zip(structures.items(), (L, L * L))}


def check_axioms(A, kind):
    """Verify the axiom system `kind` on all basis tuples of A.

    kind is one of lie, malcev, supertriple, lie_supertriple (alias lts),
    bol.  Returns a CheckReport listing every failing tuple, swept once
    per algebra object and kind and stored on A for repeated calls.
    """
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError("unknown axiom system %r" % (kind,))
    if kind in A._reports:
        return A._reports[kind]
    L, witnesses = A._lifted[0], []
    for axiom in _SYSTEMS[kind]:
        sweep, reads, weight = _SWEEPS[axiom]
        witnesses += _witnesses(axiom, A.space, sweep(A.space, *_swept(A, reads)), L ** weight)
    report = A._reports[kind] = CheckReport(A.name, kind, not witnesses, tuple(witnesses))
    return report


def require_axioms(A, kind):
    """check_axioms, raising AxiomError on failure."""
    report = check_axioms(A, kind)
    if not report.passed:
        raise AxiomError("%s fails the %s axioms (first: %s)"
                         % (A.name, report.kind, report.first_failure), report)
    return report


def center(A):
    """Elements x with x*B = 0 and [x,B,B] = [B,x,B] = [B,B,x] = 0.

    Works with whichever structures are present.  The equations, one per
    slot, basis tuple and output coordinate, are built as they are read,
    binary first; once those read have full rank the center is 0 and no
    more are built, so the slots a well-formed algebra makes redundant
    are not all imposed.
    """
    n = A.space.dim

    def views():  # row views with x in the free slot: view[m] is the product with e_m there
        if A.binary is not None:
            for j in range(n):
                yield from (A.binary.col[j], A.binary.entries[j])
        if A.ternary is not None:
            ts = A.ternary
            for j, k in itertools.product(range(n), repeat=2):
                yield from (ts.first[j][k], ts.mid[j][k], ts.entries[j][k])
    # one equation per output coordinate t: the e_t coordinates of the view
    return _null_space(A.space, (row for view in views() if any(view)
                                 for row in _transposed(view, n)))


NOT_CLOSED = "not_closed"
SUBSUPERALGEBRA = "subsuperalgebra"
INVARIANT = "invariant"
IDEAL = "ideal"


def classify_subspace(A, V):
    """Strongest of: not_closed < subsuperalgebra < invariant < ideal.

    V must be graded.  invariant means [B, B, V] <= V on top of closure;
    ideal additionally needs B*V <= V.
    """
    if not isinstance(V, Subspace) or V.space != A.space:
        raise GradingError("V must be a subspace of A's space")
    if not V.is_graded():
        raise GradingError("subspace is not graded")
    vs, basis = V.basis, A.space.basis()

    def inside(st, *legs):  # every product of st over the legs lies in V
        return st is None or all(V.contains(st.eval(*at)) for at in itertools.product(*legs))

    if not (inside(A.binary, vs, vs) and inside(A.ternary, vs, vs, vs)):
        return NOT_CLOSED
    if not inside(A.ternary, basis, basis, vs):
        return SUBSUPERALGEBRA
    return IDEAL if inside(A.binary, basis, vs) else INVARIANT


def check_morphism(f, A, B):
    """Does the even map f intertwine the structures of A and B?

    A's and B's spaces must have identical parity signatures; f is read
    as a map from A's space to B's via coordinates.

    It multiplies only ints: F = D*f (D the lcm of f's denominators) on
    A's and B's lifted tables, where a binary defect comes out D^2 L_A L_B
    and a ternary one D^3 L_A^2 L_B^2 times the true one, divided back only
    for a witness.  One int per head (i) or (i, j) packs the defects at each
    last index k, its e_t coordinate the signed W-bit digit k*n + t, with
    2^(W-1) > wA X1^a M + wB S1 X1, a bound on every digit: X1 is F's largest
    column L1 norm, M B's largest |entry| and S1 A's largest cell L1 norm
    (`_magnitudes`), wA and wB the weights of the two sides in `_hom_defects`.
    """
    if f.degree != 0:
        raise GradingError("a morphism must be even")
    if f.space != A.space:
        raise GradingError("f is not defined on A's space")
    if A.space.parities != B.space.parities:
        raise GradingError("A and B have different parity signatures")
    if (A.binary is None) != (B.binary is None) or (A.ternary is None) != (B.ternary is None):
        raise StructureError("A and B carry different structure kinds")

    n, lab, (LA, SA), (LB, SB) = A.space.dim, A.space.labels, A._lifted, B._lifted
    D = math.lcm(*(c.denominator for col in f.columns for _, c in col))
    F = [tuple((t, c.numerator * (D // c.denominator)) for t, c in col) for col in f.columns]
    witnesses = []
    for a, what in ((2, "binary"), (3, "ternary")):
        # weighted so that each side comes out D^a (LA LB)^(a-1) times its true value
        wA, wB = LA ** (a - 1), (D * LB) ** (a - 1)
        W, accs = (0, ()) if SA[what] is None else _hom_defects(n, F, SA[what], SB[what], wA, wB)
        for h, acc in enumerate(accs):
            for k, digits in itertools.groupby(_digits(acc, W), lambda bc: bc[0] // n):
                coords = _dense(((b - k * n, c) for b, c in digits), n)
                witnesses.append(Witness(what + "-hom", tuple(
                    lab[i] for i in (h // n, h % n, k)[3 - a:]), SuperVector(B.space, tuple(
                        _quotient(c, D * wA * wB) for c in coords))))
    return CheckReport("%s -> %s" % (A.name, B.name), "morphism", not witnesses, tuple(witnesses))


def _hom_defects(n, F, SA, SB, wA, wB):
    """(W, accs), accs[h] wA [F e_i, ..., F e_k]_SB - wB F(SA(e_i, ..., e_k)) at the head h =
    (i, ...) packed over (k, t).  The SB side multiplies each cell packed over t
    (`_packed_cells`) by F's row q packed over k at stride n W, one product for the whole last
    slot, then puts F into the other slots; the SA side adds each cell's F image at k."""
    a, rows = SA.ARITY, _transposed(F, n)
    x1 = max((sum(abs(c) for _, c in col) for col in F), default=0)
    W = (wA * x1 ** a * SB._magnitudes[0] + wB * SA._magnitudes[1] * x1).bit_length() + 1
    G, accs = [wA * sum(c << W * n * k for k, c in row) for row in rows], [0] * n ** (a - 1)
    for at, v in _packed_cells(SB.cells(), W).items():
        accs[at[0] * n + at[1] if a == 3 else at[0]] += v * G[at[-1]]
    for step in (1, n)[:a - 1]:   # [e_i, e_m, .] -> [e_i, F e_j, .], then the first slot
        out = [0] * len(accs)
        for h, v in enumerate(accs):
            m = h // step % n
            for j, c in rows[m] if v else ():
                out[h + (j - m) * step] += c * v
        accs = out
    fcol = [wB * sum(c << W * t for t, c in col) for col in F]
    at_k = [[v << W * n * k for v in fcol] for k in range(n)]    # the F images at each k
    for h, row in enumerate(SA.entries if a == 2 else [r for p in SA.entries for r in p]):
        accs[h] -= sum(c * fk[q] for fk, entry in zip(at_k, row) for q, c in entry)
    return W, accs
