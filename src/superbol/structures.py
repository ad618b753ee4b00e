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

Nambu and the product rule are the pseudo-derivation rules on the inner pairs: D_{x,y} = [x, y, .]
derives the triple product, and (D_{x,y}, x.y) the binary one.  One evaluator, `_rule_defects`, runs
both for this checker and check_pseudo (the pair solvers call its two paths through `_pair_rows`),
on the one form x of an integer pair (P, a): x[m] = P e_m, x[n] = a, sparse.  The pairs of one
degree are evaluated at once, by Kronecker substitution: packed into one pair whose coordinates
hold theirs W bits apart, each coordinate of its defects read back as their signed W-bit digits,
exact since every term is linear in x (`_width`).  The path is a property of the tables (`_joins`):
where the rule's own product has fewer than half its n^arity cells nonzero, `_joined` joins the
pair with an index of the tables by the value in each slot (`_by_slot`), built in one pass per
table with each cell's slots, parities and windows computed inline, adding each cell it reaches
straight into its tuple's sum; else `_listed` visits each of the tuples the rule lists, each term's
slot and sign from `_terms`.
Each sweep evaluates the least tuple of each symmetry orbit and reports the rest as signed
copies of its defect D.  The skew sweeps always, only i <= j: D(j,i,...) = (-1)^{p_i p_j}
D(i,j,...).  The cyclic sums (super and ternary Jacobi) always: D(j,k,i) = (-1)^{p_i(p_j+p_k)}
D(i,j,k).  Once the skew sweeps of the tables read find nothing (each runs once per structure
object): super Jacobi D(j,i,k) = -(-1)^{p_i p_j} D(i,j,k), so i <= j <= k; Malcev D(j,k,l,i) =
(-1)^{p_i(p_j+p_k+p_l)} D(i,j,k,l), not i <-> k, so its loops keep i <= j, k, l and, where i
repeats, the least rotation; the pseudo-derivation rules by that skew sign in (i, j), as the
inner pairs are, and in (u, v): i <= j and u <= v, here and in the pair-space solvers.  Once the
ternary table's Jacobi sweep (also run once per structure object) finds nothing too, the triple
rule's defect F of any homogeneous operator obeys F(u,v,w) + (-1)^{p_u(p_v+p_w)} F(v,w,u) +
(-1)^{p_w(p_u+p_v)} F(w,u,v) = 0.  Of the tuples u <= v only u < v, u <= w are then evaluated:
the derived ones, u == v or w < u < v, are zero where these are ((a, a, a) is 0).  A Nambu sweep
that finds a defect there evaluates its failing inner pairs again at every u <= v, and the
derived rows, combinations of kept rows, are not listed in the pair-space solvers.  A table
listed by its kept half, i <= j (from_products, the .alg parser, enveloping algebras and pair
brackets), is completed by one routine, `_mirrored`.

The Malcev sweep visits no tuple.  Each of its five terms is an inner product from `_products`,
(e_i e_j) e_k, e_i (e_k e_l) or (e_i e_k) e_b, times one more basis vector: it walks from the
inner product's support to the nonzero cells there, one first index i at a time, each path
adding one packed int into its tuple's slot (j n + k) n + l (`_slots`).  The work is the paths,
on sparse and dense tables alike, and only nonzero slots are decoded.

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

Each table also packs its cells once, by the same substitution, as {cell: sum of c 2^(W t)}
(`_packs`, by `_packed_cells`) with 2^(W-1) > 4 S1 M (S1, M as in `_width`): above the skew (2M),
ternary Jacobi (3M) and super Jacobi (3 S1 M) defects and the sums of malcev_to_bol (weights 2,
-1, -1: 4 S1 M) and lie_to_supertriple (1, 0, 0: S1 M), which add these ints (a super Jacobi
term: one multiply-add per (m, c) of e_i e_j).  The Malcev sweep packs by `_packed_cells` at its
own W, 2^(W-1) > 5 S1^2 M: each of its five terms is at most S1^2 M per coordinate.  One
decoder, `_packed_orbits`, reads back every sweep's nonzero defects.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import cached_property, partial
from operator import itemgetter

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


def _products(vec, cells):
    """{x: vec times e_x} where nonzero, packed, with cells[m] the nonzero (x, packed e_m e_x) of
    row m; with those (x, packed e_x e_m) of column m, {x: e_x times vec}."""
    out = {}
    for m, c in vec:
        for x, e in cells[m]:
            out[x] = out.get(x, 0) + c * e
    return {x: v for x, v in out.items() if v}


def _slots(n, paths):
    """`_sweep_malcev`'s zero slots of one i: n^3 ints once its writes, about 2 paths, reach n^4/50,
    else a dict (measured: a dict write costs about as much as 50 slots of the n lists)."""
    return [0] * n ** 3 if 100 * paths >= n ** 4 else defaultdict(int)


def _sweep_malcev(space, bs):
    """RHS - LHS of the Malcev identity, s = (-1)^{jk}, s4 = (-1)^{j(k+l)}, s5 = (-1)^{l(j+k)}:
    D = s (e_i e_k)(e_j e_l) - ((e_i e_j) e_k) e_l + e_i ((e_j e_k) e_l)
        + s4 (e_i (e_k e_l)) e_j + s5 ((e_i e_l) e_j) e_k.
    No tuple is visited: each path from a term's inner product to a nonzero cell adds one int (W
    as the module says), signed by parity bits, into the slot (j n + k) n + l of its tuple in its
    first index i's `_slots`; only nonzero slots are decoded.  Once the product is super skew D
    is cyclic: i <= j, k, l, and a tuple with i repeated is kept when least among its rotations."""
    n, nn, par, mirror = space.dim, space.dim ** 2, space.parities, _all_skew((bs,))
    (m, s1), cells, found = bs._magnitudes, bs.cells(), []
    W, rows, cols = (5 * s1 * s1 * m).bit_length() + 1, [[] for _ in par], [[] for _ in par]
    for (a, b), v in reversed(_packed_cells(cells, W).items()):  # by falling index
        rows[a].append((b, v))
        cols[b].append((a, v))
    # right[a, b][c] = (e_a e_b) e_c; skew, read off its kept half: e_b e_a = -(-1)^{ab} e_a e_b
    if mirror:
        right = {at: _products(entry, rows) for at, entry in cells.items() if at[0] <= at[1]}
        right.update({(b, a): {c: v if par[a] & par[b] else -v for c, v in r.items()}
                      for (a, b), r in right.items() if a < b})
    else:
        right = {at: _products(entry, rows) for at, entry in cells.items()}
    # per i: heads (k, e_i e_k's right map), k >= i if skew, and tails (k n + l, p_k + p_l,
    # e_i (e_k e_l)), skew only i <= k, l, read off right: -(-1)^{i(k+l)} (e_k e_l) e_i; per b,
    # least index first: units (least, j n^2 + l, p_j, d) of d e_b in e_j e_l and into
    # (least, slot, d) of d e_b in (e_j e_k) e_l
    heads, tails, units, into = ([[] for _ in par] for _ in range(4))
    for (a, b), entry in cells.items():
        for t, d in entry:
            units[t].append((min(a, b) if mirror else n, a * nn + b, par[a], d))
        for c, vec in ({} if mirror else _products(entry, cols)).items():
            tails[c].append((a * n + b, par[a] ^ par[b], vec))
    for (a, b), r in right.items():
        r, p = [(c, vec, list(_digits(vec, W))) for c, vec in r.items()], par[a] ^ par[b]
        if b >= a or not mirror:
            heads[a].append((b, r))
        for c, vec, digits in r:
            if mirror and c <= a and c <= b:
                tails[c].append((a * n + b, p, vec if par[c] & p else -vec))
            for t, d in digits:
                into[t].append((min(a, b, c) if mirror else n, (a * n + b) * n + c, d))
    for group in units + into:
        group.sort(key=itemgetter(0), reverse=True)
    paths = sum(len(c) * len(t) for c, t in zip(cols, into))  # e_i ((e_j e_k) e_l)'s, unpruned
    for i in range(n):
        lo, slots = i if mirror else 0, _slots(n, paths)
        for k, rik in heads[i]:
            kn, pk = k * n, par[k]
            for y, vec, digits in rik:  # s (e_i e_k)(e_j e_l): s d (e_i e_k) e_y, (y, d) of e_j e_l
                for least, at, pj, d in units[y]:
                    if least < i:
                        break
                    slots[at + kn] += -d * vec if pj & pk else d * vec
                if y >= lo:  # -((e_i e_k) e_y) e_f at (i, k, y, f); s5 times at (i, y, f, k)
                    b2, b5, py = (kn + y) * n, y * nn + k, par[y]
                    for b, d in digits:
                        for f, e in rows[b]:
                            if f < lo:
                                break
                            t = d * e
                            slots[b2 + f] -= t
                            slots[b5 + f * n] += -t if pk & (py ^ par[f]) else t
        for b, e in rows[i]:  # e_i ((e_j e_k) e_l): d e_i e_b, (b, d) of (e_j e_k) e_l
            for least, at, d in into[b]:
                if least < i:
                    break
                slots[at] += d * e
        for kl, p, vec in tails[i]:  # s4 (e_i (e_k e_l)) e_j
            for b, d in _digits(vec, W):
                for j, e in rows[b]:
                    if j < lo:
                        break
                    slots[j * nn + kl] += -d * e if par[j] & p else d * e
        # the nonzero slots (one count passes a list of zeros), each orbit's least rotation: with
        # i least, a rotation to a later i is less only when it is l (not all four), or k and l < j
        for at in (slots.count(0) < n * nn and itertools.compress(range(n * nn), slots) or ()
                   if isinstance(slots, list) else itertools.compress(slots, slots.values())):
            j, k, l = at // nn, at // n % n, at % n
            if not mirror or (l != i or i == j == k) and (k != i or j <= l):
                found.append(((i, j, k, l), slots[at]))
    return _packed_orbits("malcev", space, W, found, (partial(_rotated, par),) if mirror else ())


def _sweep_ternary_jacobi(space, ts):
    # the cyclic sum, at the least rotation of each nonzero product's tuple
    (W, packs), par = ts._packs, space.parities
    sums = (((i, j, k), packs.get((i, j, k), 0)
             + sign(par[i] * (par[j] + par[k])) * packs.get((j, k, i), 0)
             + sign(par[k] * (par[i] + par[j])) * packs.get((k, i, j), 0))
            for i, j, k in {min(at, at[1:] + at[:1], at[2:] + at[:2]) for at in packs})
    return _packed_orbits("triple-jacobi", space, W, sums, (partial(_rotated, par),))


# the pseudo-derivation rules: a degree-r pair (P, a) derives the ternary product (the triple
# rule) and, with its companion, the binary one (the product rule).  The structures a rule reads
# name it: the ternary alone, or the binary then the ternary.  At the tuple at, the defect RHS -
# LHS sums, over the terms t as `_terms` lays them out, s * x[slot] through the row view of term
# t's product with e_slot in slot t (the rule's own product, but the ternary for the product
# rule's companion term), and w, the rule's product at at, through the pair's w view:
#   [P e_i, e_j, e_k] +- [e_i, P e_j, e_k] +- [e_i, e_j, P e_k] - P[e_i, e_j, e_k],
#   [P e_i, e_j] +- [e_i, P e_j] +- [e_i, e_j, a] + a.(e_i e_j) - P(e_i e_j).


def _terms(par, at):
    """Per term t of a rule at its tuple at, (slot, p): it reads x[slot], slot at[t] or, past
    the last factor, the companion's n, and moves P past at[:t], of parity p."""
    i, j, k = at if len(at) == 3 else at + (len(par),)
    return (i, 0), (j, par[i]), (k, par[i] ^ par[j])


# each rule with check_pseudo's name for it and the structures it reads
_RULES = (("derives-triple", ("ternary",)), ("derives-product", ("binary", "ternary")))


def _w_view(x, structures):
    """The w view of the pair x: view[m] = -P e_m, plus [a, e_m] where the rule reads the binary
    product, through which a acts; -P e_m alone, negated, where it reads no companion or a = 0."""
    *P, a = x
    if not (structures[1:] and a):
        return [tuple((t, -c) for t, c in row) for row in P]
    view = [_into([0] * len(P), a, col) for col in structures[0].col]
    for acc, row in zip(view, P):
        for t, c in row:
            acc[t] -= c
    return [_sparse(acc) for acc in view]


def _ordered(n, a, d):
    """The a-tuples at of basis indices with at[0] + d[0] <= at[1] and, for a = 3,
    at[0] + d[1] <= at[2], in order: those a rule is evaluated at, d from `_order`."""
    return ((i,) + rest for i in range(n)
            for rest in itertools.product(*(range(max(0, i + e), n) for e in d[:a - 1])))


def _by_slot(par, st, a, d):
    """Table st's part of the join's index for the rule of arity a: per m, each cell with e_m in
    a slot t of st's terms (the product rule's ternary: the companion's) as (base, stride, p,
    entry, lo, hi), the term at the tuple keyed base + v stride reading x[v], v in [lo, hi] (or
    the companion's n, stride 0), P past at[:t] of parity p; per m, the kept (key, c) of w's
    cells if st is the rule's own.  One pass over st's cells, each unpacked once with its key
    and windows computed inline; (i, j, k) is `_ordered` when i + d[0] <= j, i + d[1] <= k, so
    v <= j - d[0], k - d[1] in slot 0 and v >= i + d[t - 1] in slot t while the other slot
    holds.  The product rule's ternary, read for the companion's term alone, has its own loop.
    A tuple's key is its indices' base-n digits, (i n + j) n + k."""
    n, (d0, d1), index, w = len(par), d, [[] for _ in par], [[] for _ in par]
    if st.ARITY > a:  # the product rule's ternary: its companion term at (i, j) reads x[n]
        for (i, j, k), entry in st.cells().items():
            if i + d0 <= j:
                index[k].append((i * n + j, 0, par[i] ^ par[j], entry, n, n))
        return index, w
    s0, s1 = (n * n, n) if a == 3 else (n, 1)
    for at, entry in st.cells().items():
        i, j, k = at if a == 3 else at + (math.inf,)
        key = (i * n + j) * n + k if a == 3 else i * n + j
        ok1, ok2, hi = i + d0 <= j, i + d1 <= k, min(n - 1, j - d0, k - d1)
        if hi >= 0:
            index[i].append((key - i * s0, s0, 0, entry, 0, hi))
        if ok2 and i + d0 < n:
            index[j].append((key - j * s1, s1, par[i], entry, i + d0, n - 1))
        if a == 3 and ok1:
            index[k].append((key - k, 1, par[i] ^ par[j], entry, i + d1, n - 1))
        if ok1 and ok2:
            for m, c in entry:
                w[m].append((key, c))
    return index, w


def _joins(structures):
    """Whether the rule's own product, structures[0], has fewer than half its n^arity cells
    nonzero: the join's work grows with the cells, the listed path's with the tuples."""
    st = structures[0]
    return 2 * len(st.cells()) < st.space.dim ** st.ARITY


def _joined(space, structures, r, x, order):
    """The rule's defects at one degree-r pair x at its tuples `_ordered` by order, (at, acc) in
    order, acc dense: the sums over the cells its nonzero (v, m, c) reach in the index of each
    table read, its own part of it (`_by_slot`) kept on it per order and rule arity and the
    parts read in turn, and over those meeting its w view's support, each cell added straight
    into its tuple's sum under the tuple's int key; only the keys with a nonzero sum are sorted
    and decoded."""
    a, sg, found, n = structures[0].ARITY, (1, sign(r)), {}, space.dim
    parts = [st._indexes.get((order, a)) or st._indexes.setdefault((order, a), _by_slot(
        space.parities, st, a, order)) for st in structures]
    for v, row in enumerate(x):
        for m, c in row:
            for index, _ in parts:
                for base, stride, p, entry, lo, hi in index[m]:
                    if lo <= v <= hi:
                        key, f = base + v * stride, sg[p] * c
                        acc = found.get(key) or found.setdefault(key, [0] * n)
                        for q, e in entry:
                            acc[q] += f * e
    for m, row in enumerate(_w_view(x, structures)):
        for key, c in parts[0][1][m] if row else ():
            acc = found.get(key) or found.setdefault(key, [0] * n)
            for q, e in row:
                acc[q] += c * e
    return [(divmod(key, n) if a == 2 else (key // n // n, key // n % n, key % n), found[key])
            for key in sorted(key for key, acc in found.items() if any(acc))]


def _listed(space, structures, r, x, order):
    """The rule's defects at one degree-r pair x, at each of its tuples `_ordered` by order in
    turn: (at, acc) in order, acc dense."""
    n, par, st, sg = space.dim, space.parities, structures[0], (1, sign(r))
    a, v2 = st.ARITY, structures[-1].entries    # term 2 reads the ternary product
    v0, v1 = (st.col, st.entries) if a == 2 else (st.first, st.mid)
    view = _w_view(x, structures)
    for at in _ordered(n, a, order):
        (i, p0), (j, p1), (k, p2) = _terms(par, at)
        r0, r1 = (v0[j], v1[i]) if a == 2 else (v0[j][k], v1[i][k])
        w, xi, xj, xk = r1[j], x[i], x[j], x[k]
        if not (w or xi or xj or xk):
            continue    # no term reaches the pair
        acc = _into([0] * n, w, view)
        if xi:
            _into(acc, xi, r0, sg[p0])
        if xj:
            _into(acc, xj, r1, sg[p1])
        if xk:
            _into(acc, xk, v2[i][j], sg[p2])
        if any(acc):
            yield at, acc


def _width(xs, structures):
    """W with 2^(W-1) > X1 (3M + S1 (1 + M)), a bound on every defect coordinate of the integer
    pairs xs: X1 the largest L1 norm of a pair row, M the largest |entry| and S1 the largest L1
    norm of a cell of the tables read.  Per tuple the three x terms are at most X1 M each, and
    w . view at most S1 X1 (1 + M)."""
    m, s1 = (max(values) for values in zip(*(st._magnitudes for st in structures)))
    x1 = max((sum(abs(c) for _, c in row) for x in xs for row in x if row), default=0)
    return (x1 * (3 * m + s1 * (1 + m))).bit_length() + 1


def _packed(xs, W):
    """The pair sum over b of xs[b] 2^(W b), sparse: its rows' coordinates hold those of the
    pairs W bits apart, nonzero where some pair's is, as each |c| < 2^(W-1) but the last's."""
    out = []
    for rows in zip(*xs):
        acc = [0] * (len(xs[0]) - 1)
        for b, row in enumerate(rows):
            for m, c in row:
                acc[m] += c << W * b
        out.append(_sparse(acc))
    return tuple(out)


def _rule_defects(space, structures, pairs, order=(-math.inf,) * 2):
    """The nonzero defects of the rule the structures name on each integer degree-r pair (key,
    r, x) of pairs at its tuples `_ordered` by order, as (key + at, acc) in pair order, acc
    dense.  The pairs of each degree are evaluated at once, as one pair `_packed` W bits apart
    (every term is linear in x), joined or listed as `_joins` chooses for the tables: digit b
    of coordinate t of a packed defect, read by `_digits`, is coordinate t of pair b's."""
    evaluate = _joined if _joins(structures) else _listed
    found, degrees = [], {}  # per pair, its key and defects; per degree, its pairs
    for key, r, x in pairs:
        if any(x):  # a zero pair derives everything
            found.append((key, []))
            degrees.setdefault(r, []).append((x, found[-1][1]))
    for r, group in degrees.items():
        xs, outs = zip(*group)
        W = _width(xs, structures)
        for at, acc in evaluate(space, structures, r, _packed(xs, W), order):
            defects = {}    # per pair with a nonzero digit, its dense defect
            for t, v in enumerate(acc):
                for b, c in _digits(v, W) if v else ():
                    (defects.get(b) or defects.setdefault(b, [0] * len(acc)))[t] = c
            for b, defect in defects.items():
                outs[b].append((at, defect))
    return [(key + at, acc) for key, defects in found for at, acc in defects]


def _structures(A, reads):
    """A's structures named in reads, in order; a missing one raises."""
    for what in reads:
        if getattr(A, what) is None:
            raise StructureError("%s has no %s structure" % (A.name, what))
    return tuple(getattr(A, what) for what in reads)


def _inner_pairs(space, *structures):
    """((i, j), degree, x) for every inner pair (D_{i,j}, e_i.e_j) of basis
    vectors, in (i, j) order: x as in the rules, x[m] = [e_i, e_j, e_m] and
    x[n] = e_i.e_j, or () when the structures are the ternary one alone."""
    n, par = space.dim, space.parities
    Et, Eb = structures[-1].entries, structures[0].entries if len(structures) == 2 else None
    for i, j in itertools.product(range(n), repeat=2):
        yield (i, j), par[i] ^ par[j], Et[i][j] + (Eb[i][j] if Eb else (),)


def _all_skew(structures):
    """Whether the skew sweep finds nothing on each of the structures."""
    return not any(st._skew_witnesses for st in structures)


def _derives(structures):
    """Whether the structures are the triple rule's, a ternary table alone, whose skew and
    ternary Jacobi sweeps find nothing: then its derived tuples are zero where the rest are."""
    st = structures[0]
    return st.ARITY == 3 and _all_skew(structures) and not st._jacobi_witnesses


def _swept(A, reads):
    """A's lifted structures named in reads, A in the basis L e_i (a missing one
    raises): the tables check_axioms sweeps and the pair solvers read."""
    _structures(A, reads)
    return tuple(A._lifted[1][what] for what in reads)


def _order(structures):
    """The offsets d, `_ordered`'s, of the tuples a sweep or solver evaluates the structures'
    rule at: at[0] <= at[1] once they are super skew, u < v, u <= w once derived ones follow
    (a failing Nambu sweep then evaluates its failing pairs again at every u <= v)."""
    if _derives(structures):
        return 1, 0
    return (0 if _all_skew(structures) else -math.inf), -math.inf


def _pair_rows(A, r, pairs):
    """The pair solvers' rows: both rules, the triple rule's first, on A's lifted tables at
    `_order`'s tuples, for the integer degree-r pairs (column, x) in column order, packed into
    one W bits apart (`_packed`; `_width` over both tables), joined or listed as `_joins`
    chooses for each rule's tables, as in `_rule_defects`.  Each nonzero packed defect
    coordinate is one row ((column, c), ...), c that coordinate of x's defect: one seen
    before, up to sign, is dropped, and a new one is read by `_digits`.  A missing structure
    raises before any row."""
    rules = [_swept(A, reads) for _, reads in _RULES]
    columns, xs = zip(*pairs)
    W = _width(xs, [st for structures in rules for st in structures])
    x, seen = _packed(xs, W), set()
    for structures in rules:
        evaluate = _joined if _joins(structures) else _listed
        for _, acc in evaluate(A.space, structures, r, x, _order(structures)):
            for v in map(abs, acc):
                if v and v not in seen:
                    seen.add(v)
                    yield [(columns[b], c) for b, c in _digits(v, W)]


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


def _inner_witnesses(axiom, space, *structures):
    # the structures' rule on every inner pair, mirrored in (i, j) and (u, v) once they are
    # super skew; where the derived tuples were left out, the failing pairs again at all u <= v
    par, mirror = space.parities, _all_skew(structures)
    pairs = [p for p in _inner_pairs(space, *structures) if p[0][0] <= p[0][1] or not mirror]
    defects = _rule_defects(space, structures, pairs, _order(structures))
    if defects and _derives(structures):
        failing = {at[:2] for at, _ in defects}
        defects = _rule_defects(space, structures, [p for p in pairs if p[0] in failing],
                                (0, -math.inf))
    return _orbit_witnesses(axiom, space, defects, (partial(_swapped, 0, par),
                                                    partial(_swapped, 2, par)) if mirror else ())


# every sweep with the structures it reads and the weight of its identity,
# a binary constant counting 1 and a ternary one 2 in each term; the kinds'
# sweeps in witness order
_SWEEPS = {
    "skew": (lambda space, st: st._skew_witnesses, ("binary",), 1),
    "jacobi": (_sweep_super_jacobi, ("binary",), 2),
    "malcev": (_sweep_malcev, ("binary",), 3),
    "triple-skew": (lambda space, st: st._skew_witnesses, ("ternary",), 2),
    "triple-jacobi": (lambda space, ts: ts._jacobi_witnesses, ("ternary",), 2),
    "nambu": (partial(_inner_witnesses, "nambu"), ("ternary",), 4),
    "product-rule": (partial(_inner_witnesses, "product-rule"), ("binary", "ternary"), 3),
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
