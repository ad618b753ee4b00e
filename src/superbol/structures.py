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

Nambu and the product rule are the pseudo-derivation rules evaluated on
the inner pairs: D_{x,y} = [x, y, .] derives the triple product, and
(D_{x,y}, x.y) the binary one.  The rules are written once, below, for
this checker, envelope.check_pseudo and the pair-space solvers.  The
inner pairs of the basis are read off the tables by one generator,
`_inner_pairs`, for this checker, ips_space, ps_space and enveloping.
Each sweep evaluates the least tuple of each symmetry orbit and reports
the rest as signed copies of its defect D.  The cyclic sums (super and
ternary Jacobi) always: D(j,k,i) = (-1)^{p_i(p_j+p_k)} D(i,j,k).  Once the
skew sweeps of the tables read find nothing (each runs once per structure
object): super Jacobi D(j,i,k) = -(-1)^{p_i p_j} D(i,j,k), so i <= j <= k;
Malcev D(j,k,l,i) = (-1)^{p_i(p_j+p_k+p_l)} D(i,j,k,l), not i <-> k; the
pseudo-derivation rules by that skew sign in (i, j), as the inner pairs
are, and in (u, v): i <= j and u <= v, here and in the pair-space solvers.
Once the ternary table's Jacobi sweep finds nothing too (it also runs once
per structure object), the triple rule's defect F of any homogeneous operator
obeys F(u,v,w) + (-1)^{p_u(p_v+p_w)} F(v,w,u) + (-1)^{p_w(p_u+p_v)} F(w,u,v)
= 0.  Of the tuples u <= v only u < v, u <= w are then evaluated; the
derived ones, u == v or w < u < v, are read off their two partners in the
Nambu sweep ((a, a, a) is 0), and their rows, combinations of kept rows,
are not listed in the pair-space solvers.

The sweeps run on integer tables.  With L the lcm of every denominator
in the binary table B and the ternary table T, check_axioms sweeps L*B
and L^2*T.  Every identity is homogeneous when a binary constant has
weight 1 and a ternary one weight 2, so each defect comes out L^weight
times the true one and is divided back exactly.  The weights, kept in
`_SWEEPS` next to the sweeps: skew 1; jacobi, triple-skew and
triple-jacobi 2; malcev and product-rule 3; nambu 4.  Scaling B and T by
the same factor would not do: the product rule mixes B.B.B and T.B
terms.  The lift is made once per algebra object; when L = 1 the tables
are swept as they stand.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cached_property, partial

from .graded import (GradingError, SuperVector, _dense, _exact, _into, _quotient,
                     _sparse, _SparseValue, _transposed, _unit, _vector, record, sign)
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
    the product of e_i, e_j, ...; the dense view `table` holds the
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
        vars(self).update(space=space, entries=_nested(cells, space.dim, self.ARITY))

    @cached_property
    def table(self):
        return _densified(self.entries, self.space.dim, self.ARITY)

    def cells(self):
        """{index tuple: entry} of the nonzero products, in lexicographic order,
        built once per structure object: callers only read it."""
        return self._cells

    @cached_property
    def _cells(self):
        leaves = self.entries
        for _ in range(self.ARITY - 1):
            leaves = [entry for block in leaves for entry in block]
        return {at: entry for at, entry in zip(
            itertools.product(range(self.space.dim), repeat=self.ARITY), leaves) if entry}

    @cached_property
    def _skew_witnesses(self):  # the skew sweep, run once per structure object
        return tuple(_skew(self.space, self))

    @classmethod
    def from_products(cls, space, products):
        """Build from `products`, index tuples to coordinate sequences, filling
        in the mirror of each listing by super skew-symmetry in the first two
        slots.  A key that is not ARITY basis indices and an explicit
        contradiction (a nonzero even square too) raise.  Ternary Jacobi
        consequences are NOT filled in; they are the checker's business."""
        n, par, arity = space.dim, space.parities, cls.ARITY
        cells = {}
        for at, coords in products.items():
            if not (isinstance(at, tuple) and len(at) == arity
                    and all(isinstance(i, int) and 0 <= i < n for i in at)):
                raise StructureError("%s product key %r is not %d basis indices"
                                     % (cls.NAME, at, arity))
            cells[at] = _cell(space, coords, at)
        for at in sorted(products):
            i, j = at[:2]
            s = sign(par[i] * par[j])
            implied = tuple((t, -s * c) for t, c in cells[at])
            mirror = (j, i) + at[2:]
            if i == j and s == 1 and implied:
                raise StructureError("%s must vanish by skew-symmetry" % _bracket(space, at))
            if mirror not in cells:
                cells[mirror] = implied
            elif mirror in products and mirror != at and cells[mirror] != implied:
                raise StructureError("%s contradicts %s under skew-symmetry"
                                     % (_bracket(space, mirror), _bracket(space, at)))
        return cls._of(space, cells)

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

    @cached_property
    def reach(self):
        """The (i, j, k), in order, sharing two slots with a nonzero product: where
        the terms of the triple rule below can be nonzero for some pair."""
        every, cells = range(self.space.dim), self.cells()
        return tuple(sorted({(i, j, m) for i, j in {at[:2] for at in cells} for m in every}
                            | {(i, m, k) for i, k in {at[::2] for at in cells} for m in every}
                            | {(m, j, k) for j, k in {at[1:] for at in cells} for m in every}))


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


def _skew(space, st):
    # swapping the first two slots, wherever either product is nonzero
    n, par, lab = space.dim, space.parities, space.labels
    axiom = "skew" if st.ARITY == 2 else "triple-skew"
    cells = st.cells()
    for at in sorted(set(cells) | {(j, i, *rest) for i, j, *rest in cells}):
        i, j = at[:2]
        acc = list(_dense(cells.get(at, ()), n))
        for t, c in cells.get((j, i) + at[2:], ()):
            acc[t] += sign(par[i] * par[j]) * c
        if any(acc):
            yield Witness(axiom, tuple(lab[t] for t in at), _vector(space, acc))


def _rotated(par, at):
    # the cyclic identities: the first index moved last, times (-1)^{p_first (p_rest)}
    return at[1:] + at[:1], sign(par[at[0]] * sum(par[t] for t in at[1:]))


def _swapped(u, par, at):
    # super skew in slots u, u + 1: times -(-1)^{p_i p_j}
    i, j = at[u:u + 2]
    return at[:u] + (j, i) + at[u + 2:], -sign(par[i] * par[j])


def _least(at):
    """Whether at is least among its rotations: its orbit's representative."""
    return all(at <= at[m:] + at[:m] for m in range(1, len(at)))


def _orbit_witnesses(axiom, space, defects, moves):
    """Witnesses of the defects (at, acc) at orbit representatives, in order: each
    nonzero acc closed under the moves, at -> (image, s) scaling the defect by s."""
    lab, found = space.labels, []
    for at, acc in defects:
        if any(acc):
            orbit, seen = [(at, acc)], {at}
            for b, a in orbit:     # the list grows while it is read: a breadth-first closure
                for move in moves:
                    image, s = move(b)
                    if image not in seen:
                        seen.add(image)
                        orbit.append((image, a if s == 1 else [-c for c in a]))
            found += orbit
    for at, acc in sorted(found):
        yield Witness(axiom, tuple(lab[t] for t in at), _vector(space, acc))


def _jacobi_sums(space, bs, w1, w2, w3, tuples):
    """((i, j, k), acc) for the tuples where a term of the super Jacobi cyclic
    sum can be nonzero, acc the dense w1 [[e_i,e_j],e_k] + w2 (-1)^{i(j+k)}
    [[e_j,e_k],e_i] + w3 (-1)^{k(i+j)} [[e_k,e_i],e_j]."""
    n, par = space.dim, space.parities
    E, col = bs.entries, bs.col
    for i, j, k in tuples:
        if E[i][j] or E[j][k] or E[k][i]:
            acc = _into([0] * n, E[i][j], col[k], w1)
            _into(acc, E[j][k], col[i], w2 * sign(par[i] * (par[j] + par[k])))
            _into(acc, E[k][i], col[j], w3 * sign(par[k] * (par[i] + par[j])))
            yield (i, j, k), acc


def _sweep_super_jacobi(space, bs):
    # cyclic always, and once the product is super skew in (i, j) too: i <= j <= k
    n, par, skew = space.dim, space.parities, _all_skew((bs,))
    reps = (itertools.combinations_with_replacement(range(n), 3) if skew
            else filter(_least, itertools.product(range(n), repeat=3)))
    moves = (partial(_rotated, par),) + ((partial(_swapped, 0, par),) if skew else ())
    return _orbit_witnesses("jacobi", space, _jacobi_sums(space, bs, 1, 1, 1, reps), moves)


def _sweep_malcev(space, bs):
    # RHS - LHS wherever a term can be nonzero; once the product is super skew it
    # is cyclic in the four arguments: only tuples least among their rotations
    n, par, mirror = space.dim, space.parities, _all_skew((bs,))
    E, col = bs.entries, bs.col
    every, none = range(n), ((),) * n
    # right[a][b][c] = [[e_a, e_b], e_c] and left[b][c][a] = [e_a, [e_b, e_c]],
    # built only where the inner product is nonzero
    right = [[[_sparse(_into([0] * n, E[a][b], col[c])) for c in every] if E[a][b] else none
              for b in every] for a in every]
    left = [[[_sparse(_into([0] * n, E[b][c], E[a])) for a in every] if E[b][c] else none
             for c in every] for b in every]
    # a term at (i, j, k, l) needs e_i e_j, e_j e_k, e_k e_l, e_i e_l or
    # both e_i e_k and e_j e_l nonzero.  So when e_i e_j and the row of e_i
    # vanish, k lies in the support of e_j's row or has a nonzero row; when
    # e_i e_j, e_j e_k and e_i e_k vanish, l lies in the support of row k or i
    supp = [{b for b in every if E[a][b]} for a in every]
    busy = {k for k in every if supp[k]}
    ks_after = [sorted(supp[j] | busy) for j in every]
    ls_after = [[sorted(supp[k] | supp[i]) for i in every] for k in every]

    def defects():
        for i in every:
            lo = i if mirror else 0     # a representative starts at its least index
            for j in range(lo, n):
                pj, right_ij, right_i = par[j], right[i][j], right[i]
                wide = bool(E[i][j])
                ks = ks_after[j]
                for k in range(lo, n) if wide or supp[i] else ks[bisect_left(ks, lo):]:
                    pk, ik, ijk = par[k], E[i][k], right_ij[k]
                    right_jk, left_k, ls = right[j][k], left[k], ls_after[k][i]
                    for l in range(lo, n) if wide or ik or E[j][k] else ls[bisect_left(ls, lo):]:
                        pl = par[l]
                        jkl, ikl, ilj = right_jk[l], left_k[l][i], right_i[l][j]
                        if not (ijk or jkl or ikl or ilj or (ik and E[j][l])):
                            continue
                        if mirror and i in (j, k, l) and not _least((i, j, k, l)):
                            continue
                        acc = [0] * n
                        s = sign(pj * pk)
                        for a, c in ik:
                            _into(acc, E[j][l], E[a], s * c)
                        _into(acc, ijk, col[l], -1)
                        _into(acc, jkl, E[i])
                        _into(acc, ikl, col[j], sign(pj * (pk + pl)))
                        _into(acc, ilj, col[k], sign(pl * (pj + pk)))
                        yield (i, j, k, l), acc
    return _orbit_witnesses("malcev", space, defects(),
                            (partial(_rotated, par),) if mirror else ())


def _sweep_ternary_jacobi(space, ts):
    # the cyclic sum, at the least rotation of each nonzero product's tuple
    n, par, cells = space.dim, space.parities, ts.cells()

    def sums():
        for i, j, k in {min(at, at[1:] + at[:1], at[2:] + at[:2]) for at in cells}:
            acc = list(_dense(cells.get((i, j, k), ()), n))
            for at, s in (((j, k, i), sign(par[i] * (par[j] + par[k]))),
                          ((k, i, j), sign(par[k] * (par[i] + par[j])))):
                for t, c in cells.get(at, ()):
                    acc[t] += s * c
            yield (i, j, k), acc
    return _orbit_witnesses("triple-jacobi", space, sums(), (partial(_rotated, par),))


# the pseudo-derivation rules.  A degree-r pair (P, a) derives the ternary
# product (the triple rule) and, with its companion, the binary one (the
# product rule).  Each rule yields (at, terms, w) for the basis tuples `at`
# some term can reach; the defect RHS - LHS there is the sum of
# s * x[slot] through view over the three (slot, view, s) in terms, plus w
# through the pair's w view, where x[m] is P e_m for m < n and x[n] is a,
# all sparse.


def _triple_rule(par, r, ts):
    # [P e_i, e_j, e_k] +- [e_i, P e_j, e_k] +- [e_i, e_j, P e_k] - P[e_i, e_j, e_k]
    E, first, mid, sg = ts.entries, ts.first, ts.mid, (1, sign(r))
    for at in ts.reach:
        i, j, k = at
        yield at, ((i, first[j][k], 1), (j, mid[i][k], sg[par[i]]),
                   (k, E[i][j], sg[par[i] ^ par[j]])), E[i][j][k]


def _product_rule(par, r, bs, ts):
    # [P e_i, e_j] +- [e_i, P e_j] +- [e_i, e_j, a] + a.(e_i e_j) - P(e_i e_j)
    n, Eb, col, Et, sg = len(par), bs.entries, bs.col, ts.entries, (1, sign(r))
    for i in range(n):
        for j in range(n):
            yield (i, j), ((i, col[j], 1), (j, Eb[i], sg[par[i]]),
                           (n, Et[i][j], sg[par[i] ^ par[j]])), Eb[i][j]


# each rule with check_pseudo's name for it and the structures it takes after r
_RULES = (("derives-triple", _triple_rule, ("ternary",)),
          ("derives-product", _product_rule, ("binary", "ternary")))


def _w_terms(m, unit, structures):
    """The w view at e_m as (slot, view, s) terms: -P e_m, plus [a, e_m] for
    the rule that reads the binary product, through which a acts."""
    if len(structures) == 1:
        return ((m, unit, -1),)
    return ((m, unit, -1), (len(unit), structures[0].col[m], 1))


def _w_view(x, structures):
    """The w view of the pair x, folded: view[m] sums the w terms at e_m."""
    n = len(x) - 1
    unit, view = _unit(n), [[0] * n for _ in range(n)]
    for m, acc in enumerate(view):
        for slot, rows, s in _w_terms(m, unit, structures):
            _into(acc, x[slot], rows, s)
    return [_sparse(acc) for acc in view]


def _rule_defects(space, rule, structures, pairs):
    """The nonzero defects of one rule on each (key, r, x) of pairs, a
    degree-r pair with x as above: (key + at, acc) in order, acc dense.
    The tuples are listed once per degree, the w view folded once per pair."""
    n, listed = space.dim, {}
    for key, r, x in pairs:
        if not any(x):
            continue    # a zero pair derives everything
        if r not in listed:
            listed[r] = list(rule(space.parities, r, *structures))
        view = _w_view(x, structures)
        for at, ((i, vi, si), (j, vj, sj), (k, vk, sk)), w in listed[r]:
            xi, xj, xk = x[i], x[j], x[k]
            if not (w or xi or xj or xk):
                continue    # no term reaches the pair
            acc = _into([0] * n, w, view)
            if xi:
                _into(acc, xi, vi, si)
            if xj:
                _into(acc, xj, vj, sj)
            if xk:
                _into(acc, xk, vk, sk)
            if any(acc):
                yield key + at, acc


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


def _kept(items, mirror):
    """The items (basis tuple first) with its first two indices in order, if mirror."""
    return (x for x in items if x[0][0] <= x[0][1]) if mirror else items


def _derives(rule, structures):
    """Whether the rule is the triple rule on a table whose skew and ternary Jacobi
    sweeps find nothing: then its derived tuples follow from the rest."""
    return rule is _triple_rule and _all_skew(structures) and not structures[0]._jacobi_witnesses


def _swept(A, reads):
    """A's lifted structures named in reads, the tables check_axioms sweeps: their
    skew and ternary Jacobi verdicts hold for A's own, which they scale by L or L^2."""
    return tuple(A._lifted[1][what] for what in reads)


def _listed(rule, par, r, *structures, swept=()):
    """The rule's (at, terms, w) that a sweep or solver evaluates: the kept ones, of
    them only u < v, u <= w where the triple rule's derived tuples follow, by the
    verdicts of the swept tables (by default the structures)."""
    swept = swept or structures
    if _derives(rule, swept):
        return (x for x in rule(par, r, *structures) if x[0][0] < x[0][1] and x[0][0] <= x[0][2])
    return _kept(rule(par, r, *structures), _all_skew(swept))


def _with_derived(par, defects):
    """The triple rule's defects (key + at, acc), then per pair those at each derived
    tuple with a nonzero partner, solved from the relation above for F(u,v,w),
    each partner read from its kept form ((a, a, a) has none: it is 0)."""
    for key, group in itertools.groupby(defects, lambda d: d[0][:2]):
        found = {at[2:]: acc for at, acc in group}
        yield from ((key + at, acc) for at, acc in found.items())
        # the derived tuples whose partners (w, u, v) and (v, w, u) or (w, v, u) are found
        for u, v, w in {c for b in found for c in (b[1:] + b[:1], b[2:] + b[:2], b[::-1])
                        if c[0] == c[1] or c[2] < c[0] < c[1]}:
            acc = [0] * len(par)
            for b, s in (((v, w, u), -sign(par[u] * (par[v] + par[w]))),
                         ((w, u, v), -sign(par[w] * (par[u] + par[v])))):
                b, t = (b, 1) if b[0] <= b[1] else _swapped(0, par, b)
                for m, c in enumerate(found.get(b, ())):
                    acc[m] += s * t * c
            yield key + (u, v, w), acc


def _inner_witnesses(axiom, rule, space, *structures):
    # the rule on every inner pair, mirrored in (i, j) and (u, v) once the
    # structures it reads are super skew, the triple rule derived as above
    par, mirror = space.parities, _all_skew(structures)
    defects = _rule_defects(space, partial(_listed, rule), structures,
                            _kept(_inner_pairs(space, *structures), mirror))
    if _derives(rule, structures):
        defects = _with_derived(par, defects)
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
    "nambu": (partial(_inner_witnesses, "nambu", _triple_rule), ("ternary",), 4),
    "product-rule": (partial(_inner_witnesses, "product-rule", _product_rule),
                     ("binary", "ternary"), 3),
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
    L = 1 keeps the structures themselves."""
    structures = {"binary": A.binary, "ternary": A.ternary}
    cells = {what: {} if st is None else st.cells() for what, st in structures.items()}
    L = math.lcm(*(c.denominator for part in cells.values() for entry in part.values()
                   for _, c in entry))
    if L == 1:
        return 1, structures
    return L, {what: None if st is None else type(st)._of(A.space, {
        at: tuple((t, c.numerator * (f // c.denominator)) for t, c in entry)
        for at, entry in cells[what].items()})
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
    _structures(A, [what for what in ("binary", "ternary")
                    if any(what in _SWEEPS[axiom][1] for axiom in _SYSTEMS[kind])])
    L, lifted = A._lifted
    witnesses = []
    for axiom in _SYSTEMS[kind]:
        sweep, reads, weight = _SWEEPS[axiom]
        found = sweep(A.space, *(lifted[what] for what in reads))
        if L == 1:
            witnesses += found
        else:
            scale = L ** weight
            witnesses += (Witness(w.axiom, w.at, SuperVector(A.space, tuple(
                _quotient(c, scale) for c in w.defect.coords))) for w in found)
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

    Every slot is imposed directly; for well-formed algebras the extra
    slots are redundant but harmless.  Works with whichever structures
    are present.
    """
    n = A.space.dim
    # row views with x in the free slot: view[m] is the product with e_m there
    views = []
    if A.binary is not None:
        for j in range(n):
            views += (A.binary.col[j], A.binary.entries[j])
    if A.ternary is not None:
        ts = A.ternary
        for j, k in itertools.product(range(n), repeat=2):
            views += (ts.first[j][k], ts.mid[j][k], ts.entries[j][k])
    # one equation per output coordinate t: the e_t coordinates of the view
    return _null_space(A.space, [row for view in views if any(view)
                                 for row in _transposed(view, n)])


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
    """
    if f.degree != 0:
        raise GradingError("a morphism must be even")
    if f.space != A.space:
        raise GradingError("f is not defined on A's space")
    if A.space.parities != B.space.parities:
        raise GradingError("A and B have different parity signatures")
    if (A.binary is None) != (B.binary is None) or (A.ternary is None) != (B.ternary is None):
        raise StructureError("A and B carry different structure kinds")

    n = A.space.dim
    lab = A.space.labels
    fcol = f.columns
    witnesses = []
    if A.binary is not None:
        EA = A.binary.entries
        # [f e_i, e_m] for every i, m; then [f e_i, f e_j] - f(e_i e_j)
        fe_b = [[_sparse(_into([0] * n, fcol[i], B.binary.col[m])) for m in range(n)]
                for i in range(n)]
        for i in range(n):
            for j in range(n):
                acc = _into(_into([0] * n, fcol[j], fe_b[i]), EA[i][j], fcol, -1)
                if any(acc):
                    witnesses.append(Witness("binary-hom", (lab[i], lab[j]),
                                             _vector(B.space, acc)))
    if A.ternary is not None:
        EA, EB = A.ternary.entries, B.ternary.entries
        # push one slot at a time, last to first:
        # b_b_f[a][k][m] = [e_a, e_m, f e_k], b_f_f[j][k][a] = [e_a, f e_j, f e_k]
        b_b_f = [[[_sparse(_into([0] * n, fcol[k], EB[a][m])) for m in range(n)]
                  for k in range(n)] for a in range(n)]
        b_f_f = [[[_sparse(_into([0] * n, fcol[j], b_b_f[a][k])) for a in range(n)]
                  for k in range(n)] for j in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = _into(_into([0] * n, fcol[i], b_f_f[j][k]), EA[i][j][k], fcol, -1)
                    if any(acc):
                        witnesses.append(Witness("ternary-hom", (lab[i], lab[j], lab[k]),
                                                 _vector(B.space, acc)))
    return CheckReport("%s -> %s" % (A.name, B.name), "morphism", not witnesses, tuple(witnesses))
