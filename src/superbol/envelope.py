"""Pseudo superderivation pairs and enveloping Lie superalgebras.

A pair (P, a) consists of a homogeneous operator and a companion vector
of the same degree.  Pairs flatten to coordinate vectors of length
dim^2 + dim (operator entries row-major, then companion coordinates),
which is the representation used for spans and membership tests.  The
triple rule and the product rule that define the pseudo superderivation
pairs are written once, in `structures`: check_pseudo runs them through
the Bol checker's evaluator, companion_space and ps_space solve them.
The inner pairs of the basis are read off the tables, as the Bol checker
reads them (`structures._inner_pairs`); inner_pair is for any two vectors.

The enveloping algebra of a Bol algebra B over a pair space H >= IPS(B)
is B + H with

    [x, y]        = (D_{x,y}, x.y)   expressed in H's basis,
    [(P,a), x]    = P(x),
    [x, (P,a)]    = -(-1)^{deg(P) par(x)} P(x),
    [(P,a),(Q,b)] = ([P,Q], P(b) - (-1)^{deg P deg Q} Q(a) - a.b).

The last block is the bracket coordinates a PairSpace keeps from its
closure check, which brackets the basis pairs on one sparse kernel.  A
super skew binary product (b.a = -(-1)^{pq} a.b) makes the bracket super
skew, [q, p] = -(-1)^{pq} [p, q]: when the product's skew sweep finds
nothing, only p <= q is bracketed and the rest are those exact multiples.
Every constructed enveloping algebra is re-checked against the Lie
axioms; violations raise instead of producing a bad algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .graded import (GradedMap, GradingError, SuperSpace, SuperVector, _dense, _exact,
                     _into, _sparse, _transposed, _unit, _vector, rat, sign)
from .linalg import (AffineSubspace, _span_coordinates, nullspace, rref,
                     solve_affine, span_reduce)
from .structures import (_RULES, AlgebraDef, BinaryStructure, CheckReport,
                         StructureError, Witness, _inner_pairs, _rule_defects, _skew,
                         _structures, _w_terms, _w_view, require_axioms)


class EnvelopeError(RuntimeError):
    """Internal consistency failure while building an enveloping algebra."""


@dataclass(frozen=True)
class PseudoDerivationPair:
    """Operator plus companion; the degree is the operator's degree."""

    operator: GradedMap
    companion: SuperVector

    def __post_init__(self):
        if self.companion.space != self.operator.space:
            raise GradingError("companion lives in a different space")
        if self.companion.parity_or(self.degree) != self.degree:
            raise GradingError("companion parity differs from operator degree")

    @property
    def space(self):
        return self.operator.space

    @property
    def degree(self):
        return self.operator.degree

    def flatten(self):
        n = self.space.dim
        return _dense(self._entries(), n * n + n)

    def _entries(self):
        """The nonzero (index, coefficient) pairs of flatten()."""
        n = self.space.dim
        out = [(t * n + m, c) for m, col in enumerate(self.operator.columns) for t, c in col]
        out += ((n * n + m, c) for m, c in _sparse(self.companion.coords))
        return out

    @classmethod
    def from_flat(cls, space, coords):
        n = space.dim
        if len(coords) != n * n + n:
            raise GradingError("flattened pair must have length %d" % (n * n + n))
        par = space.parities
        rows = [_exact(coords[i * n:(i + 1) * n]) for i in range(n)]
        degrees = {(par[i] + par[j]) % 2 for i, row in enumerate(rows) for j, _ in row}
        degrees |= {par[m] for m, _ in _sparse(coords[n * n:])}
        if len(degrees) > 1:
            raise GradingError("flattened pair mixes degrees")
        degree = degrees.pop() if degrees else 0
        return cls(GradedMap._of(space, degree, _transposed(rows, n)),
                   space.vector(coords[n * n:]))

    def __str__(self):
        return "(%s, %s)" % (self._op_str(), self.companion)

    def _op_str(self):
        n = self.space.dim
        parts = ["%s->%s" % (label, SuperVector(self.space, _dense(col, n)))
                 for label, col in zip(self.space.labels, self.operator.columns) if col]
        return "{" + ", ".join(parts) + "}" if parts else "0"


def inner_pair(B, x, y):
    """(D_{x,y}, x.y) where D_{x,y}(z) = [x,y,z]."""
    if x.space != B.space or y.space != B.space:
        raise GradingError("arguments live outside the algebra")
    deg = (x.parity_or(0) + y.parity_or(0)) % 2
    bs, ts = _structures(B, ("binary", "ternary"))
    # column m is D_{x,y}(e_m): y through the middle-slot view of each x_a e_a
    n, mid, xs, ys = B.space.dim, ts.mid, _sparse(x.coords), _sparse(y.coords)
    cols = []
    for m in range(n):
        acc = [0] * n
        for a, c in xs:
            _into(acc, ys, mid[a][m], c)
        cols.append(_exact(acc))
    return PseudoDerivationPair(GradedMap._of(B.space, deg, tuple(cols)), bs.eval(x, y))


def _basis_inner_pairs(B):
    """((i, j), inner_pair(B, e_i, e_j)) for every (i, j) in order, read off the tables."""
    for at, degree, x in _inner_pairs(B.space, *_structures(B, ("binary", "ternary"))):
        yield at, PseudoDerivationPair(GradedMap._of(B.space, degree, x[:-1]),
                                       SuperVector(B.space, _dense(x[-1], B.space.dim)))


def _bracket_entries(n, E, p, q):
    """The _entries() of pair_bracket(p, q) over the binary entries E, read off
    the sparse columns and companions: column m of [P, Q] is
    P(Q e_m) - (-1)^{pq} Q(P e_m), the companion P(b) - (-1)^{pq} Q(a) - a.b."""
    (P, a), (Q, b) = [(x.operator.columns, _sparse(x.companion.coords)) for x in (p, q)]
    s, out = sign(p.degree * q.degree), []
    for m in range(n):
        if P[m] or Q[m]:
            col = _into(_into([0] * n, Q[m], P), P[m], Q, -s)
            out += ((k * n + m, c) for k, c in enumerate(col) if c)
    comp = _into(_into([0] * n, b, P), a, Q, -s)
    for m, c in a:
        _into(comp, b, E[m], -c)
    return out + [(n * n + k, c) for k, c in enumerate(comp) if c]


def pair_bracket(B, p, q):
    """([P,Q], P(b) - (-1)^{pq} Q(a) - a.b) for pairs p=(P,a), q=(Q,b)."""
    if p.space != B.space or q.space != B.space:
        raise GradingError("pair lives outside the algebra")
    n, (bs,) = B.space.dim, _structures(B, ("binary",))
    flat = _dense(_bracket_entries(n, bs.entries, p, q), n * n + n)
    rows = [_exact(flat[t * n:(t + 1) * n]) for t in range(n)]
    return PseudoDerivationPair(GradedMap._of(B.space, (p.degree + q.degree) % 2,
                                              _transposed(rows, n)), B.space.vector(flat[n * n:]))


def _equations(B, r, x, cells):
    """The rules for degree r as the rows (*coefficients, b) of a linear system.

    Unknown u is the e_m coordinate of x[slot] for (slot, m) = cells[u];
    x[slot] holds the known coordinates, sparse, with x as in the rules of
    `structures`; an entry (q, c) of w brings c times the w terms at e_q.
    One equation per rule tuple and coordinate, without 0 = 0 or repeats;
    the rows stop after an equation 0 = b, b nonzero, with no solution.
    """
    n, par, unit, width = B.space.dim, B.space.parities, _unit(B.space.dim), len(cells)
    var = [[(m, u) for u, (s, m) in enumerate(cells) if s == slot] for slot in range(n + 1)]
    seen = set()
    # both rules' structures first: a missing one raises before any row
    for rule, structures in [(rule, _structures(B, reads)) for _, rule, reads in _RULES]:
        # the w view's known part, and per e_q the (t, u, coefficient) of its unknowns
        view = _w_view(x, structures)
        w_var = [[(t, u, s * d) for slot, rows, s in _w_terms(q, unit, structures)
                  for m, u in var[slot] for t, d in rows[m]] for q in range(n)]
        for _, terms, w in rule(par, r, *structures):
            # b: minus the known part of the rule
            b, by_t = _into([0] * n, w, view, -1), {}
            for slot, rows, s in terms:
                _into(b, x[slot], rows, -s)
                for m, u in var[slot]:
                    for t, d in rows[m]:
                        by_t.setdefault(t, [0] * width)[u] += s * d
            for q, c in w:
                for t, u, d in w_var[q]:
                    by_t.setdefault(t, [0] * width)[u] += c * d
            if not by_t and not any(b):
                continue
            for t in range(n):
                row = (*by_t.get(t, [0] * width), b[t])
                if any(row) and row not in seen:
                    seen.add(row)
                    yield row
                    if not any(row[:-1]):
                        return


def _flatten(values, cells, n):
    """The flattened pair holding values at the cells (as in _equations), 0 elsewhere."""
    out = [0] * (n * n + n)
    for (slot, m), v in zip(cells, values):
        out[m * n + slot if slot < n else n * n + m] = v
    return tuple(out)


def check_pseudo(B, pair):
    """Pointwise verification that the pair derives both products.

    derives-triple is the Leibniz-type rule on the ternary bracket
    (companion-free); derives-product is the rule on the binary product
    involving the companion.  Defects are RHS - LHS.
    """
    if pair.space != B.space:
        raise GradingError("pair lives outside the algebra")
    lab = B.space.labels
    x = pair.operator.columns + (_sparse(pair.companion.coords),)
    witnesses = [Witness(axiom, tuple(lab[i] for i in at), _vector(B.space, acc))
                 for axiom, rule, reads in _RULES for at, acc in _rule_defects(
                     B.space, rule, _structures(B, reads), [((), pair.degree, x)])]
    subject = "pair of degree %d on %s" % (pair.degree, B.name)
    return CheckReport(subject, "pseudo", not witnesses, tuple(witnesses))


def companion_space(B, P):
    """All companions a making (P, a) a pseudo superderivation pair.

    Returns the exact affine solution set of the product rule, which is
    empty when P fails the (companion-free) triple rule.  Coordinates
    are over B's basis.
    """
    if P.space != B.space:
        raise GradingError("operator lives outside the algebra")
    n = B.space.dim
    # the unknowns: the companion coordinates of P's degree
    cells = [(n, m) for m in range(n) if B.space.parities[m] == P.degree]
    # with no equation at all, every companion of the right parity solves
    aug = list(_equations(B, P.degree, P.columns + ((),), cells)) or [(0,) * (len(cells) + 1)]
    solution = solve_affine([row[:-1] for row in aug], [row[-1] for row in aug])
    if solution.is_empty:
        return solution
    # the cells are in coordinate order, so the directions stay reduced
    return AffineSubspace(_flatten(solution.point, cells, n)[n * n:],
                          tuple(_flatten(d, cells, n)[n * n:] for d in solution.directions),
                          tuple(cells[p][1] for p in solution.pivots))


@dataclass(frozen=True)
class PairSpace:
    """Span of pseudo superderivation pairs, closed under pair_bracket.

    `basis` holds homogeneous pairs recovered from the reduced flattened
    rows (leading columns in pivots), so equality of PairSpaces is equality
    of spans.  brackets[m][l] holds the coordinates of
    pair_bracket(basis[m], basis[l]) over the basis, computed once to
    verify closure.
    """

    algebra: AlgebraDef
    basis: tuple
    rows: tuple
    pivots: tuple = field(compare=False, repr=False)
    brackets: tuple = field(compare=False, repr=False)

    @classmethod
    def from_pairs(cls, algebra, pairs):
        for p in pairs:
            if p.space != algebra.space:
                raise GradingError("pair lives outside the algebra")
        # a zero pair spans nothing
        reduced, pivots = rref([p.flatten() for p in pairs if p._entries()])
        basis = tuple(PseudoDerivationPair.from_flat(algebra.space, row) for row in reduced)
        sparse_rows, n, d = tuple(map(_sparse, reduced)), algebra.space.dim, len(basis)
        E = _structures(algebra, ("binary",))[0].entries if basis else None
        # once the product is super skew, so is the bracket: [q, p] = -(-1)^{pq} [p, q]
        mirror = basis and not any(_skew(None, algebra.space, algebra.binary))
        brackets = [[None] * d for _ in range(d)]
        for m, l in itertools.product(range(d), repeat=2):
            p, q = basis[m], basis[l]
            if mirror and l < m:
                brackets[m][l] = tuple(-sign(p.degree * q.degree) * c for c in brackets[l][m])
                continue
            brackets[m][l] = _span_coordinates(sparse_rows, pivots, _bracket_entries(n, E, p, q))
            if brackets[m][l] is None:
                raise EnvelopeError(
                    "span of pairs is not closed under the bracket: [%s, %s]" % (p, q))
        return cls(algebra, basis, reduced, tuple(pivots), tuple(map(tuple, brackets)))

    @property
    def dim(self):
        return len(self.basis)

    def degree_dims(self):
        d0 = sum(1 for p in self.basis if p.degree == 0)
        return (d0, len(self.basis) - d0)

    def contains(self, pair):
        return self.coordinates_of(pair) is not None

    def coordinates_of(self, pair):
        return _span_coordinates(self._sparse_rows, self.pivots, pair._entries())

    @cached_property
    def _sparse_rows(self):
        return tuple(map(_sparse, self.rows))

    def contains_space(self, other):
        return all(self.contains(p) for p in other.basis)


def ips_space(B, K=None):
    """Span of the inner pairs (D_{x,y}, x.y).

    With K given (a graded subspace), one leg runs over K's basis in
    both orders; the span is the same either way by skew-symmetry.
    """
    if K is None:
        return PairSpace.from_pairs(B, [p for _, p in _basis_inner_pairs(B)])
    if K.space != B.space:
        raise GradingError("K is not a subspace of B")
    if not K.is_graded():
        raise GradingError("K is not graded")
    return PairSpace.from_pairs(B, [p for x in B.space.basis() for k in K.basis
                                    for p in (inner_pair(B, x, k), inner_pair(B, k, x))])


def ps_space(B):
    """Full solution space of the two derivation rules, per degree.

    Unknowns are the operator entries the degree's block structure allows
    plus the companion coordinates of that parity; both rules are linear
    in them, so the space is an exact nullspace.  Every inner pair, and
    so ips_space(B), is verified to lie in it.
    """
    n = B.space.dim
    par = B.space.parities
    all_pairs = []
    for r in (0, 1):
        # the unknowns: the coordinates a degree-r pair may have nonzero
        cells = [(slot, m) for m in range(n) for slot in range(n)
                 if par[m] == (par[slot] + r) % 2]
        cells += [(n, m) for m in range(n) if par[m] == r]
        rows = [row[:-1] for row in _equations(B, r, ((),) * (n + 1), cells)]
        for vec in nullspace(rows, len(cells)):
            all_pairs.append(PseudoDerivationPair.from_flat(B.space, _flatten(vec, cells, n)))
    out = PairSpace.from_pairs(B, all_pairs)
    if not all(out.contains(p) for _, p in _basis_inner_pairs(B)):
        raise EnvelopeError("inner pairs escaped the pseudo derivation space")
    return out


@dataclass(frozen=True)
class EnvelopingLieSuperalgebra:
    base: AlgebraDef
    pairs: PairSpace
    lie: AlgebraDef

    @property
    def base_dim(self):
        return self.base.space.dim

    @property
    def dim(self):
        return self.lie.space.dim

    def embed_base(self, v):
        if v.space != self.base.space:
            raise GradingError("vector lives outside the base algebra")
        return SuperVector(self.lie.space, v.coords + (0,) * self.pairs.dim)


def _fresh_labels(taken, count):
    # h1, h2, ..., primed past a taken label; stripped of primes they differ
    labels = []
    for i in range(1, count + 1):
        cand = "h%d" % i
        while cand in taken:
            cand += "'"
        labels.append(cand)
    return tuple(labels)


def enveloping(B, H=None):
    """Lie superalgebra B + H for a pair space H containing the inner pairs.

    H defaults to ips_space(B) (the standard enveloping algebra); pass
    ps_space(B) for the maximal one; an inner pair outside H raises.  The
    result is re-checked against the Lie axioms.
    """
    require_axioms(B, "bol")
    if H is None:
        H = ips_space(B)
    elif H.algebra != B:
        raise GradingError("H was built over a different algebra")
    nb = B.space.dim
    parities = B.space.parities + tuple(p.degree for p in H.basis)
    labels = B.space.labels + _fresh_labels(B.space.labels, H.dim)
    space = SuperSpace(parities, labels)

    # base coordinates keep their indices, H coordinates shift by nb
    def shifted(coords):
        return tuple((nb + m, rat(c)) for m, c in enumerate(coords) if c)

    cells = {}
    for (i, j), pair in _basis_inner_pairs(B):
        coords = H.coordinates_of(pair)
        if coords is None:
            raise EnvelopeError("inner pair (%s, %s) does not lie in H"
                                % (space.labels[i], space.labels[j]))
        cells[i, j] = shifted(coords)
    for m, p in enumerate(H.basis):
        for j, col in enumerate(p.operator.columns):
            s = -sign(p.degree * B.space.parities[j])
            cells[nb + m, j] = col
            cells[j, nb + m] = tuple((t, s * c) for t, c in col)
        for l, coords in enumerate(H.brackets[m]):
            cells[nb + m, nb + l] = shifted(coords)

    lie = AlgebraDef("env(%s)" % B.name, space, binary=BinaryStructure._of(space, cells))
    require_axioms(lie, "lie")
    return EnvelopingLieSuperalgebra(B, H, lie)


def ideal_envelope(B, K, env=None):
    """Ideal K + IPS(B, K) of the standard enveloping algebra.

    K must be an ideal of B.  The bracket containment [K', L] <= K' is
    verified exactly; failure raises.
    """
    from .structures import IDEAL, classify_subspace
    if classify_subspace(B, K) != IDEAL:
        raise StructureError("K is not an ideal of %s" % B.name)
    if env is None:
        env = enveloping(B)
    vectors = [env.embed_base(v) for v in K.basis]
    for pair in ips_space(B, K).basis:
        coords = env.pairs.coordinates_of(pair)
        if coords is None:
            raise EnvelopeError("inner pair over K escaped IPS(B, B)")
        vectors.append(SuperVector(env.lie.space, (0,) * env.base_dim + coords))
    combined = span_reduce(env.lie.space, vectors)
    for kappa in combined.basis:
        for x in env.lie.space.basis():
            if not combined.contains(env.lie.product(kappa, x)):
                raise EnvelopeError("combined subspace is not an ideal of the envelope")
    return combined
