"""Pseudo superderivation pairs and enveloping Lie superalgebras.

A pair (P, a) consists of a homogeneous operator and a companion vector
of the same degree.  Spans and membership tests read its flat entries,
sparse: operator entries row-major at t n + m, then the companion at
n^2 + t.  The two rules that define the pairs are written once, in
`structures`: check_pseudo runs them through the Bol checker's
evaluator, companion_space and ps_space solve them as sparse systems.
The inner pairs of the basis are read off the tables, as the Bol checker
reads them (`structures._inner_pairs`); inner_pair is for any two vectors.

The enveloping algebra of a Bol algebra B over a pair space H >= IPS(B)
is B + H with

    [x, y]        = (D_{x,y}, x.y)   expressed in H's basis,
    [(P,a), x]    = P(x),
    [x, (P,a)]    = -(-1)^{deg(P) par(x)} P(x),
    [(P,a),(Q,b)] = ([P,Q], P(b) - (-1)^{deg P deg Q} Q(a) - a.b).

The last block is H's structure constants, which a PairSpace keeps
sparse (`brackets` is their dense view) from its closure check: that
brackets the basis pairs times a common denominator M, integral, on one
sparse kernel.  A super skew binary product makes the bracket super
skew, [q, p] = -(-1)^{pq} [p, q]: when the product's skew sweep finds
nothing, only p <= q is bracketed and the rest are those exact
multiples, as the inner pairs (e_j, e_i) with i < j are.
Every constructed enveloping algebra is re-checked against the Lie
axioms; violations raise instead of producing a bad algebra.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .graded import (GradedMap, GradingError, SuperSpace, SuperVector, _dense, _exact, _into,
                     _sparse, _unit, _vector, hidden, rat, record, sign)
from .linalg import (_affine, _common_denominator, _divided, _kernel, _rref, _span_coordinates,
                     span_reduce)
from .structures import (_RULES, AlgebraDef, BinaryStructure, CheckReport,
                         StructureError, Witness, _all_skew, _inner_pairs, _kept, _listed,
                         _rule_defects, _structures, _swept, _w_terms, require_axioms)


class EnvelopeError(RuntimeError):
    """Internal consistency failure while building an enveloping algebra."""


@record
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
        return _dense(self._entries(), self.space.dim * (self.space.dim + 1))

    def _entries(self):
        """The nonzero (index, coefficient) pairs of flatten()."""
        return _flat(self.operator.columns + (_sparse(self.companion.coords),))

    @classmethod
    def from_flat(cls, space, coords):
        n = space.dim
        if len(coords) != n * n + n:
            raise GradingError("flattened pair must have length %d" % (n * n + n))
        entries = [(k, rat(c)) for k, c in enumerate(coords) if c]
        degrees = {_degree_at(space.parities, k) for k, _ in entries}
        if len(degrees) > 1:
            raise GradingError("flattened pair mixes degrees")
        return _pair(space, degrees.pop() if degrees else 0, entries)

    def __str__(self):
        return "(%s, %s)" % (self._op_str(), self.companion)

    def _op_str(self):
        n = self.space.dim
        parts = ["%s->%s" % (label, SuperVector(self.space, _dense(col, n)))
                 for label, col in zip(self.space.labels, self.operator.columns) if col]
        return "{" + ", ".join(parts) + "}" if parts else "0"


def _flat(x):
    """The nonzero (index, coefficient) pairs of the flattened pair x = (P e_0,
    ..., a): the e_t coefficient of P e_m at t n + m, of a at n^2 + t."""
    n = len(x) - 1
    return [(t * n + m, c) for m, col in enumerate(x[:n]) for t, c in col] + [
        (n * n + t, c) for t, c in x[n]]


def _degree_at(par, k):
    """The degree of a homogeneous pair whose flat index k is nonzero."""
    n = len(par)
    return par[k // n] ^ par[k % n] if k < n * n else par[k - n * n]


def _pair(space, degree, entries):
    """The pair with these flat entries, each column's in order: _flat inverted."""
    n = space.dim
    cols, companion = [[] for _ in range(n)], [0] * n
    for k, c in entries:
        if k < n * n:
            cols[k % n].append((k // n, c))
        else:
            companion[k - n * n] = c
    return PseudoDerivationPair(GradedMap._of(space, degree, tuple(map(tuple, cols))),
                                SuperVector(space, tuple(companion)))


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
    """_inner_pairs of B, only i <= j once its tables are super skew (the rest are multiples)."""
    reads = ("binary", "ternary")
    return _kept(_inner_pairs(B.space, *_structures(B, reads)), _all_skew(_swept(B, reads)))


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
    return _pair(B.space, (p.degree + q.degree) % 2,
                 [(k, rat(c)) for k, c in _bracket_entries(n, bs.entries, p, q)])


def _equations(B, r, x, columns):
    """The rules for degree r as sparse rows (((u, c), ...), b), sorted by u:
    unknown u = columns[slot, m] is the e_m coordinate of x[slot], x as in
    `structures` holding the known ones.  One row per rule tuple and output
    coordinate, without 0 = 0 or repeats, and only for u <= v once the
    tables a rule reads are super skew: (v, u, ...) gives -(-1)^{uv} times
    the row.  Nor for the triple rule's derived tuples once ternary Jacobi
    holds too (`structures._listed`): their rows combine the kept ones.
    The rows stop after a row 0 = b, b nonzero, with no solution.
    """
    n, par, unit = B.space.dim, B.space.parities, _unit(B.space.dim)
    var = [[(m, u) for (s, m), u in columns.items() if s == slot] for slot in range(n + 1)]
    seen = set()
    # both rules' structures first: a missing one raises before any row
    for rule, reads, structures in [(rule, reads, _structures(B, reads))
                                    for _, rule, reads in _RULES]:
        for _, terms, w in _listed(rule, par, r, *structures, swept=_swept(B, reads)):
            # RHS - LHS = sum of s x[slot] through rows: b holds minus its known part
            b, by_t = [0] * n, {}
            for slot, rows, s in terms + tuple((slot, rows, s * c) for q, c in w
                                               for slot, rows, s in _w_terms(q, unit, structures)):
                _into(b, x[slot], rows, -s)
                for m, u in var[slot]:
                    for t, d in rows[m]:
                        row = by_t.setdefault(t, {})
                        row[u] = row.get(u, 0) + s * d
            if not by_t and not any(b):
                continue
            for t in range(n):
                coeffs = tuple(sorted((u, c) for u, c in by_t[t].items() if c)) if t in by_t else ()
                if (coeffs or b[t]) and (coeffs, b[t]) not in seen:
                    seen.add((coeffs, b[t]))
                    yield coeffs, b[t]
                    if not coeffs:
                        return


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
    n, par, r = B.space.dim, B.space.parities, P.degree
    # the unknowns a_m of P's degree at column m, the others zero; b at column n
    rows = [coeffs + ((n, b),) for coeffs, b in _equations(
        B, r, P.columns + ((),), {(n, m): m for m in range(n) if par[m] == r})]
    rows += [((m, 1),) for m in range(n) if par[m] != r]
    return _affine(*_rref(rows), n)


@record
class PairSpace:
    """Span of pseudo superderivation pairs, closed under pair_bracket.

    `basis` holds homogeneous pairs read off the reduced rows of their flat
    entries (leading columns in pivots), so equality of PairSpaces is
    equality of spans.  _brackets[m][l] holds the sparse coordinates of
    pair_bracket(basis[m], basis[l]) over the basis, like a structure's
    entries, computed once to verify closure; `brackets` is their dense view.
    """

    algebra: AlgebraDef
    basis: tuple
    pivots: tuple = hidden
    _brackets: tuple = hidden
    # (M, the sparse reduced rows times M, leads) from linalg._common_denominator
    _common: tuple = hidden

    @classmethod
    def from_pairs(cls, algebra, pairs):
        for p in pairs:
            if p.space != algebra.space:
                raise GradingError("pair lives outside the algebra")
        # a zero pair spans nothing
        reduced, pivots = _rref(p._entries() for p in pairs
                                if not (p.operator.is_zero() and p.companion.is_zero()))
        space, n, d = algebra.space, algebra.space.dim, len(reduced)
        basis = tuple(_pair(space, _degree_at(space.parities, row[0][0]), _divided(row))
                      for row in reduced)
        # the closure check brackets the basis pairs times M, integral: M^2 [p, q]
        common = _common_denominator(reduced)
        M, scaled = common[0], [_pair(space, p.degree, row) for p, row in zip(basis, common[1])]
        E = _structures(algebra, ("binary",))[0].entries if basis else None
        # once the product is super skew, so is the bracket: [q, p] = -(-1)^{pq} [p, q]
        mirror = basis and _all_skew(_swept(algebra, ("binary",)))
        brackets = [[None] * d for _ in range(d)]
        for m, l in itertools.product(range(d), repeat=2):
            p, q = basis[m], basis[l]
            if mirror and l < m:
                s = -sign(p.degree * q.degree)
                brackets[m][l] = tuple((k, s * c) for k, c in brackets[l][m])
                continue
            brackets[m][l] = _span_coordinates(
                common, _bracket_entries(n, E, scaled[m], scaled[l]), M * M)
            if brackets[m][l] is None:
                raise EnvelopeError(
                    "span of pairs is not closed under the bracket: [%s, %s]" % (p, q))
        return cls(algebra, basis, tuple(pivots), tuple(map(tuple, brackets)), common)

    @property
    def dim(self):
        return len(self.basis)

    def degree_dims(self):
        d0 = sum(1 for p in self.basis if p.degree == 0)
        return (d0, len(self.basis) - d0)

    def contains(self, pair):
        return self.coordinates_of(pair) is not None

    def coordinates_of(self, pair):
        if pair.space != self.algebra.space:
            raise GradingError("pair lives outside the algebra")
        coords = _span_coordinates(self._common, pair._entries())
        return None if coords is None else _dense(coords, self.dim)

    @cached_property
    def rows(self):  # the reduced rows, dense
        return tuple(p.flatten() for p in self.basis)

    @cached_property
    def brackets(self):  # _brackets, dense
        return tuple(tuple(_dense(coords, self.dim) for coords in row) for row in self._brackets)

    def contains_space(self, other):
        return all(self.contains(p) for p in other.basis)


def ips_space(B, K=None):
    """Span of the inner pairs (D_{x,y}, x.y).

    With K given (a graded subspace), one leg runs over K's basis in
    both orders; the span is the same either way by skew-symmetry.
    """
    if K is None:
        return PairSpace.from_pairs(B, [_pair(B.space, r, _flat(x))
                                        for _, r, x in _basis_inner_pairs(B) if any(x)])
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
    n, par = B.space.dim, B.space.parities
    pairs = []
    for r in (0, 1):
        # the unknowns: the flat entries k a degree-r pair may have nonzero, at column k
        columns = {(k % n, k // n) if k < n * n else (n, k - n * n): k
                   for k in range(n * n + n) if _degree_at(par, k) == r}
        if not columns:
            continue    # no unknowns, no rows: the odd degree of an all-even algebra
        equations = _equations(B, r, ((),) * (n + 1), columns)
        pairs += (_pair(B.space, r, row)
                  for row in _kernel(*_rref(coeffs for coeffs, _ in equations), columns.values())[0])
    out = PairSpace.from_pairs(B, pairs)
    if not all(_span_coordinates(out._common, _flat(x)) is not None
               for _, _, x in _basis_inner_pairs(B)):
        raise EnvelopeError("inner pairs escaped the pseudo derivation space")
    return out


@record
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
        return tuple((nb + m, c) for m, c in coords)

    # the inner pairs (e_i, e_j) with i <= j, the Bol algebra B being super skew; the rest mirrored
    cells, par = {}, B.space.parities
    for (i, j), _, x in _basis_inner_pairs(B):
        coords = _span_coordinates(H._common, _flat(x))
        if coords is None:
            raise EnvelopeError("inner pair (%s, %s) does not lie in H"
                                % (space.labels[i], space.labels[j]))
        cells[i, j] = shifted(coords)
        if i < j:
            cells[j, i] = tuple((t, -sign(par[i] * par[j]) * c) for t, c in cells[i, j])
    for m, p in enumerate(H.basis):
        for j, col in enumerate(p.operator.columns):
            s = -sign(p.degree * B.space.parities[j])
            cells[nb + m, j] = col
            cells[j, nb + m] = tuple((t, s * c) for t, c in col)
        for l, coords in enumerate(H._brackets[m]):
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
    elif env.base != B:
        raise GradingError("env was built over a different algebra")
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
