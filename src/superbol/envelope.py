"""Pseudo superderivation pairs and enveloping Lie superalgebras.

A pair (P, a) is a homogeneous operator and a companion of its degree,
held here in the rules' one form x (`rules`) and, for spans and
membership tests, as flat entries: P's row-major at t n + m, then a's at
n^2 + t.  The two rules that define the pairs are written once, in
`rules`: check_pseudo runs the integer multiple of its pair through
the Bol checker's evaluator, and companion_space and ps_space read their
rows from it (`_pair_rows`), each unknown packed straight into its digit
of one pair W bits apart (`_unflat`), companion_space's known operator at
the last, all on the lifted tables, B in the basis L e_i, each operator
term times L.  The inner pairs of the basis are read off the tables
(`_basis_inner_pairs`); inner_pair is for any two vectors.

The enveloping algebra of a Bol algebra B over a pair space H >= IPS(B)
is B + H with

    [x, y]        = (D_{x,y}, x.y)   expressed in H's basis,
    [(P,a), x]    = P(x),
    [x, (P,a)]    = -(-1)^{deg(P) par(x)} P(x),
    [(P,a),(Q,b)] = ([P,Q], P(b) - (-1)^{deg P deg Q} Q(a) - a.b).

The last block is H's structure constants, which a PairSpace reads off
its closure check, on ints, when first asked: each basis pair p times its lead,
lifted as the rules read it, is bracketed with all its partners q of one
degree at once, packed W bits apart, and one residue tests them all.  A
super skew binary product makes the bracket super skew, [q, p] =
-(-1)^{pq} [p, q]: when its skew sweep finds nothing, only q >= p are
packed, and only the nonzero ones kept.  The envelope's table lists [x, y] for x <= y in B,
[(P, a), x] and those brackets, and one `structures._mirrored` call
completes it; the dense view `brackets` is completed by the same routine.
Every constructed enveloping algebra is re-checked against the Lie
axioms; violations raise instead of producing a bad algebra.
"""

from __future__ import annotations

import math
from functools import cached_property

from .graded import (GradedMap, GradingError, SuperSpace, SuperVector, _dense, _into,
                     _quotient, _sparse, hidden, rat, record, sign)
from .linalg import (AffineSubspace, _Span, _affine, _by_lead, _in_span, _kernel, _reduced,
                     _rref, _span_coordinates, span_reduce)
from .rules import _RULES, _evaluate, _pair_rows, _width
from .structures import (IDEAL, AlgebraDef, BinaryStructure, CheckReport, StructureError,
                         Witness, _all_skew, _digits, _mirrored, _structures, _swept,
                         classify_subspace, require_axioms)


class EnvelopeError(ValueError):
    """Consistency failure while building an enveloping algebra: a ValueError,
    as every fault of the input is."""


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

    def _entries(self):  # the nonzero (index, coefficient) pairs of flatten()
        return _flat(self._x())

    def _x(self):  # the pair as the rules read it: x[m] = P e_m, x[n] = a, sparse
        return self.operator.columns + (_sparse(self.companion.coords),)

    @classmethod
    def from_flat(cls, space, coords):
        n = space.dim
        if len(coords) != n * n + n:
            raise GradingError("flattened pair must have length %d" % (n * n + n))
        entries = [(k, rat(c)) for k, c in enumerate(coords) if c]
        degrees = {_degree_at(space.parities, k) for k, _ in entries}
        if len(degrees) > 1:
            raise GradingError("flattened pair mixes degrees")
        return _pair(space, degrees.pop() if degrees else 0, _unflat(n, entries))

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


def _unflat(n, entries):
    """The x with these flat entries, each column's in order: _flat inverted."""
    x = [[] for _ in range(n + 1)]
    for k, c in entries:
        t, m = divmod(k, n)     # k = t n + m: P e_m's e_t coefficient, or a's e_m one at t = n
        slot, i = (m, t) if t < n else (n, m)
        x[slot].append((i, c))
    return tuple(map(tuple, x))


def _pair(space, degree, x):
    """The pair of this degree read as the rules read it, x = (P e_0, ..., a)."""
    return PseudoDerivationPair(GradedMap._of(space, degree, x[:-1]),
                                SuperVector(space, _dense(x[-1], space.dim)))


def inner_pair(B, x, y):
    """(D_{x,y}, x.y) where D_{x,y}(z) = [x,y,z]."""
    if x.space != B.space or y.space != B.space:
        raise GradingError("arguments live outside the algebra")
    deg = (x.parity_or(0) + y.parity_or(0)) % 2
    bs, ts = _structures(B, ("binary", "ternary"))
    return PseudoDerivationPair(GradedMap.from_columns(B.space, deg, [
        ts.eval(x, y, z).coords for z in B.space.basis()]), bs.eval(x, y))


def _basis_inner_pairs(B):
    """((i, j), degree, x) per inner pair (D_{i,j}, e_i.e_j) of basis vectors in (i, j) order, i <= j
    once B's tables are super skew (the rest are multiples): x[m] = [e_i, e_j, e_m], x[n] = e_i.e_j."""
    reads, n, par = ("binary", "ternary"), B.space.dim, B.space.parities
    (bs, ts), mirror = _structures(B, reads), _all_skew(_swept(B, reads))
    return (((i, j), par[i] ^ par[j], ts.entries[i][j] + (bs.entries[i][j],))
            for i in range(n) for j in range(i if mirror else 0, n))


def _bracket_entries(n, E, x, y, s):
    """The _entries() of pair_bracket(p, q) over the binary entries E, read off
    p = (P, a) and q = (Q, b) as x and y, with s = (-1)^{pq}: column m of
    [P, Q] is P(Q e_m) - s Q(P e_m), the companion P(b) - s Q(a) - a.b."""
    (P, a), (Q, b), out = (x, x[n]), (y, y[n]), []
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
    entries = _bracket_entries(n, bs.entries, p._x(), q._x(), sign(p.degree * q.degree))
    return _pair(B.space, (p.degree + q.degree) % 2, _unflat(n, [(k, rat(c)) for k, c in entries]))


def check_pseudo(B, pair):
    """Pointwise verification that the pair derives both products.

    derives-triple is the Leibniz-type rule on the ternary bracket
    (companion-free); derives-product is the rule on the binary product
    involving the companion.  Defects are RHS - LHS.  Both run on B's lifted
    tables on the pair times D, the lcm of its denominators, its operator terms
    times L: each defect is D L^3 (triple rule) or D L^2 times the true one.
    """
    if pair.space != B.space:
        raise GradingError("pair lives outside the algebra")
    lab, L, x = B.space.labels, B._lifted[0], pair._x()
    D = math.lcm(*(c.denominator for row in x for _, c in row))
    x = tuple(tuple((t, int(D * s * c)) for t, c in row) for row, s in zip(x, [L] * len(lab) + [1]))
    witnesses = [Witness(axiom, tuple(lab[i] for i in at), SuperVector(B.space, tuple(
                     _quotient(c, D * L ** w) if c else 0 for c in acc)))
                 for (axiom, reads), w in zip(_RULES, (3, 2)) for at, acc in _evaluate(
                     B.space, _swept(B, reads), pair.degree, x, (-math.inf,) * 2)]
    subject = "pair of degree %d on %s" % (pair.degree, B.name)
    return CheckReport(subject, "pseudo", not witnesses, tuple(witnesses))


def companion_space(B, P):
    """All companions a making (P, a) a pseudo superderivation pair.

    Returns the exact affine solution set of both rules, empty when P
    fails the (companion-free) triple rule: its rows come first, and the
    first is then 0 = b.  Coordinates are over B's basis.
    """
    if P.space != B.space:
        raise GradingError("operator lives outside the algebra")
    n, par, r, L = B.space.dim, B.space.parities, P.degree, B._lifted[0]
    # the unknowns a_m of P's degree, the b-th at column units[b] and digit b, then b from -P
    # (operator terms times L) at column n and the last digit, all times D, the lcm of P's
    # denominators: packed straight into one pair, W from its largest row, D or one of D L P
    D, units = math.lcm(*(c.denominator for col in P.columns for _, c in col)), [
        m for m in range(n) if par[m] == r]
    x1 = max([D] * bool(units) + [int(D * L * sum(abs(c) for _, c in col)) for col in P.columns],
             default=0)
    W = _width(x1, _swept(B, ("binary", "ternary")))
    x = _unflat(n, [(n * n + m, D << W * b) for b, m in enumerate(units)] + [
        (k, -L * int(D * c) << W * len(units)) for k, c in _flat(P.columns + ((),))])
    rows = []
    for row in _pair_rows(B, r, units + [n], x, W):
        if row[0][0] == n:
            return AffineSubspace.empty()   # 0 = b, b nonzero: no companion
        rows.append(row)
    rows += [((m, 1),) for m in range(n) if par[m] != r]
    return _affine(*_rref(rows, n + 1), n)


@record
class PairSpace(_Span):
    """Span of pseudo superderivation pairs, closed under pair_bracket.

    `basis` holds homogeneous pairs read off the reduced rows of their flat
    entries (leading columns in pivots), so equality of PairSpaces is
    equality of spans.  _brackets[m, l], read off _packs at its first use, holds the sparse
    coordinates of pair_bracket(basis[m], basis[l]) where `_closed` brackets: the nonzero
    l >= m once the product is super skew, else all, () if zero; `brackets` completes them.
    """

    algebra: AlgebraDef
    basis: tuple
    pivots: tuple = hidden
    # W, L, leads, every, mirror and per (m, r) the (i, int) of a packed bracket: see _closed
    _packs: tuple = hidden
    # the integer rows of the basis by lead, and each lead's index, from linalg._by_lead
    _common: tuple = hidden

    @classmethod
    def from_pairs(cls, algebra, pairs):
        if any(p.space != algebra.space for p in pairs):
            raise GradingError("pair lives outside the algebra")
        return cls._closed(algebra, _rref(p._entries() for p in pairs)[0])

    @classmethod
    def _closed(cls, algebra, reduced):
        """The PairSpace of _rref's integer rows, each lead_m times a basis pair p_m, closed
        on ints as above: a packed bracket, its operator part divided by L, has the digits
        L lead_m lead_l [p_m, p_l], and its ints at the pivot columns give the coordinates."""
        space, n, d, kept = algebra.space, algebra.space.dim, len(reduced), []
        pivots, leads = tuple(row[0][0] for row in reduced), [row[0][1] for row in reduced]
        degrees, common = [_degree_at(space.parities, p) for p in pivots], _by_lead(reduced)
        xs = [_unflat(n, row) for row in reduced]    # each lead_m p_m, then lifted as below
        basis = tuple(_pair(space, r, tuple(tuple((i, _quotient(c, q)) for i, c in col)
                                            for col in x)) for r, q, x in zip(degrees, leads, xs))
        if basis:
            (st,), L, nn = _swept(algebra, ("binary",)), algebra._lifted[0], n * n
            xs = [tuple(tuple((i, c * L) for i, c in col) for col in x[:n]) + x[n:] for x in xs]
            # 2^(W-1) > M X (1 + d R) > a residue's digits, X > a bracket's: M the lcm of the
            # leads and R the largest |entry| of a row, met by the residue's d pivot rows
            x1, R = (max(f(abs(c) for _, c in row) for row in reduced) for f in (sum, max))
            X = x1 * x1 * (2 + st._magnitudes[0]) * L * L
            W = (math.lcm(*leads) * X * (1 + d * R)).bit_length() + 1

            def bracketed(m, y, r):  # p_m with the pack y of partners of degree r
                return {k: c // L if k < nn else c for k, c in _bracket_entries(
                    n, st.entries, xs[m], y, sign(degrees[m] * r))}

            def close(m):  # p_m with each degree's packed partners: its ints at the pivots
                for r, y in enumerate(views):
                    cells = bracketed(m, y, r) if top[r] else {}
                    if _reduced(cells, common[0]):  # the first escaping [p_m, p_l], each alone
                        m, l = next((m, l) for m in range(d) for l in range(m if mirror else 0, d)
                                    if _reduced(bracketed(m, xs[l], degrees[l]), common[0]))
                        raise EnvelopeError("span of pairs is not closed under the bracket: "
                                            "[%s, %s]" % (basis[m], basis[l]))
                    kept.append((m, r, [(i, cells[p]) for i, p in enumerate(pivots) if p in cells]))
            # degree r's pairs every[r], each added to its pack from the last down at digit top[r]
            every, top = [[l for l, s in enumerate(degrees) if s == r] for r in (0, 1)], [0, 0]
            mirror, packs = _all_skew((st,)), [[{} for _ in xs[0]] for _ in every]
            views = [[slot.items() for slot in pack] for pack in packs]    # live, never copied
            for l, r in reversed(list(enumerate(degrees))):
                for slot, col in zip(packs[r], xs[l]):
                    slot.update((i, slot.get(i, 0) + (c << W * top[r])) for i, c in col)
                top[r] += 1
                if mirror:
                    close(l)    # with its partners l' >= l
            for m in () if mirror else range(d):
                close(m)
        return cls(algebra, basis, pivots, kept and (W, L, leads, every, mirror, kept), common)

    def degree_dims(self):
        d0 = sum(1 for p in self.basis if p.degree == 0)
        return (d0, len(self.basis) - d0)

    def _entries(self, pair):
        if pair.space != self.algebra.space:
            raise GradingError("pair lives outside the algebra")
        return pair._entries()

    @cached_property
    def rows(self):  # the reduced rows, dense
        return tuple(p.flatten() for p in self.basis)

    @cached_property
    def _brackets(self):  # read once off _packs, then let go: digit b of (m, r) is every[r][~b]
        out, (W, L, leads, every, mirror, kept) = {}, self._packs or (0, 1, (), (), True, ())
        for m, r, cells in kept:
            out.update(() if mirror else (((m, l), []) for l in every[r]))
            for i, v in cells:
                for l, c in ((every[r][~b], c) for b, c in _digits(v, W)):
                    out.setdefault((m, l), []).append((i, _quotient(c, L * leads[m] * leads[l])))
        vars(self)["_packs"] = None
        return {ml: tuple(coords) for ml, coords in out.items()}

    @cached_property
    def brackets(self):  # _brackets completed by super skew-symmetry, dense
        full, d = _mirrored([p.degree for p in self.basis], self._brackets), self.dim
        return tuple(tuple(_dense(full.get((m, l), ()), d) for l in range(d)) for m in range(d))

    def contains_space(self, other):
        return all(self.contains(p) for p in other.basis)


def ips_space(B, K=None):
    """Span of the inner pairs (D_{x,y}, x.y).

    With K given (a graded subspace), one leg runs over K's basis in
    both orders; the span is the same either way by skew-symmetry.
    """
    if K is None:
        rows = (_flat(x) for _, _, x in _basis_inner_pairs(B) if any(x))
        return PairSpace._closed(B, _rref(rows)[0])
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
    n, par, L, rows = B.space.dim, B.space.parities, B._lifted[0], []
    for r in (0, 1):
        # the unknowns: the flat entries k a degree-r pair may have nonzero, at column k, the
        # b-th packed straight into one pair at digit b: L (an operator term) at e_t of P e_m
        # for k = t n + m, 1 at e_m of a for k = n^2 + m; W from the largest, L or (with no
        # operator unknown) 1
        columns = [k for k in range(n * n + n) if _degree_at(par, k) == r]
        if not columns:
            continue    # no unknowns, no rows: the odd degree of an all-even algebra
        W = _width(L if columns[0] < n * n else 1, _swept(B, ("binary", "ternary")))
        found = _pair_rows(B, r, columns, _unflat(n, [(k, (L if k < n * n else 1) << W * b)
                                                      for b, k in enumerate(columns)]), W)
        rows += _kernel(*_rref(found, len(columns)), columns)[0]
    # the degrees' reduced kernels share no column: by lead, they are what _rref would give
    out = PairSpace._closed(B, sorted(rows))
    if not all(_in_span(out._common, _flat(x)) for _, _, x in _basis_inner_pairs(B)):
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

    # the inner pairs (e_i, e_j) with i <= j, the Bol algebra B being super skew, the
    # cells [(P, a), e_j] and H's kept brackets; _mirrored completes the rest
    cells = {}
    for (i, j), _, x in _basis_inner_pairs(B):
        coords = _span_coordinates(H._common, _flat(x))
        if coords is None:
            raise EnvelopeError("inner pair (%s, %s) does not lie in H"
                                % (space.labels[i], space.labels[j]))
        cells[i, j] = shifted(coords)
    for m, p in enumerate(H.basis):
        cells.update(((nb + m, j), col) for j, col in enumerate(p.operator.columns))
    cells.update(((nb + m, nb + l), shifted(c)) for (m, l), c in H._brackets.items())

    lie = AlgebraDef("env(%s)" % B.name, space,
                     binary=BinaryStructure._of(space, _mirrored(parities, cells)))
    require_axioms(lie, "lie")
    return EnvelopingLieSuperalgebra(B, H, lie)


def ideal_envelope(B, K, env=None):
    """Ideal K + IPS(B, K) of the standard enveloping algebra.

    K must be an ideal of B.  The bracket containment [K', L] <= K' is
    verified exactly; failure raises.
    """
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
    if classify_subspace(env.lie, combined) != IDEAL:
        raise EnvelopeError("combined subspace is not an ideal of the envelope")
    return combined
