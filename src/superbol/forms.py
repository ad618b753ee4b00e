"""Bilinear forms: Killing, Killing-Ricci, invariance and orthogonals.

The Killing-Ricci form of a Bol algebra comes in two independent
routes that must agree exactly:

* restriction: the Killing form of the standard enveloping Lie
  superalgebra, restricted to the base block,
* direct: gram[i][j] = str(R_{e_i,e_j} + (-1)^{p_i p_j} R_{e_j,e_i})
  with R_{x,y}(z) = (-1)^{z(x+y)} [z,x,y], in closed form the sum over k
  of (-1)^{p_k(1+p_i+p_j)} (T[k][i][j][k] + (-1)^{p_i p_j} T[k][j][i][k]),
  T[k][i][j][k] being the e_k coordinate of [e_k, e_i, e_j].

Their agreement on every catalog algebra is part of the test suite.

Each form identity below is one comparison of two sparse tables, {index
tuple: value}, over the union of their supports only: the work follows
the nonzero products and form entries, not the n^4 basis tuples.  Both
are integer tables, the algebra's lifted ones (L*binary, L^2*ternary) with
D*b (D the lcm of b's denominators): each side comes out D L^weight times
its true value, so unequal factors are cross-multiplied, and a defect is
divided back only for a witness.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter

from .graded import (GradedMap, GradingError, _dense, _exact, _into, _quotient, _sparse,
                     _SparseValue, _transposed, rat, record, sign)
from .linalg import _null_space, _rref, _subspace
from .structures import (CheckReport, Witness, center, classify_subspace,
                         require_axioms)


@record
class BilinearForm(_SparseValue):
    """Even bilinear form on a superspace, held as its sparse rows: rows[i]
    is the tuple of nonzero (j, b(e_i, e_j)).  The view columns[j] =
    b(., e_j) and the dense Gram matrix `gram` are derived on demand."""

    space: object
    rows: tuple

    def __init__(self, space, gram):
        n = space.dim
        if len(gram) != n or any(len(r) != n for r in gram):
            raise GradingError("gram matrix must be %d x %d" % (n, n))
        self._init(space, tuple(_exact(row) for row in gram))

    def _init(self, space, rows):
        # an even form pairs only equal parities
        par = space.parities
        for i, row in enumerate(rows):
            for j, _ in row:
                if par[i] != par[j]:
                    raise GradingError("form pairs opposite parities at (%d, %d)" % (i, j))
        vars(self).update(space=space, rows=rows)

    @classmethod
    def from_rows(cls, space, rows):
        return cls(space, tuple(map(tuple, rows)))

    @cached_property
    def columns(self):
        return _transposed(self.rows, self.space.dim)

    @cached_property
    def _lifted(self):  # (D, D*rows, D*columns), D the lcm of the form's denominators: ints
        D = math.lcm(*(c.denominator for row in self.rows for _, c in row))
        rows = tuple(tuple((j, c.numerator * D // c.denominator) for j, c in r) for r in self.rows)
        return D, rows, _transposed(rows, self.space.dim)

    @cached_property
    def gram(self):
        n = self.space.dim
        return tuple(_dense(row, n) for row in self.rows)

    def evaluate(self, x, y):
        if x.space != self.space or y.space != self.space:
            raise GradingError("vector lives in a different space")
        # b(e_i, y) for every i, then summed against x
        by = _into([0] * self.space.dim, _sparse(y.coords), self.columns)
        return rat(sum(a * by[i] for i, a in _sparse(x.coords)))

    def _asymmetry(self):
        # ((i, j), D times (-1)^{p_i p_j} b(e_j, e_i) - b(e_i, e_j)) where nonzero, in order
        par = self.space.parities
        gram = {(i, j): c for i, row in enumerate(self._lifted[1]) for j, c in row}
        return _mismatches(gram, (0, 1), gram, (1, 0), lambda at: sign(par[at[0]] * par[at[1]]))

    def is_supersymmetric(self):
        return not any(self._asymmetry())

    def radical(self):  # {x : b(x, e_k) = 0 for every k}: one equation per column
        return _null_space(self.space, self.columns)

    def is_nondegenerate(self):
        return self.radical().dim == 0


def right_map(B, x, y):
    """R_{x,y}: z -> (-1)^{parity(z) (parity(x)+parity(y))} [z, x, y]."""
    deg = (x.parity_or(0) + y.parity_or(0)) % 2
    return GradedMap.from_columns(B.space, deg, [
        B.triple(z, x, y).scale(sign(p * deg)).coords
        for z, p in zip(B.space.basis(), B.space.parities)])


def killing_form(L):
    """gram[i][j] = str(ad_{e_i} ad_{e_j}) for a Lie superalgebra: the sum
    over the nonzero [e_i, e_m]_t of (-1)^{p_i + p_m} [e_i, e_m]_t [e_j, e_t]_m,
    with x_t the e_t coordinate of x.  Read off the integer table C = k L,
    k the lcm of L's denominators, that the Lie check swept: divided by k^2."""
    require_axioms(L, "lie")
    (k, lifted), n, par = L._lifted, L.space.dim, L.space.parities
    C = lifted["binary"]
    # back[m][t]: the nonzero (j, [e_j, e_t]_m)
    back = tuple(zip(*(_transposed(col, n) for col in C.col)))
    rows = []
    for i in range(n):
        acc = [0] * n
        for m in range(n):
            _into(acc, C.entries[i][m], back[m], sign(par[i] + par[m]))
        rows.append(tuple((t, _quotient(c, k * k)) for t, c in enumerate(acc) if c))
    return BilinearForm._of(L.space, tuple(rows))


def _base_block(alpha, space):
    """The restriction of a form on an envelope to its base block `space`."""
    n = space.dim
    return BilinearForm._of(space, tuple(tuple((j, c) for j, c in row if j < n)
                                         for row in alpha.rows[:n]))


def killing_ricci(B, method="restriction"):
    """Killing-Ricci form of a Bol algebra by either route."""
    require_axioms(B, "bol")
    if method == "restriction":
        from .envelope import enveloping  # only here, so `killing` never loads envelope
        return _base_block(killing_form(enveloping(B).lie), B.space)
    if method == "direct":
        n, par = B.space.dim, B.space.parities
        # trace[i][j]: the sum over k of (-1)^{p_k(1+p_i+p_j)} T[k][i][j][k]
        trace = [[0] * n for _ in range(n)]
        for (k, i, j), entry in B.ternary.cells().items():
            trace[i][j] += sign(par[k] * (1 + par[i] + par[j])) * dict(entry).get(k, 0)
        return BilinearForm._of(B.space, tuple(
            _exact([trace[i][j] + sign(par[i] * par[j]) * trace[j][i] for j in range(n)])
            for i in range(n)))
    raise ValueError("method must be 'restriction' or 'direct'")


@record
class InvariantReport:
    """Invariance diagnostics for a bilinear form on a Bol algebra.

    The form is invariant when supersymmetry, the product rule (binary)
    and the triple rule (ternary) all hold.  inva1..inva3 are the three
    equivalent phrasings of ternary invariance; for a Killing-Ricci form
    they must share one truth value.
    """

    supersymmetry: CheckReport
    product_invariance: CheckReport
    triple_invariance: CheckReport
    inva1: bool
    inva3: bool

    @property
    def inva2(self):
        # the phrasing b([x,y,z],u) = -(-1)^{y(z+u)} b(x,[z,u,y]) that
        # triple_invariance checks
        return self.triple_invariance.passed

    @property
    def passed(self):
        return (self.supersymmetry.passed and self.product_invariance.passed
                and self.triple_invariance.passed)

    @property
    def equivalence_consistent(self):
        return self.inva1 == self.inva2 == self.inva3

    @property
    def witnesses(self):
        return (self.supersymmetry.witnesses + self.product_invariance.witnesses
                + self.triple_invariance.witnesses)


def _contracted(view, st):
    """{at + (l,): value} over the nonzero products w = st[at], each w
    contracted with a form through _into: b(w, e_l) at l through the form's
    rows, b(e_l, w) through its columns.  Zero values are left out."""
    n = len(view)
    return {at + (l,): value for at, entry in st.cells().items()
            for l, value in enumerate(_into([0] * n, entry, view)) if value}


def _mismatches(lhs, lorder, rhs, rorder, factor):
    """(at, factor(at) * rhs[at read in rorder] - lhs[at read in lorder]),
    in lexicographic order of at, wherever the two sides differ; `at read in
    order` is the tuple of at[o] for o in order.  An unlisted key reads 0, and
    only the tuples that either side lists are visited."""
    def by_at(side, order):  # the (at, value) of side, each key read back to its at
        back = itemgetter(*sorted(range(len(order)), key=order.__getitem__))
        return zip(map(back, side), side.values())

    defects = {at: -value for at, value in by_at(lhs, lorder)}
    for at, value in by_at(rhs, rorder):
        defects[at] = defects.get(at, 0) + factor(at) * value
    return sorted((at, defect) for at, defect in defects.items() if defect)


def check_invariant(B, b):
    """Check invariance of b: supersymmetry, b(xy,z) = -(-1)^{xy} b(y,xz),
    b([x,y,z],u) = -(-1)^{y(z+u)} b(x,[z,u,y]); plus the three equivalent
    ternary invariance statements as booleans, all read from each product
    contracted with b once on each side and compared over their support."""
    if b.space != B.space:
        raise GradingError("form lives on a different space")
    par, lab = B.space.parities, B.space.labels
    (D, rows, columns), (L, lifted) = b._lifted, B._lifted

    def report(axiom, found, k):  # each defect k times its true value
        found = tuple(Witness(axiom, tuple(lab[t] for t in at), _quotient(d, k)) for at, d in found)
        return CheckReport(B.name, axiom, not found, found)

    prod, trip, inva1, inva3 = (), (), True, True
    if B.binary is not None:
        # left[i, j, k] = b(e_i e_j, e_k), right[i, k, j] = b(e_j, e_i e_k)
        left, right = (_contracted(view, lifted["binary"]) for view in (rows, columns))
        prod = _mismatches(left, (0, 1, 2), right, (0, 2, 1),
                           lambda at: -sign(par[at[0]] * par[at[1]]))
    if B.ternary is not None:
        # left[i, j, k, l] = b([e_i, e_j, e_k], e_l), right[i, j, k, l] = b(e_l, [e_i, e_j, e_k])
        left, right = (_contracted(view, lifted["ternary"]) for view in (rows, columns))
        trip = _mismatches(left, (0, 1, 2, 3), right, (2, 3, 1, 0),
                           lambda at: -sign(par[at[1]] * (par[at[2]] + par[at[3]])))
        inva1 = not any(_mismatches(left, (0, 1, 2, 3), right, (0, 1, 3, 2),
                                    lambda at: -sign(par[at[2]] * (par[at[0]] + par[at[1]]))))
        inva3 = not any(_mismatches(right, (1, 2, 3, 0), right, (0, 3, 2, 1), lambda at:
                                    sign(par[at[0]] * par[at[1]] + par[at[2]] * par[at[3]])))
    return InvariantReport(report("supersymmetry", b._asymmetry(), D),
                           report("product-invariance", prod, D * L),
                           report("triple-invariance", trip, D * L * L), inva1, inva3)


def orthogonal(b, V):
    """{x : b(x, v) = 0 for all v in V}."""
    if V.space != b.space:
        raise GradingError("subspace lives on a different space")
    # one equation per basis vector v: its row holds b(e_m, v) at m
    return _null_space(b.space, [enumerate(_into([0] * b.space.dim, _sparse(v.coords),
                                                 b.columns)) for v in V.basis])


@record
class SemisimplicityReport:
    """Checkable facts tying beta's nondegeneracy to the envelope.

    cross_block_vanishes: the envelope Killing form alpha pairs the
    inner-pair block trivially against the base block.  When that holds,
    pairing_identity records whether alpha on inner pairs reduces to
    beta on the base, entry by entry over basis 4-tuples.
    orthogonal_center_match verifies that the orthogonal of
    B + [B,B,B] under beta is exactly the center (only meaningful for
    nondegenerate beta).  Each supplied ideal I is paired with the
    classification of its beta-orthogonal, which must come out an ideal.
    """

    algebra: str
    base_dim: int
    envelope_dim: int
    beta: BilinearForm
    alpha: BilinearForm
    cross_block_vanishes: bool
    pairing_identity: bool | None
    beta_nondegenerate: bool
    alpha_nondegenerate: bool
    orthogonal_center_match: bool | None
    ideal_orthogonals: tuple


def _pairing_identity(B, env, alpha, beta):
    """Whether alpha([e_i, e_j], [e_u, e_v]) = (-1)^{p_i(p_u+p_v+p_j)}
    beta(e_j, [e_u, e_v, e_i]) on every basis 4-tuple of B, the binary
    brackets taken in the envelope env; the sides, L_E^2 D_alpha and L_B^2
    D_beta times their true values, each multiplied by the other's factor."""
    nb, par = B.space.dim, B.space.parities
    (LE, tables), (LB, lifted) = env.lie._lifted, B._lifted
    (Da, rows, _), (Db, _, columns) = alpha._lifted, beta._lifted
    # lhs[i, j, u, v] = alpha([e_i, e_j], [e_u, e_v]): the base-block cells of env paired
    cells = [(at, entry) for at, entry in tables["binary"].cells().items() if max(at) < nb]
    lhs = {}
    for at, entry in cells:
        row = _into([0] * env.dim, entry, rows, LB * LB * Db)    # alpha([e_i, e_j], e_t) at t
        for uv, other in cells:
            value = sum([c * row[t] for t, c in other])
            if value:
                lhs[at + uv] = value
    # rhs[u, v, i, j] = beta(e_j, [e_u, e_v, e_i])
    rhs = _contracted(columns, lifted["ternary"])
    return not any(_mismatches(lhs, (0, 1, 2, 3), rhs, (2, 3, 0, 1), lambda at: LE * LE * Da
                               * sign(par[at[0]] * (par[at[1]] + par[at[2]] + par[at[3]]))))


def semisimplicity_report(B, ideals=()):
    from .envelope import enveloping
    env = enveloping(B)
    alpha = killing_form(env.lie)
    nb = B.space.dim
    dim = env.dim
    beta = _base_block(alpha, B.space)

    cross = not any(j < nb for view in (alpha.rows, alpha.columns)
                    for row in view[nb:] for j, _ in row)

    pairing = _pairing_identity(B, env, alpha, beta) if cross else None

    beta_nondeg = beta.is_nondegenerate()
    alpha_nondeg = alpha.is_nondegenerate()

    center_match = None
    if beta_nondeg:
        # span of all binary and ternary products; its orthogonal must be
        # exactly the center when beta is nondegenerate
        closure = _subspace(B.space, *_rref((entry for st in (B.binary, B.ternary)
                                             for entry in st.cells().values()), nb))
        center_match = orthogonal(beta, closure) == center(B)

    ideal_results = []
    for ideal in ideals:
        perp = orthogonal(beta, ideal)
        ideal_results.append((ideal.dim, perp.dim, classify_subspace(B, perp)))

    return SemisimplicityReport(
        algebra=B.name, base_dim=nb, envelope_dim=dim, beta=beta, alpha=alpha,
        cross_block_vanishes=cross, pairing_identity=pairing,
        beta_nondegenerate=beta_nondeg, alpha_nondegenerate=alpha_nondeg,
        orthogonal_center_match=center_match, ideal_orthogonals=tuple(ideal_results))
