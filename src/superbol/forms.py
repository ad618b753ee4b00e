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
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelope import enveloping
from .graded import GradedMap, GradingError, SuperVector, rat, sign
from .linalg import nullspace, span_reduce, whole_space
from .structures import (CheckReport, Witness, center, classify_subspace,
                         require_axioms)


@dataclass(frozen=True)
class BilinearForm:
    """Gram matrix of an even bilinear form on a superspace."""

    space: object
    gram: tuple

    def __post_init__(self):
        n = self.space.dim
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise GradingError("gram matrix must be %d x %d" % (n, n))
        par = self.space.parities
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] and par[i] != par[j]:
                    raise GradingError("form pairs opposite parities at (%d, %d)" % (i, j))

    @classmethod
    def from_rows(cls, space, rows):
        return cls(space, tuple(tuple(rat(x) for x in row) for row in rows))

    def evaluate(self, x, y):
        if x.space != self.space or y.space != self.space:
            raise GradingError("vector lives in a different space")
        total = 0
        for i, a in enumerate(x.coords):
            if not a:
                continue
            row = self.gram[i]
            for j, b in enumerate(y.coords):
                if b and row[j]:
                    total += a * row[j] * b
        return rat(total)

    def is_supersymmetric(self):
        n = self.space.dim
        par = self.space.parities
        return all(self.gram[j][i] == sign(par[i] * par[j]) * self.gram[i][j]
                   for i in range(n) for j in range(n))

    def radical(self):
        return orthogonal(self, whole_space(self.space))

    def is_nondegenerate(self):
        return self.radical().dim == 0


def right_map(B, x, y):
    """R_{x,y}: z -> (-1)^{parity(z) (parity(x)+parity(y))} [z, x, y]."""
    deg = (x.parity_or(0) + y.parity_or(0)) % 2
    par = B.space.parities

    def act(z):
        k = next(i for i, c in enumerate(z.coords) if c)  # z is a basis vector
        s = sign(par[k] * deg)
        out = B.triple(z, x, y)
        return out if s == 1 else -out

    return GradedMap.from_action(B.space, deg, act)


def killing_form(L):
    """gram[i][j] = str(ad_{e_i} ad_{e_j}) for a Lie superalgebra."""
    require_axioms(L, "lie")
    n = L.space.dim
    par = L.space.parities
    bt = L.binary.table
    # ad_i[t][m] = coefficient of e_t in [e_i, e_m]
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            total = 0
            for t in range(n):
                st = sign(par[t])
                for m in range(n):
                    a = bt[i][m][t]
                    if a:
                        b = bt[j][t][m]
                        if b:
                            total += st * a * b
            row.append(rat(total))
        gram.append(tuple(row))
    return BilinearForm(L.space, tuple(gram))


def _base_block(alpha, space):
    """The restriction of a form on an envelope to its base block `space`."""
    n = space.dim
    return BilinearForm(space, tuple(tuple(alpha.gram[i][j] for j in range(n)) for i in range(n)))


def killing_ricci(B, method="restriction"):
    """Killing-Ricci form of a Bol algebra by either route."""
    require_axioms(B, "bol")
    if method == "restriction":
        return _base_block(killing_form(enveloping(B).lie), B.space)
    if method == "direct":
        n, par, tt = B.space.dim, B.space.parities, B.ternary.table
        return BilinearForm(B.space, tuple(tuple(
            rat(sum(sign(par[k] * (1 + par[i] + par[j]))
                    * (tt[k][i][j][k] + sign(par[i] * par[j]) * tt[k][j][i][k])
                    for k in range(n)))
            for j in range(n)) for i in range(n)))
    raise ValueError("method must be 'restriction' or 'direct'")


@dataclass(frozen=True)
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


def check_invariant(B, b):
    """Check invariance of b: supersymmetry, b(xy,z) = -(-1)^{xy} b(y,xz),
    b([x,y,z],u) = -(-1)^{y(z+u)} b(x,[z,u,y]); plus the three equivalent
    ternary invariance statements as booleans."""
    if b.space != B.space:
        raise GradingError("form lives on a different space")
    n = B.space.dim
    par = B.space.parities
    lab = B.space.labels
    g = b.gram
    bt = B.binary.table if B.binary is not None else None
    tt = B.ternary.table if B.ternary is not None else None

    def pair_vb(vec, j):
        # b(vec, e_j)
        return rat(sum(c * g[m][j] for m, c in enumerate(vec) if c and g[m][j]))

    def pair_bv(i, vec):
        # b(e_i, vec)
        return rat(sum(c * g[i][m] for m, c in enumerate(vec) if c and g[i][m]))

    sym = []
    for i in range(n):
        for j in range(n):
            defect = rat(sign(par[i] * par[j]) * g[j][i] - g[i][j])
            if defect:
                sym.append(Witness("supersymmetry", (lab[i], lab[j]), defect))
    sym_report = CheckReport(B.name, "supersymmetry", not sym, tuple(sym))

    prod = []
    if bt is not None:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = pair_vb(bt[i][j], k)
                    rhs = -sign(par[i] * par[j]) * pair_bv(j, bt[i][k])
                    if rhs != lhs:
                        prod.append(Witness("product-invariance", (lab[i], lab[j], lab[k]),
                                            rat(rhs - lhs)))
    prod_report = CheckReport(B.name, "product-invariance", not prod, tuple(prod))

    trip = []
    inva1 = inva3 = True
    if tt is not None:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        lhs = pair_vb(tt[i][j][k], l)
                        rhs = -sign(par[j] * (par[k] + par[l])) * pair_bv(i, tt[k][l][j])
                        if rhs != lhs:
                            trip.append(Witness("triple-invariance",
                                                (lab[i], lab[j], lab[k], lab[l]),
                                                rat(rhs - lhs)))
                        if lhs != -sign(par[k] * (par[i] + par[j])) * pair_bv(k, tt[i][j][l]):
                            inva1 = False
                        if pair_bv(i, tt[j][k][l]) != \
                                sign(par[i] * par[j] + par[k] * par[l]) * pair_bv(j, tt[i][l][k]):
                            inva3 = False
    trip_report = CheckReport(B.name, "triple-invariance", not trip, tuple(trip))

    return InvariantReport(sym_report, prod_report, trip_report, inva1, inva3)


def orthogonal(b, V):
    """{x : b(x, v) = 0 for all v in V}."""
    if V.space != b.space:
        raise GradingError("subspace lives on a different space")
    n = b.space.dim
    rows = []
    for v in V.basis:
        rows.append([rat(sum(b.gram[m][j] * c for j, c in enumerate(v.coords) if c))
                     for m in range(n)])
    if not rows:
        return whole_space(b.space)
    basis = nullspace(rows, n)
    return span_reduce(b.space, [SuperVector(b.space, tuple(r)) for r in basis])


@dataclass(frozen=True)
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


def semisimplicity_report(B, ideals=()):
    env = enveloping(B)
    alpha = killing_form(env.lie)
    nb = B.space.dim
    dim = env.dim
    beta = _base_block(alpha, B.space)

    cross = all(alpha.gram[m][j] == 0 and alpha.gram[j][m] == 0
                for m in range(nb, dim) for j in range(nb))

    pairing = None
    if cross:
        pairing = True
        par = B.space.parities
        tt = B.ternary.table
        ebt = env.lie.binary.table
        for i in range(nb):
            for j in range(nb):
                hij = SuperVector(env.lie.space, ebt[i][j])
                for u in range(nb):
                    for v in range(nb):
                        huv = SuperVector(env.lie.space, ebt[u][v])
                        lhs = alpha.evaluate(hij, huv)
                        s = sign(par[i] * (par[u] + par[v] + par[j]))
                        rhs = s * sum(tt[u][v][i][m] * beta.gram[j][m]
                                      for m in range(nb) if tt[u][v][i][m])
                        if lhs != rhs:
                            pairing = False

    beta_nondeg = beta.is_nondegenerate()
    alpha_nondeg = alpha.is_nondegenerate()

    center_match = None
    if beta_nondeg:
        # span of all binary and ternary products; its orthogonal must be
        # exactly the center when beta is nondegenerate
        products = [SuperVector(B.space, B.binary.table[i][j])
                    for i in range(nb) for j in range(nb)]
        products += [SuperVector(B.space, B.ternary.table[i][j][k])
                     for i in range(nb) for j in range(nb) for k in range(nb)]
        closure = span_reduce(B.space, products)
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
