"""Slow reference for the axiom sweeps, the morphism check and the two
pseudo-derivation rules.

These are the dense sweeps the package used before its sparse kernel:
every identity is evaluated on every basis tuple by scanning all n
coordinates of every table entry, and check_morphism pushes basis
vectors through f and the dense evaluators one tuple at a time.
bol_cells evaluates malcev_to_bol's ternary product on every tuple
through the same dense products.  They
share no code with `superbol.structures` beyond its value types, so
`tests/test_reference.py` can hold the fast checks to them: the same
reports, witnesses in the same order, and the same exact defects.

check_pseudo, companion_space and ps_space are the versions that wrote
the triple rule and the product rule out once each, each copy with its
own signs, before the package derived all three from one description of
the rules.  They keep their own copies of the sparse contraction helpers
and share no rule code with `superbol.envelope`.  pair_rows writes out,
term by term, the rows the package's two solvers read from its packed
rule evaluator, at the same tuples and on the same lifted scale;
`tests/test_pair_rows.py` holds the solvers' rows to it.

killing_ricci_direct is the direct Killing-Ricci route as it was before
the closed-form sum: one GradedMap per right multiplication R_{e_i,e_j},
read through its supertrace.  Those maps, and inner_pair's D_{x,y}, are
built by from_action, the map of n dense evaluations on basis vectors
that the package used before it read the sparse ternary form.

The maps and forms section keeps GradedMap application and composition,
graded_commutator, BilinearForm.evaluate, killing_form, check_invariant,
orthogonal and the pairing identity of semisimplicity_report as dense
loops over every coordinate, from before they read the sparse views of
maps, forms and structures through the one contraction routine;
`tests/test_forms_reference.py` holds the package to them.

rref is the dense Gauss-Jordan elimination the package used before its
fraction-free one: every cell of every row is normalized through `rat`
at every step.  `tests/test_rref_reference.py` holds the package's rref,
and the solvers built on it, to the same rows, pivots and scalar types.

center imposes every slot equation of every structure, x * e_j, e_j * x,
[x, e_j, e_k], [e_j, x, e_k] and [e_j, e_k, x] per output coordinate, as
a dense row, and reads the null space off the dense rref above: no row is
left out, however early the rows reach full rank.  `tests/test_center.py`
holds the package's center, which builds its rows lazily and stops at full
rank, to it.

classify_subspace is the version that wrote each of its four containment
sweeps out as its own loop, before one local test served all four;
`tests/test_structures.py` holds the package's to it.
"""

from fractions import Fraction
from math import gcd

from superbol.envelope import (EnvelopeError, PairSpace, PseudoDerivationPair,
                               ips_space)
from superbol.forms import BilinearForm, InvariantReport
from superbol.graded import GradedMap, GradingError, SuperVector, rat, sign
from superbol.linalg import (AffineSubspace, Subspace, nullspace, solve_affine, span_reduce,
                             whole_space)
from superbol.structures import (IDEAL, INVARIANT, KIND_ALIASES, KINDS, NOT_CLOSED,
                                 SUBSUPERALGEBRA, CheckReport, StructureError, Witness,
                                 require_axioms)


def _eval_binary(A, x, y):
    table = A.binary.table
    n = A.space.dim
    out = [0] * n
    for i, a in enumerate(x.coords):
        if not a:
            continue
        for j, b in enumerate(y.coords):
            if not b:
                continue
            entry = table[i][j]
            ab = a * b
            for t in range(n):
                if entry[t]:
                    out[t] += ab * entry[t]
    return SuperVector(A.space, tuple(rat(c) for c in out))


def _eval_ternary(A, x, y, z):
    table = A.ternary.table
    n = A.space.dim
    out = [0] * n
    for i, a in enumerate(x.coords):
        if not a:
            continue
        for j, b in enumerate(y.coords):
            if not b:
                continue
            ab = a * b
            for k, c in enumerate(z.coords):
                if not c:
                    continue
                entry = table[i][j][k]
                abc = ab * c
                for t in range(n):
                    if entry[t]:
                        out[t] += abc * entry[t]
    return SuperVector(A.space, tuple(rat(c) for c in out))


# ---------------------------------------------------------------------------
# raw-table contractions; vec arguments are coordinate sequences


def _bv(table, vec, k, n):
    # [vec, e_k]
    out = [0] * n
    for m, c in enumerate(vec):
        if c:
            row = table[m][k]
            for t in range(n):
                if row[t]:
                    out[t] += c * row[t]
    return out


def _vb(table, i, vec, n):
    # [e_i, vec]
    out = [0] * n
    for m, c in enumerate(vec):
        if c:
            row = table[i][m]
            for t in range(n):
                if row[t]:
                    out[t] += c * row[t]
    return out


def _vv(table, u, v, n):
    # [u, v]
    out = [0] * n
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b:
                row = table[i][j]
                ab = a * b
                for t in range(n):
                    if row[t]:
                        out[t] += ab * row[t]
    return out


def _t_bbv(table, i, j, vec, n):
    # [e_i, e_j, vec]
    out = [0] * n
    for m, c in enumerate(vec):
        if c:
            row = table[i][j][m]
            for t in range(n):
                if row[t]:
                    out[t] += c * row[t]
    return out


def _t_bvb(table, i, vec, k, n):
    # [e_i, vec, e_k]
    out = [0] * n
    for m, c in enumerate(vec):
        if c:
            row = table[i][m][k]
            for t in range(n):
                if row[t]:
                    out[t] += c * row[t]
    return out


def _t_vbb(table, vec, j, k, n):
    # [vec, e_j, e_k]
    out = [0] * n
    for m, c in enumerate(vec):
        if c:
            row = table[m][j][k]
            for t in range(n):
                if row[t]:
                    out[t] += c * row[t]
    return out


def _addto(acc, vec, s):
    if s == 1:
        for t, c in enumerate(vec):
            if c:
                acc[t] += c
    else:
        for t, c in enumerate(vec):
            if c:
                acc[t] -= c
    return acc


# ---------------------------------------------------------------------------
# axiom sweeps; each yields Witness objects in lexicographic tuple order


def _sweep_binary_skew(space, table, axiom="skew"):
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        for j in range(n):
            s = sign(par[i] * par[j])
            defect = tuple(rat(a + s * b) for a, b in zip(table[i][j], table[j][i]))
            if any(defect):
                yield Witness(axiom, (lab[i], lab[j]), SuperVector(space, defect))


def _sweep_super_jacobi(space, table):
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        pi = par[i]
        for j in range(n):
            pj = par[j]
            for k in range(n):
                pk = par[k]
                acc = [0] * n
                _addto(acc, _bv(table, table[i][j], k, n), 1)
                _addto(acc, _bv(table, table[j][k], i, n), sign(pi * (pj + pk)))
                _addto(acc, _bv(table, table[k][i], j, n), sign(pk * (pi + pj)))
                if any(acc):
                    yield Witness("jacobi", (lab[i], lab[j], lab[k]),
                                  SuperVector(space, tuple(rat(c) for c in acc)))


def _sweep_malcev(space, table):
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    pi, pj, pk, pl = par[i], par[j], par[k], par[l]
                    # RHS - LHS of the Malcev identity
                    acc = [0] * n
                    _addto(acc, _vv(table, table[i][k], table[j][l], n), sign(pj * pk))
                    _addto(acc, _bv(table, _bv(table, table[i][j], k, n), l, n), -1)
                    _addto(acc, _vb(table, i, _bv(table, table[j][k], l, n), n), 1)
                    _addto(acc, _bv(table, _vb(table, i, table[k][l], n), j, n),
                           sign(pj * (pk + pl)))
                    _addto(acc, _bv(table, _bv(table, table[i][l], j, n), k, n),
                           sign(pl * (pj + pk)))
                    if any(acc):
                        yield Witness("malcev", (lab[i], lab[j], lab[k], lab[l]),
                                      SuperVector(space, tuple(rat(c) for c in acc)))


def _sweep_ternary_skew(space, table):
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        for j in range(n):
            s = sign(par[i] * par[j])
            for k in range(n):
                defect = tuple(rat(a + s * b) for a, b in zip(table[i][j][k], table[j][i][k]))
                if any(defect):
                    yield Witness("triple-skew", (lab[i], lab[j], lab[k]),
                                  SuperVector(space, defect))


def _sweep_ternary_jacobi(space, table):
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        pi = par[i]
        for j in range(n):
            pj = par[j]
            for k in range(n):
                pk = par[k]
                s1 = sign(pi * (pj + pk))
                s2 = sign(pk * (pi + pj))
                acc = list(table[i][j][k])
                _addto(acc, table[j][k][i], s1)
                _addto(acc, table[k][i][j], s2)
                if any(acc):
                    yield Witness("triple-jacobi", (lab[i], lab[j], lab[k]),
                                  SuperVector(space, tuple(rat(c) for c in acc)))


def _sweep_nambu(space, table):
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        for j in range(n):
            pij = par[i] + par[j]
            for u in range(n):
                pu = par[u]
                for v in range(n):
                    puv = pu + par[v]
                    for w in range(n):
                        acc = [0] * n
                        _addto(acc, _t_vbb(table, table[i][j][u], v, w, n), 1)
                        _addto(acc, _t_bvb(table, u, table[i][j][v], w, n), sign(pu * pij))
                        _addto(acc, _t_bbv(table, u, v, table[i][j][w], n), sign(pij * puv))
                        _addto(acc, _t_bbv(table, i, j, table[u][v][w], n), -1)
                        if any(acc):
                            yield Witness("nambu", (lab[i], lab[j], lab[u], lab[v], lab[w]),
                                          SuperVector(space, tuple(rat(c) for c in acc)))


def _sweep_product_rule(space, bin_table, ter_table):
    # the ternary bracket [x,y,.] acts on a binary product u.v the way a
    # pseudo superderivation with companion x.y does
    n, par, lab = space.dim, space.parities, space.labels
    for i in range(n):
        for j in range(n):
            pij = par[i] + par[j]
            xy = bin_table[i][j]
            for u in range(n):
                pu = par[u]
                for v in range(n):
                    puv = pu + par[v]
                    acc = [0] * n
                    _addto(acc, _vb(bin_table, u, ter_table[i][j][v], n), sign(pu * pij))
                    _addto(acc, _bv(bin_table, ter_table[i][j][u], v, n), 1)
                    _addto(acc, _t_bbv(ter_table, u, v, xy, n), sign(pij * puv))
                    _addto(acc, _vv(bin_table, xy, bin_table[u][v], n), 1)
                    _addto(acc, _t_bbv(ter_table, i, j, bin_table[u][v], n), -1)
                    if any(acc):
                        yield Witness("product-rule", (lab[i], lab[j], lab[u], lab[v]),
                                      SuperVector(space, tuple(rat(c) for c in acc)))


def _require(A, binary=False, ternary=False):
    if binary and A.binary is None:
        raise StructureError("%s has no binary structure" % A.name)
    if ternary and A.ternary is None:
        raise StructureError("%s has no ternary structure" % A.name)


def check_axioms(A, kind):
    """Verify the axiom system `kind` on all basis tuples of A.

    kind is one of lie, malcev, supertriple, lie_supertriple (alias lts),
    bol.  Returns a CheckReport listing every failing tuple.
    """
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError("unknown axiom system %r" % (kind,))
    space = A.space
    witnesses = []
    if kind == "lie":
        _require(A, binary=True)
        witnesses += _sweep_binary_skew(space, A.binary.table)
        witnesses += _sweep_super_jacobi(space, A.binary.table)
    elif kind == "malcev":
        _require(A, binary=True)
        witnesses += _sweep_binary_skew(space, A.binary.table)
        witnesses += _sweep_malcev(space, A.binary.table)
    elif kind == "supertriple":
        _require(A, ternary=True)
        witnesses += _sweep_ternary_skew(space, A.ternary.table)
        witnesses += _sweep_ternary_jacobi(space, A.ternary.table)
    elif kind == "lie_supertriple":
        _require(A, ternary=True)
        witnesses += _sweep_ternary_skew(space, A.ternary.table)
        witnesses += _sweep_ternary_jacobi(space, A.ternary.table)
        witnesses += _sweep_nambu(space, A.ternary.table)
    else:
        _require(A, binary=True, ternary=True)
        witnesses += _sweep_binary_skew(space, A.binary.table)
        witnesses += _sweep_ternary_skew(space, A.ternary.table)
        witnesses += _sweep_ternary_jacobi(space, A.ternary.table)
        witnesses += _sweep_nambu(space, A.ternary.table)
        witnesses += _sweep_product_rule(space, A.binary.table, A.ternary.table)
    return CheckReport(A.name, kind, not witnesses, tuple(witnesses))


def bol_cells(M):
    """The nonzero cells {(i, j, k): ((t, c), ...)} of malcev_to_bol's ternary product,
    every tuple evaluated through the dense products: 1/3 (2 [[e_i,e_j],e_k] -
    (-1)^{i(j+k)} [[e_j,e_k],e_i] - (-1)^{k(i+j)} [[e_k,e_i],e_j]), each coordinate `rat`."""
    n, par, table = M.space.dim, M.space.parities, M.binary.table
    cells = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [2 * c for c in _bv(table, table[i][j], k, n)]
                _addto(acc, _bv(table, table[j][k], i, n), -sign(par[i] * (par[j] + par[k])))
                _addto(acc, _bv(table, table[k][i], j, n), -sign(par[k] * (par[i] + par[j])))
                entry = tuple((t, rat(Fraction(1, 3) * c)) for t, c in enumerate(acc) if c)
                if entry:
                    cells[(i, j, k)] = entry
    return cells



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

    def push(v):
        return SuperVector(B.space, f(v).coords)

    lab = A.space.labels
    basis = A.space.basis()
    witnesses = []
    if A.binary is not None:
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                defect = _eval_binary(B, push(x), push(y)) - push(_eval_binary(A, x, y))
                if not defect.is_zero():
                    witnesses.append(Witness("binary-hom", (lab[i], lab[j]), defect))
    if A.ternary is not None:
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                for k, z in enumerate(basis):
                    defect = _eval_ternary(B, push(x), push(y), push(z)) \
                        - push(_eval_ternary(A, x, y, z))
                    if not defect.is_zero():
                        witnesses.append(Witness("ternary-hom", (lab[i], lab[j], lab[k]), defect))
    return CheckReport("%s -> %s" % (A.name, B.name), "morphism", not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# pseudo superderivation pairs, each rule written out in each function


def _sparse(coords):
    """The nonzero (index, coefficient) pairs of a coordinate sequence."""
    return tuple((t, c) for t, c in enumerate(coords) if c)


def _into(acc, vec, rows, s=1):
    """acc += s * sum of c * rows[m] over the pairs (m, c) of vec.

    vec and every rows[m] are sparse (index, coefficient) tuples and acc
    is a dense coordinate list, which is returned.  Every contraction of
    a structure table with a vector is one call, with rows a row view of
    the table's sparse form: `entries[i]` is [e_i, .] for a binary
    product, `col[k]` is [., e_k], and so on.
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


def _columns(f):
    """f(e_m) for every m: the row view that applies the map f."""
    return tuple(_sparse(c) for c in zip(*f.matrix))


def check_pseudo(B, pair):
    """Pointwise verification that the pair derives both products.

    derives-triple is the Leibniz-type rule on the ternary bracket
    (companion-free); derives-product is the rule on the binary product
    involving the companion.  Defects are RHS - LHS.
    """
    if pair.space != B.space:
        raise GradingError("pair lives outside the algebra")
    n = B.space.dim
    par = B.space.parities
    lab = B.space.labels
    Eb, col = B.binary.entries, B.binary.col
    ts = B.ternary
    Et = ts.entries
    P = _columns(pair.operator)
    r = pair.degree
    a = _sparse(pair.companion.coords)
    witnesses = []

    for i in range(n):
        pi = par[i]
        s1 = sign(r * pi)
        for j in range(n):
            s2 = sign(r * (pi + par[j]))
            for k in range(n):
                # RHS - LHS: [P e_i, e_j, e_k] +- [e_i, P e_j, e_k] +- [e_i, e_j, P e_k]
                # - P[e_i, e_j, e_k], with the signs of the triple rule
                acc = _into([0] * n, P[i], ts.first[j][k])
                _into(acc, P[j], ts.mid[i][k], s1)
                _into(acc, P[k], Et[i][j], s2)
                _into(acc, Et[i][j][k], P, -1)
                if any(acc):
                    witnesses.append(Witness("derives-triple", (lab[i], lab[j], lab[k]),
                                             _vector(B.space, acc)))

    for i in range(n):
        pi = par[i]
        for j in range(n):
            # RHS - LHS: [P e_i, e_j] +- [e_i, P e_j] +- [e_i, e_j, a] + a.(e_i e_j)
            # - P(e_i e_j), with the signs of the product rule
            acc = _into([0] * n, P[i], col[j])
            _into(acc, P[j], Eb[i], sign(r * pi))
            _into(acc, a, Et[i][j], sign(r * (pi + par[j])))
            for m, c in a:
                _into(acc, Eb[i][j], Eb[m], c)
            _into(acc, Eb[i][j], P, -1)
            if any(acc):
                witnesses.append(Witness("derives-product", (lab[i], lab[j]),
                                         _vector(B.space, acc)))
    subject = "pair of degree %d on %s" % (r, B.name)
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
    par = B.space.parities
    r = P.degree
    probe = PseudoDerivationPair(P, B.space.zero())
    triple_ok = not any(w.axiom == "derives-triple"
                        for w in check_pseudo(B, probe).witnesses)
    if not triple_ok:
        return AffineSubspace.empty()

    Eb, col = B.binary.entries, B.binary.col
    Et = B.ternary.entries
    Pc = _columns(P)
    rows, rhs = [], []
    for m in range(n):
        if par[m] != r:
            row = [0] * n
            row[m] = 1
            rows.append(row)
            rhs.append(0)
    for i in range(n):
        pi = par[i]
        for j in range(n):
            s2 = sign(r * (pi + par[j]))
            w = Eb[i][j]
            # the right-hand side: P(e_i e_j) - [P e_i, e_j] -+ [e_i, P e_j]
            known = _into([0] * n, w, Pc)
            _into(known, Pc[i], col[j], -1)
            _into(known, Pc[j], Eb[i], -sign(r * pi))
            # column m, the coefficient of a_m: +-[e_i, e_j, e_m] + e_m.(e_i e_j)
            cols = [_into(_into([0] * n, w, Eb[m]), ((m, 1),), Et[i][j], s2)
                    for m in range(n)]
            for t in range(n):
                rows.append([rat(c[t]) for c in cols])
                rhs.append(rat(known[t]))
    return solve_affine(rows, rhs)


def ps_space(B):
    """Full solution space of the two derivation rules, per degree.

    Unknowns are the operator entries plus the companion coordinates;
    both rules are linear in them, so the space is an exact nullspace.
    Contains ips_space(B); the containment is verified.
    """
    n = B.space.dim
    par = B.space.parities
    tt = B.ternary.table
    bt = B.binary.table
    Eb = B.binary.entries
    nun = n * n + n

    def op_idx(t, m):
        return t * n + m

    all_pairs = []
    for r in (0, 1):
        rows = []
        # block structure of a degree-r operator, parity of the companion
        for t in range(n):
            for m in range(n):
                if par[t] != (par[m] + r) % 2:
                    row = [0] * nun
                    row[op_idx(t, m)] = 1
                    rows.append(row)
        for m in range(n):
            if par[m] != r:
                row = [0] * nun
                row[n * n + m] = 1
                rows.append(row)
        # triple rule, LHS - RHS = 0
        for i in range(n):
            pi = par[i]
            s1 = sign(r * pi)
            for j in range(n):
                pj = par[j]
                s2 = sign(r * (pi + pj))
                for k in range(n):
                    vec = tt[i][j][k]
                    for t in range(n):
                        row = [0] * nun
                        for m in range(n):
                            if vec[m]:
                                row[op_idx(t, m)] += vec[m]
                            if tt[m][j][k][t]:
                                row[op_idx(m, i)] -= tt[m][j][k][t]
                            if tt[i][m][k][t]:
                                row[op_idx(m, j)] -= s1 * tt[i][m][k][t]
                            if tt[i][j][m][t]:
                                row[op_idx(m, k)] -= s2 * tt[i][j][m][t]
                        if any(row):
                            rows.append(row)
        # product rule, LHS - RHS = 0
        for i in range(n):
            pi = par[i]
            s1 = sign(r * pi)
            for j in range(n):
                pj = par[j]
                s2 = sign(r * (pi + pj))
                w = bt[i][j]
                mw = [_into([0] * n, Eb[i][j], Eb[m]) for m in range(n)]
                for t in range(n):
                    row = [0] * nun
                    for m in range(n):
                        if w[m]:
                            row[op_idx(t, m)] += w[m]
                        if bt[m][j][t]:
                            row[op_idx(m, i)] -= bt[m][j][t]
                        if bt[i][m][t]:
                            row[op_idx(m, j)] -= s1 * bt[i][m][t]
                        companion = s2 * tt[i][j][m][t] + mw[m][t]
                        if companion:
                            row[n * n + m] -= companion
                    if any(row):
                        rows.append(row)
        for vec in nullspace(rows, nun):
            all_pairs.append(PseudoDerivationPair.from_flat(B.space, tuple(vec)))
    out = PairSpace.from_pairs(B, all_pairs)
    if not out.contains_space(ips_space(B)):
        raise EnvelopeError("inner pairs escaped the pseudo derivation space")
    return out


def pair_rows(B, r, P=None):
    """The rows the pair solvers take in degree r, each rule written out term by
    term per tuple and output coordinate t: the e_t coordinate of every
    unknown's defect, on B in the basis L e_i (L the lcm of every denominator
    of both tables), so a triple rule row is L^3 and a product rule row L^2
    times B's own, in ints.  Without P, ps_space's rows of both rules: the
    unknowns are the flat entries k of a degree-r pair, t n + m for P e_m's
    e_t coefficient and n^2 + m for a_m.  With P, companion_space's rows of
    the product rule (the triple rule reads no companion): the unknowns a_m of
    parity r at column m and b, minus P's part, at column n, all times D, the
    lcm of P's denominators.  The tuples are the ones the solvers evaluate:
    (i, j, ...) with i <= j where the tables a rule reads pass their skew
    sweeps, and of the triple rule only i < j, i <= k where the ternary table
    passes its Jacobi sweep too.  Every nonzero row ((column, c), ...), sorted
    by column, in tuple order, repeats included."""
    n, par = B.space.dim, B.space.parities
    T, Bt = B.ternary.table, B.binary.table
    L = 1
    for c in [c for cube in T for plane in cube for cell in plane for c in cell] + [
            c for plane in Bt for cell in plane for c in cell]:
        L = L * Fraction(c).denominator // gcd(L, Fraction(c).denominator)
    skew = not any(_sweep_ternary_skew(B.space, T))
    derived = skew and not any(_sweep_ternary_jacobi(B.space, T))
    both_skew = skew and not any(_sweep_binary_skew(B.space, Bt))
    found = []     # (scale, dense row over the n^2 + n flat entries)
    for i in range(n):
        for j in range(n):
            s1, s2 = sign(r * par[i]), sign(r * (par[i] + par[j]))
            for k in range(n) if P is None and not (skew and i > j) else ():
                if derived and (i == j or k < i):
                    continue
                for t in range(n):
                    # [P e_i, e_j, e_k] + s1 [e_i, P e_j, e_k] + s2 [e_i, e_j, P e_k]
                    # - P [e_i, e_j, e_k]: P e_m's e_q coefficient is at q n + m
                    row = [0] * (n * n + n)
                    for q in range(n):
                        row[q * n + i] += T[q][j][k][t]
                        row[q * n + j] += s1 * T[i][q][k][t]
                        row[q * n + k] += s2 * T[i][j][q][t]
                        row[t * n + q] -= T[i][j][k][q]
                    found.append((L ** 3, row))
            if both_skew and i > j:
                continue
            w = Bt[i][j]
            for t in range(n):
                # [P e_i, e_j] + s1 [e_i, P e_j] + s2 [e_i, e_j, a] + a.(e_i e_j) - P(e_i e_j)
                row = [0] * (n * n + n)
                for q in range(n):
                    row[q * n + i] += Bt[q][j][t]
                    row[q * n + j] += s1 * Bt[i][q][t]
                    row[t * n + q] -= w[q]
                    row[n * n + q] += s2 * T[i][j][q][t] + sum(
                        w[m] * Bt[q][m][t] for m in range(n))
                found.append((L ** 2, row))
    out = []
    for scale, row in found:
        if P is None:
            cells = [(k, row[k]) for k in range(n * n + n) if (
                par[k // n] == (par[k % n] + r) % 2 if k < n * n else par[k - n * n] == r)]
        else:
            D = 1
            for line in P.matrix:
                for c in line:
                    D = D * Fraction(c).denominator // gcd(D, Fraction(c).denominator)
            scale *= D
            known = sum(row[q * n + m] * P.matrix[q][m] for q in range(n) for m in range(n))
            cells = [(m, row[n * n + m]) for m in range(n) if par[m] == r] + [(n, -known)]
        cells = tuple((k, Fraction(scale * c)) for k, c in cells if c)
        assert all(c.denominator == 1 for _, c in cells)
        if cells:
            out.append(tuple((k, int(c)) for k, c in cells))
    return out


# ---------------------------------------------------------------------------
# the direct Killing-Ricci route through right multiplication maps


def right_map(B, x, y):
    """R_{x,y}: z -> (-1)^{parity(z) (parity(x)+parity(y))} [z, x, y]."""
    deg = (x.parity_or(0) + y.parity_or(0)) % 2
    par = B.space.parities

    def act(z):
        k = next(i for i, c in enumerate(z.coords) if c)  # z is a basis vector
        s = sign(par[k] * deg)
        out = _eval_ternary(B, z, x, y)
        return out if s == 1 else -out

    return from_action(B.space, deg, act)


def from_action(space, degree, fn):
    """The map defined by its values fn(e_j) on basis vectors."""
    cols = [fn(space.basis_vector(j)).coords for j in range(space.dim)]
    return GradedMap.from_columns(space, degree, cols)


def inner_pair(B, x, y):
    """(D_{x,y}, x.y) with D_{x,y} read off n dense triple evaluations."""
    deg = (x.parity_or(0) + y.parity_or(0)) % 2
    return PseudoDerivationPair(from_action(B.space, deg, lambda z: _eval_ternary(B, x, y, z)),
                                _eval_binary(B, x, y))


def killing_ricci_direct(B):
    basis = B.space.basis()
    par = B.space.parities
    n = B.space.dim
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            m = right_map(B, basis[i], basis[j]) \
                + sign(par[i] * par[j]) * right_map(B, basis[j], basis[i])
            row.append(m.supertrace)
        gram.append(tuple(row))
    return BilinearForm(B.space, tuple(gram))


# ---------------------------------------------------------------------------
# maps and forms as they were before they contracted through the sparse
# kernel: GradedMap.__call__ and compose, graded_commutator,
# BilinearForm.evaluate, killing_form, check_invariant, orthogonal and the
# pairing-identity loop of semisimplicity_report, each with its own dense
# loops; methods are written as functions of the object


def apply(f, v):
    """GradedMap.__call__."""
    if v.space != f.space:
        raise GradingError("vector lives in a different space")
    out = [0] * f.space.dim
    for j, c in enumerate(v.coords):
        if not c:
            continue
        for i in range(f.space.dim):
            m = f.matrix[i][j]
            if m:
                out[i] += c * m
    return SuperVector(f.space, tuple(rat(x) for x in out))


def compose(f, other):
    """f after other."""
    if other.space != f.space:
        raise GradingError("maps live on different spaces")
    n = f.space.dim
    a, b = f.matrix, other.matrix
    rows = []
    for i in range(n):
        ai = a[i]
        rows.append(tuple(rat(sum(ai[k] * b[k][j] for k in range(n) if ai[k] and b[k][j]))
                          for j in range(n)))
    return GradedMap(f.space, (f.degree + other.degree) % 2, tuple(rows))


def _add(f, g):
    # GradedMap.__add__
    if g.space != f.space or g.degree != f.degree:
        raise GradingError("maps must share space and degree to add")
    return GradedMap(f.space, f.degree, tuple(
        tuple(rat(a + b) for a, b in zip(ra, rb)) for ra, rb in zip(f.matrix, g.matrix)))


def _scale(c, f):
    # GradedMap.__rmul__
    c = rat(c)
    return GradedMap(f.space, f.degree, tuple(
        tuple(rat(c * a) for a in row) for row in f.matrix))


def graded_commutator(f, g):
    """[f, g] = f g - (-1)^{deg f deg g} g f."""
    fg = compose(f, g)
    gf = compose(g, f)
    return _add(fg, _scale(-1, gf)) if sign(f.degree * g.degree) == 1 else _add(fg, gf)


def evaluate(b, x, y):
    """BilinearForm.evaluate."""
    if x.space != b.space or y.space != b.space:
        raise GradingError("vector lives in a different space")
    total = 0
    for i, a in enumerate(x.coords):
        if not a:
            continue
        row = b.gram[i]
        for j, c in enumerate(y.coords):
            if c and row[j]:
                total += a * row[j] * c
    return rat(total)


def is_supersymmetric(b):
    n = b.space.dim
    par = b.space.parities
    return all(b.gram[j][i] == sign(par[i] * par[j]) * b.gram[i][j]
               for i in range(n) for j in range(n))


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


def pairing_identity(B, env, alpha, beta):
    """semisimplicity_report's pairing identity, for a vanishing cross block."""
    nb = B.space.dim
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
                    lhs = evaluate(alpha, hij, huv)
                    s = sign(par[i] * (par[u] + par[v] + par[j]))
                    rhs = s * sum(tt[u][v][i][m] * beta.gram[j][m]
                                  for m in range(nb) if tt[u][v][i][m])
                    if lhs != rhs:
                        pairing = False
    return pairing


# ---------------------------------------------------------------------------
# exact elimination


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Rows come out
    sorted by pivot column with unit pivots and zeros above and below.
    """
    a = [[rat(x) for x in row] for row in rows]
    if not a:
        return (), []
    ncols = len(a[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = Fraction(1, 1) / a[row][col]
        a[row] = [rat(inv * x) for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [rat(x - f * y) for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return tuple(tuple(r) for r in a[:row]), pivots


def center(A):
    """Elements x with x*B = 0 and [x,B,B] = [B,x,B] = [B,B,x] = 0: the null
    space of every slot equation, through rref above."""
    n = A.space.dim
    rows = []
    if A.binary is not None:
        bt = A.binary.table
        for j in range(n):
            for t in range(n):
                rows.append([bt[m][j][t] for m in range(n)])
                rows.append([bt[j][m][t] for m in range(n)])
    if A.ternary is not None:
        tt = A.ternary.table
        for j in range(n):
            for k in range(n):
                for t in range(n):
                    rows.append([tt[m][j][k][t] for m in range(n)])
                    rows.append([tt[j][m][k][t] for m in range(n)])
                    rows.append([tt[j][k][m][t] for m in range(n)])
    reduced, pivots = rref(rows)
    # per free column f: e_f minus the reduced rows' entries at f, at their pivots
    kernel = []
    for f in range(n):
        if f not in pivots:
            x = [0] * n
            x[f] = 1
            for row, p in zip(reduced, pivots):
                x[p] = rat(-row[f])
            kernel.append(x)
    return span_reduce(A.space, [SuperVector(A.space, tuple(v)) for v in rref(kernel)[0]])


def classify_subspace(A, V):
    """Strongest of: not_closed < subsuperalgebra < invariant < ideal.

    V must be graded.  invariant means [B, B, V] <= V on top of closure;
    ideal additionally needs B*V <= V.
    """
    if not isinstance(V, Subspace) or V.space != A.space:
        raise GradingError("V must be a subspace of A's space")
    if not V.is_graded():
        raise GradingError("subspace is not graded")
    vs = V.basis
    basis = A.space.basis()

    closed = True
    if A.binary is not None:
        closed = all(V.contains(A.binary.eval(v, w)) for v in vs for w in vs)
    if closed and A.ternary is not None:
        closed = all(V.contains(A.ternary.eval(u, v, w))
                     for u in vs for v in vs for w in vs)
    if not closed:
        return NOT_CLOSED

    invariant = True
    if A.ternary is not None:
        invariant = all(V.contains(A.ternary.eval(x, y, v))
                        for x in basis for y in basis for v in vs)
    if not invariant:
        return SUBSUPERALGEBRA

    ideal = True
    if A.binary is not None:
        ideal = all(V.contains(A.binary.eval(x, v)) for x in basis for v in vs)
    return IDEAL if ideal else INVARIANT
