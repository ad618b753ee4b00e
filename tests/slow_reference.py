"""Slow reference for the axiom sweeps and the morphism check.

These are the dense sweeps the package used before its sparse kernel:
every identity is evaluated on every basis tuple by scanning all n
coordinates of every table entry, and check_morphism pushes basis
vectors through f and the dense evaluators one tuple at a time.  They
share no code with `superbol.structures` beyond its value types, so
`tests/test_reference.py` can hold the fast checks to them: the same
reports, witnesses in the same order, and the same exact defects.
"""

from superbol.graded import GradingError, SuperVector, rat, sign
from superbol.structures import (KIND_ALIASES, KINDS, CheckReport,
                                 StructureError, Witness)


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
