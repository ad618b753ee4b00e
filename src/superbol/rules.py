"""The pseudo-derivation rules, evaluated on integer pairs for the Bol checker and the pair solvers.

Nambu and the product rule are the pseudo-derivation rules on the inner pairs: D_{x,y} = [x, y, .]
derives the triple product, and (D_{x,y}, x.y) the binary one.  One evaluator, `_evaluate`, runs
both on the one form x of an integer pair (P, a): x[m] = P e_m, x[n] = a, sparse; check_pseudo
hands it its one pair.  The checker and the pair solvers evaluate the pairs of one degree at once,
by Kronecker substitution: packed by the code that knows them into one pair whose coordinates hold
theirs W bits apart, each coordinate of its defects read back as their signed W-bit digits, exact
since every term is linear in x (`_width`).  The checker reads its inner pairs' pack off the cells
(`_cell_rows`), W from the largest cell L1 norm (`_magnitudes`), and keeps the ternary rows on
their table per (W, mirror): a Bol check packs them once for both rules where they agree on W.
The path is a property of the tables (`_joins`): where the rule's own product has fewer than half
its n^arity cells nonzero, `_joined` joins the pair with an index of the tables by the value in
each slot (`_by_slot`), built in one pass per table with each cell's slots, parities and windows
computed inline, adding each cell it reaches straight into its tuple's sum; else `_listed` visits
each of the tuples the rule lists, each term's slot and sign from `_terms`.
Once the ternary table's skew and Jacobi sweeps (each run once per structure object) find
nothing, the triple rule's defect F of any homogeneous operator obeys F(u,v,w) +
(-1)^{p_u(p_v+p_w)} F(v,w,u) + (-1)^{p_w(p_u+p_v)} F(w,u,v) = 0.  Of the tuples u <= v only
u < v, u <= w are then evaluated: the derived ones, u == v or w < u < v, are zero where these
are ((a, a, a) is 0).  A Nambu sweep that finds a defect there evaluates its failing inner pairs
again at every u <= v, packed off their ternary cells alone at the same W, and the derived rows,
combinations of kept rows, are not listed in the pair-space solvers.
"""

import itertools
import math
from functools import partial

from .graded import _into, _sparse, sign
from .structures import _all_skew, _digits, _orbit_witnesses, _swapped, _swept

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


def _evaluate(space, structures, r, x, order):
    """The rule's defects at one degree-r pair x at its tuples `_ordered` by order, (at, acc)
    in order, acc dense and nonzero: on the path `_joins` picks for the structures."""
    return (_joined if _joins(structures) else _listed)(space, structures, r, x, order)


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


def _width(x1, structures):
    """W with 2^(W-1) > X1 (3M + S1 (1 + M)), a bound on every defect coordinate of integer
    pairs whose rows have L1 norm at most x1: M the largest |entry| and S1 the largest L1 norm
    of a cell of the tables read.  Per tuple the three x terms are at most X1 M each, and
    w . view at most S1 X1 (1 + M)."""
    m, s1 = (max(values) for values in zip(*(st._magnitudes for st in structures)))
    return (x1 * (3 * m + s1 * (1 + m))).bit_length() + 1


def _defects(space, structures, W, pack, order):
    """The nonzero defects (key + at, acc) of the rule on the integer pairs of pack, in key
    order, at `_ordered` by order: pack (keys, rows) as `_cell_rows` gives it, per degree r
    the pairs keys[r] {key: W b} summed in rows[r], pair b at digit b, each defect coordinate
    read back as its pairs' signed W-bit digits."""
    found = []
    for r, (keys, x) in enumerate(zip(*pack)):
        pairs = [(key, []) for key in keys]     # in digit order
        for at, acc in _evaluate(space, structures, r, x, order) if pairs else ():
            defects = {}    # per pair with a nonzero digit, its dense defect
            for t, v in enumerate(acc):
                for b, c in _digits(v, W) if v else ():
                    (defects.get(b) or defects.setdefault(b, [0] * len(acc)))[t] = c
            for b, defect in defects.items():
                pairs[b][1].append((at, defect))
        found += pairs
    return [(key + at, acc) for key, defects in sorted(found) for at, acc in defects]


def _cell_rows(space, mirror, W, cells, h, keys=({}, {})):
    """(keys, rows) per degree: keys {(i, j): shift W b}, those given, then each new pair the cells
    reach (i <= j when mirror) at digit b; rows, entries times 2^shift at the last index or 0."""
    n, par, keys = space.dim, space.parities, (dict(keys[0]), dict(keys[1]))
    accs = ([[0] * n for _ in range(h)], [[0] * n for _ in range(h)])
    for at, entry in cells.items():
        i, j = key = at[:2]
        if not (mirror and j < i):
            r = par[i] ^ par[j]
            s, acc = keys[r].setdefault(key, W * len(keys[r])), accs[r][at[-1] if h > 1 else 0]
            for t, c in entry:
                acc[t] += c << s
    return keys, [tuple(map(_sparse, rows)) for rows in accs]


def _derives(structures):
    """Whether the structures are the triple rule's, a ternary table alone, whose skew and
    ternary Jacobi sweeps find nothing: then its derived tuples are zero where the rest are."""
    st = structures[0]
    return st.ARITY == 3 and _all_skew(structures) and not st._jacobi_witnesses


def _order(structures):
    """The offsets d, `_ordered`'s, of the tuples a sweep or solver evaluates the structures'
    rule at: at[0] <= at[1] once they are super skew, u < v, u <= w once derived ones follow
    (a failing Nambu sweep then evaluates its failing pairs again at every u <= v)."""
    if _derives(structures):
        return 1, 0
    return (0 if _all_skew(structures) else -math.inf), -math.inf


def _pair_rows(A, r, columns, x, W):
    """The pair solvers' rows: both rules, the triple rule's first, on A's lifted tables at
    `_order`'s tuples, for x, the integer degree-r pairs at columns packed W bits apart, pair b
    at digit b (W from `_width` over both rules' tables), evaluated by `_evaluate`.  Each
    nonzero packed defect coordinate is one row ((column, c), ...), c that coordinate of pair
    b's defect at columns[b]: one seen before, up to sign, is dropped, and a new one is read by
    `_digits`.  A missing structure raises before any row."""
    rules, seen = [_swept(A, reads) for _, reads in _RULES], set()
    for structures in rules:
        for _, acc in _evaluate(A.space, structures, r, x, _order(structures)):
            for v in map(abs, filter(None, acc)):
                if v not in seen:
                    seen.add(v)
                    yield [(columns[b], c) for b, c in _digits(v, W)]


def _inner_witnesses(axiom, space, *structures):
    # the rule on the nonzero inner pairs, mirrored in (i, j) and (u, v) once the structures are
    # super skew; where the derived tuples were left out, the failing pairs again at all u <= v
    par, mirror, (*bs, ts) = space.parities, _all_skew(structures), structures
    W = _width(max(st._magnitudes[1] for st in structures), structures)
    keys, rows = ts._inner_rows.get((W, mirror)) or ts._inner_rows.setdefault(
        (W, mirror), _cell_rows(space, mirror, W, ts.cells(), space.dim))
    keys, comp = _cell_rows(space, mirror, W, bs[0].cells() if bs else {}, 1, keys)
    defects = _defects(space, structures, W, (keys, [x + y for x, y in zip(rows, comp)]),
                       _order(structures))
    if defects and _derives(structures):
        failing = {at[:2] for at, _ in defects}
        again = _cell_rows(space, mirror, W, {at: entry for at, entry in ts.cells().items()
                                              if at[:2] in failing}, space.dim + 1)
        defects = _defects(space, structures, W, again, (0, -math.inf))
    return _orbit_witnesses(axiom, space, defects, (partial(_swapped, 0, par),
                                                    partial(_swapped, 2, par)) if mirror else ())
