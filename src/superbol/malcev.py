"""The Malcev sweep of a binary table: a walk along its products, visiting no tuple.

Each of the Malcev identity's five terms is an inner product from `_products`,
(e_i e_j) e_k, e_i (e_k e_l) or (e_i e_k) e_b, times one more basis vector: it walks from the
inner product's support to the nonzero cells there, one first index i at a time, each path
adding one packed int into its tuple's slot (j n + k) n + l (`_slots`).  The work is the paths,
on sparse and dense tables alike, and only nonzero slots are decoded.  It packs the table by
`_packed_cells` at its own W, 2^(W-1) > 5 S1^2 M (S1 the largest cell L1 norm, M the largest
|entry|): each of its five terms is at most S1^2 M per coordinate.
"""

import itertools
from collections import defaultdict
from functools import partial
from operator import itemgetter

from .structures import _all_skew, _digits, _packed_cells, _packed_orbits, _rotated


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
