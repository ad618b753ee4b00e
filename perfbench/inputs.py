"""Seeded inputs: the algebra ladder and its re-based copies.

Every generator here is deterministic in its arguments; randomness comes
only from the `random.Random` a caller passes in, which the benchmark
seeds from `--seed`.  The package under test receives nothing but the
generated algebras and `.alg` text.
"""

from __future__ import annotations

from superbol.graded import GradedMap, SuperSpace, rat
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure

# Fano-plane lines, oriented: e_i e_j = e_k for each cyclic rotation
FANO = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def m7():
    """Sagle's simple 7-dim Malcev algebra: the imaginary octonions under
    the commutator, [e_i, e_j] = 2 e_k along each oriented Fano line."""
    space = SuperSpace.even_first(tuple("m%d" % i for i in range(1, 8)), ())
    products = {}
    for line in FANO:
        for r in range(3):
            i, j, k = line[r], line[(r + 1) % 3], line[(r + 2) % 3]
            coords = [0] * 7
            coords[k - 1] = 2
            products[(i - 1, j - 1)] = tuple(coords)
    return AlgebraDef("M7", space, binary=BinaryStructure.from_products(space, products))


def osp12(suffix=""):
    """osp(1|2): even h, e, f spanning sl(2); odd x, y."""
    labels = tuple(stem + suffix for stem in ("h", "e", "f", "x", "y"))
    space = SuperSpace.even_first(labels[:3], labels[3:])

    def vec(**coeffs):
        return tuple(coeffs.get(stem, 0) for stem in ("h", "e", "f", "x", "y"))

    products = {
        (0, 1): vec(e=2), (0, 2): vec(f=-2), (1, 2): vec(h=1),
        (0, 3): vec(x=1), (0, 4): vec(y=-1), (1, 4): vec(x=-1), (2, 3): vec(y=-1),
        (3, 3): vec(e=2), (3, 4): vec(h=1), (4, 4): vec(f=-2),
    }
    return AlgebraDef("osp12" + suffix, space,
                      binary=BinaryStructure.from_products(space, products))


def direct_sum(A, B, name):
    """Block-diagonal sum of two binary algebras; labels must be distinct."""
    space = SuperSpace(A.space.parities + B.space.parities, A.space.labels + B.space.labels)
    na, nb = A.space.dim, B.space.dim
    zero = (0,) * (na + nb)
    rows = [tuple(tuple(A.binary.table[i][j]) + (0,) * nb for j in range(na)) + (zero,) * nb
            for i in range(na)]
    rows += [(zero,) * na + tuple((0,) * na + tuple(B.binary.table[i][j]) for j in range(nb))
             for i in range(nb)]
    return AlgebraDef(name, space, binary=BinaryStructure(space, tuple(rows)))


# ---------------------------------------------------------------------------
# re-basing


def signed_permutation(rng, n):
    """(perm, signs): new basis vector i is signs[i] * e_{perm[i]}."""
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n))


def even_signed_permutation(rng, parities):
    """A signed permutation that maps each parity class onto itself, so
    the re-based space has the same parity signature."""
    perm = list(range(len(parities)))
    for parity in (0, 1):
        slots = [i for i, p in enumerate(parities) if p == parity]
        moved = slots[:]
        rng.shuffle(moved)
        for slot, src in zip(slots, moved):
            perm[slot] = src
    return tuple(perm), tuple(rng.choice((1, -1)) for _ in parities)


def permute(A, perm, signs):
    """A re-based through b_i = s_i e_{perm[i]}.

    Structure constants become s_i s_j s_t C[perm i][perm j][perm t], so
    sparsity and integrality are kept; parities and labels travel with
    their basis vectors.
    """
    n = A.space.dim
    space = SuperSpace(tuple(A.space.parities[p] for p in perm),
                       tuple(A.space.labels[p] for p in perm))

    def move(vec, s):
        return tuple(rat(s * signs[t] * vec[perm[t]]) for t in range(n))

    binary = ternary = None
    if A.binary is not None:
        bt = A.binary.table
        binary = BinaryStructure(space, tuple(
            tuple(move(bt[perm[i]][perm[j]], signs[i] * signs[j]) for j in range(n))
            for i in range(n)))
    if A.ternary is not None:
        tt = A.ternary.table
        ternary = TernaryStructure(space, tuple(
            tuple(tuple(move(tt[perm[i]][perm[j]][perm[k]], signs[i] * signs[j] * signs[k])
                        for k in range(n))
                  for j in range(n))
            for i in range(n)))
    return AlgebraDef(A.name, space, binary=binary, ternary=ternary)


def even_first(A):
    """A with its basis stably reordered so even labels precede odd ones,
    which is what `serialize_algebra` requires."""
    order = sorted(range(A.space.dim), key=lambda i: A.space.parities[i])
    return permute(A, order, (1,) * A.space.dim)


# Dense re-basing: g = U * D with U a product of random unit lower and
# upper triangular blocks (determinant 1) and D a fixed diagonal, which
# brings in Fraction entries.
_DIAGONAL = (1, 2, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3)


def _unit_triangular(rng, size, lower):
    return [[1 if r == c else
             (rng.choice((-2, -1, 1, 2)) if (r > c) == lower else 0)
             for c in range(size)] for r in range(size)]


def _matmul(a, b):
    size = len(b[0])
    return [[sum(x * b[k][c] for k, x in enumerate(row)) for c in range(size)] for row in a]


def dense_even_map(rng, space):
    """Random invertible even matrix, dense inside each parity block.

    Returns g with g[i][j] the e_i coordinate of the new basis vector j.
    """
    n = space.dim
    g = [[0] * n for _ in range(n)]
    for parity in (0, 1):
        idx = [i for i in range(n) if space.parities[i] == parity]
        if not idx:
            continue
        size = len(idx)
        block = _matmul(_unit_triangular(rng, size, True), _unit_triangular(rng, size, False))
        for c in range(size):
            d = _DIAGONAL[c]
            for r in range(size):
                g[idx[r]][idx[c]] = block[r][c] * d
    return g


def compose_permutation(g, perm, signs):
    """The matrix of g after the signed permutation (perm, signs)."""
    return [[signs[i] * row[perm[i]] for i in range(len(row))] for row in g]


def transport(A, g, name):
    """Copy of A in the basis b_j = sum_i g[i][j] e_i.

    The copy's product is x*y = g^-1 (g x * g y), so g, read as an even
    map on the copy's space, is an isomorphism copy -> A.
    """
    n = A.space.dim
    space = SuperSpace(A.space.parities, A.space.labels)
    ginv = GradedMap.from_rows(space, 0, g).inverse().matrix

    def back(vec):
        return tuple(rat(sum(ginv[t][m] * c for m, c in enumerate(vec) if c)) for t in range(n))

    def mix(vectors, j):
        # sum_a g[a][j] vectors[a]
        out = [0] * n
        for a, vec in enumerate(vectors):
            c = g[a][j]
            if c:
                for t, x in enumerate(vec):
                    if x:
                        out[t] += c * x
        return out

    binary = ternary = None
    if A.binary is not None:
        bt = A.binary.table
        # right slot first, then left slot
        right = [[mix(bt[a], j) for j in range(n)] for a in range(n)]
        binary = BinaryStructure(space, tuple(
            tuple(back(mix([right[a][j] for a in range(n)], i)) for j in range(n))
            for i in range(n)))
    if A.ternary is not None:
        tt = A.ternary.table
        third = [[[mix(tt[a][b], k) for k in range(n)] for b in range(n)] for a in range(n)]
        second = [[[mix([third[a][b][k] for b in range(n)], j) for k in range(n)]
                   for j in range(n)] for a in range(n)]
        ternary = TernaryStructure(space, tuple(
            tuple(tuple(back(mix([second[a][j][k] for a in range(n)], i)) for k in range(n))
                  for j in range(n))
            for i in range(n)))
    return AlgebraDef(name, space, binary=binary, ternary=ternary)


def nonzero_cells(A):
    """(nonzero, total) over the parity-allowed scalar cells of A's tables."""
    par = A.space.parities
    n = A.space.dim
    nonzero = total = 0
    if A.binary is not None:
        for i in range(n):
            for j in range(n):
                for t, c in enumerate(A.binary.table[i][j]):
                    if par[t] == (par[i] + par[j]) % 2:
                        total += 1
                        nonzero += bool(c)
    if A.ternary is not None:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for t, c in enumerate(A.ternary.table[i][j][k]):
                        if par[t] == (par[i] + par[j] + par[k]) % 2:
                            total += 1
                            nonzero += bool(c)
    return nonzero, total
