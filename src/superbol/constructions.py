"""Constructions between the supported axiom systems.

Both constructions verify their input axioms up front and re-check the
target axioms on the output; a violation raises instead of returning a
bad table.
"""

from __future__ import annotations

from .graded import _quotient
from .structures import (AlgebraDef, TernaryStructure, _digits, _jacobi_sums, _mirrored,
                         require_axioms)


def _jacobi_table(A, kind, weights, k):
    """The ternary table w1 [[x,y],z] + w2 (-1)^{x(y+z)} [[y,z],x] + w3 (-1)^{z(x+y)} [[z,x],y],
    all over k, of A once it passes `kind`: super skew in (x, y), so only i <= j is summed, on
    the lifted binary table L*B, each digit divided by k L^2, and `_mirrored` completes it."""
    require_axioms(A, kind)
    n, L, bs = A.space.dim, A._lifted[0], A._lifted[1]["binary"]
    kept = ((i, j, range(n)) for i in range(n) for j in range(i, n))
    cells = {at: tuple((t, _quotient(c, k * L * L)) for t, c in _digits(v, bs._packs[0]))
             for at, v in _jacobi_sums(A.space, bs, *weights, kept) if v}
    return TernaryStructure._of(A.space, _mirrored(A.space.parities, cells))


def lie_to_supertriple(L):
    """Lie superalgebra to Lie supertriple system via [x,y,z] := [[x,y],z]."""
    out = AlgebraDef("lts(%s)" % L.name, L.space, binary=None,
                     ternary=_jacobi_table(L, "lie", (1, 0, 0), 1))
    require_axioms(out, "lie_supertriple")
    return out


def malcev_to_bol(M):
    """Malcev superalgebra to Bol superalgebra.

    Keeps the binary product and installs the ternary product

        {x,y,z} = 1/3 (2[[x,y],z]
                       - (-1)^{x(y+z)} [[y,z],x]
                       - (-1)^{z(x+y)} [[z,x],y]).

    For Lie input the correction terms cancel by the super Jacobi
    identity and {x,y,z} reduces to [[x,y],z].  The table is
    `_jacobi_table`'s, summed on L*M as its Malcev check lifted it.
    """
    out = AlgebraDef("bol(%s)" % M.name, M.space, binary=M.binary,
                     ternary=_jacobi_table(M, "malcev", (2, -1, -1), 3))
    require_axioms(out, "bol")
    return out
