"""Constructions between the supported axiom systems.

Both constructions verify their input axioms up front and re-check the
target axioms on the output; a violation raises instead of returning a
bad table.
"""

from __future__ import annotations

from .graded import _exact, _into, _quotient
from .structures import (AlgebraDef, TernaryStructure, _digits, _jacobi_sums, _mirrored,
                         require_axioms)


def lie_to_supertriple(L):
    """Lie superalgebra to Lie supertriple system via [x,y,z] := [[x,y],z]."""
    require_axioms(L, "lie")
    n = L.space.dim
    E, col = L.binary.entries, L.binary.col
    ternary = TernaryStructure._of(L.space, {
        (i, j, k): _exact(_into([0] * n, E[i][j], col[k]))
        for i in range(n) for j in range(n) if E[i][j] for k in range(n)})
    out = AlgebraDef("lts(%s)" % L.name, L.space, binary=None, ternary=ternary)
    require_axioms(out, "lie_supertriple")
    return out


def malcev_to_bol(M):
    """Malcev superalgebra to Bol superalgebra.

    Keeps the binary product and installs the ternary product

        {x,y,z} = 1/3 (2[[x,y],z]
                       - (-1)^{x(y+z)} [[y,z],x]
                       - (-1)^{z(x+y)} [[z,x],y]).

    For Lie input the correction terms cancel by the super Jacobi
    identity and {x,y,z} reduces to [[x,y],z].  Only i <= j is evaluated:
    {x,y,z} is super skew in (x, y), and `_mirrored` completes the table.
    The sums are taken on L*M, as its Malcev check lifted it, and divided by 3 L^2.
    """
    require_axioms(M, "malcev")
    n, L, bs = M.space.dim, M._lifted[0], M._lifted[1]["binary"]
    kept = ((i, j, range(n)) for i in range(n) for j in range(i, n))
    cells = {at: tuple((t, _quotient(c, 3 * L * L)) for t, c in _digits(v, bs._packs[1]))
             for at, v in _jacobi_sums(M.space, bs, 2, -1, -1, kept) if v}
    out = AlgebraDef("bol(%s)" % M.name, M.space, binary=M.binary,
                     ternary=TernaryStructure._of(M.space, _mirrored(M.space.parities, cells)))
    require_axioms(out, "bol")
    return out
