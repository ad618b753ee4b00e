"""Constructions between the supported axiom systems.

Both constructions verify their input axioms up front and re-check the
target axioms on the output; a violation raises instead of returning a
bad table.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import _exact, _into, rat
from .structures import AlgebraDef, TernaryStructure, _jacobi_sums, _mirrored, require_axioms


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
    """
    require_axioms(M, "malcev")
    n, third, cells = M.space.dim, Fraction(1, 3), {}
    kept = ((i, j, k) for i in range(n) for j in range(i, n) for k in range(n))
    for at, acc in _jacobi_sums(M.space, M.binary, 2, -1, -1, kept):
        entry = tuple((t, rat(third * c)) for t, c in enumerate(acc) if c)
        if entry:
            cells[at] = entry
    out = AlgebraDef("bol(%s)" % M.name, M.space, binary=M.binary,
                     ternary=TernaryStructure._of(M.space, _mirrored(M.space.parities, cells)))
    require_axioms(out, "bol")
    return out
