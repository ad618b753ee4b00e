"""Built-in example algebras, verified against their declared axioms on load.

Besides the fixed entries, every key abelian_m_n names the Bol algebra
with m even and n odd generators and all products zero, for
1 <= m + n <= ABELIAN_MAX_DIM (64), m and n in ASCII digits without
leading zeros so that the key is the algebra's name; a larger key is a
ValueError raised before anything is built, since building and
verifying it costs time and memory that grow as (m + n)^4.  The same
cap bounds the labels of an .alg file: `algfile.parse_algebra` refuses
the 65th with a ParseError.
"""

from __future__ import annotations

import re

from .constructions import _jacobi_table
from .graded import ABELIAN_MAX_DIM, SuperSpace, record
from .structures import (AlgebraDef, BinaryStructure, TernaryStructure,
                         require_axioms)


@record
class CatalogEntry:
    key: str
    kind: str
    algebra: AlgebraDef
    note: str


def _l2_2_2_malcev():
    # even e1, e2; odd e3, e4
    space = SuperSpace.even_first(2, 2)
    binary = BinaryStructure.from_products(space, {
        (0, 1): (0, 1, 0, 0),
        (0, 2): (0, 0, 1, 0),
        (0, 3): (0, 0, 0, -1),
        (1, 2): (0, 0, 0, -1),
    })
    return AlgebraDef("L2_2_2_malcev", space, binary=binary)


def _l2_2_2_bol():
    # malcev_to_bol's table of the Malcev entry, never written out by hand; `entry` checks it
    M = _l2_2_2_malcev()
    return AlgebraDef("L2_2_2_bol", M.space, M.binary, _jacobi_table(M, "malcev", (2, -1, -1), 3))


def _l2_3_1_bol():
    # even e1, e2, e3; odd e4
    space = SuperSpace.even_first(3, 1)
    binary = BinaryStructure.from_products(space, {
        (0, 2): (1, 0, 0, 0),
        (1, 2): (1, 1, 0, 0),
        (2, 3): (0, 0, 0, 1),
        (3, 3): (1, 0, 0, 0),
    })
    ternary = TernaryStructure.from_products(space, {
        (0, 2, 2): (1, 0, 0, 0),
        (1, 2, 2): (2, 1, 0, 0),
        (2, 3, 2): (0, 0, 0, -1),
    })
    return AlgebraDef("L2_3_1_bol", space, binary=binary, ternary=ternary)


def _aff2_lie():
    space = SuperSpace.even_first(2, 0)
    binary = BinaryStructure.from_products(space, {(0, 1): (0, 1)})
    return AlgebraDef("aff2_lie", space, binary=binary)


def _abelian(m, n):
    if m + n == 0:
        raise ValueError("abelian algebra needs at least one basis element")
    space = SuperSpace.even_first(m, n)
    return AlgebraDef("abelian_%d_%d" % (m, n), space,
                      binary=BinaryStructure.from_products(space, {}),
                      ternary=TernaryStructure.from_products(space, {}))


_FIXED = (
    ("L2_2_2_malcev", "malcev", _l2_2_2_malcev,
     "(2|2)-dimensional Malcev superalgebra that is not Lie"),
    ("L2_2_2_bol", "bol", _l2_2_2_bol,
     "Bol superalgebra derived from L2_2_2_malcev by the 1/3-combination"),
    ("L2_3_1_bol", "bol", _l2_3_1_bol,
     "(3|1)-dimensional Bol superalgebra with nonzero odd square"),
    ("aff2_lie", "lie", _aff2_lie,
     "affine line algebra, the even part of L2_2_2_malcev"),
    ("abelian_2_2", "bol", lambda: _abelian(2, 2),
     "all products zero; representative of the abelian_m_n family"),
)

_ABELIAN = re.compile(r"abelian_(0|[1-9]\d*)_(0|[1-9]\d*)", re.ASCII)


def keys():
    return tuple(key for key, _, _, _ in _FIXED)


def build(key):
    """Construct a catalog entry without running its axiom check."""
    for fixed_key, kind, builder, note in _FIXED:
        if key == fixed_key:
            return CatalogEntry(key, kind, builder(), note)
    match = _ABELIAN.fullmatch(key)
    if match:
        if max(map(len, match.groups())) > len(str(ABELIAN_MAX_DIM)):
            raise ValueError("%s has more than %d generators; abelian_m_n allows at most %d"
                             % (key, ABELIAN_MAX_DIM, ABELIAN_MAX_DIM))
        m, n = int(match.group(1)), int(match.group(2))
        if m + n > ABELIAN_MAX_DIM:
            raise ValueError("%s has dimension %d; abelian_m_n allows at most %d"
                             % (key, m + n, ABELIAN_MAX_DIM))
        return CatalogEntry(key, "bol", _abelian(m, n),
                            "all products zero, %d even and %d odd generators" % (m, n))
    raise KeyError("unknown catalog key %r; known: %s, abelian_m_n"
                   % (key, ", ".join(keys())))


def entry(key):
    """Catalog entry with its declared axiom kind verified."""
    found = build(key)
    require_axioms(found.algebra, found.kind)
    return found


def load(key):
    return entry(key).algebra


def entries():
    return tuple(entry(key) for key, _, _, _ in _FIXED)
