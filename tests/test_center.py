"""The center against the slow reference, and where its elimination stops.

`slow_reference.center` imposes every slot equation of every structure as
a dense row and reads the null space off its own rref.  `structures.center`
builds its equations lazily, binary first, and `linalg._rref` stops
reading them once every column is a pivot.  Both must give the same
subspace, scalar types included, on catalog and derived algebras and on
random tables: binary only, ternary only and both, integer and `Fraction`
constants, and zero, partial and full centers, a random block beside an
abelian summand.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from bench_inputs import inputs
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure
from test_reference import direct_sum, from_cells, pool

ARITIES = (("binary",), ("ternary",), ("binary", "ternary"))
INTEGERS = (-2, -1, 1, 3)
FRACTIONS = INTEGERS + (Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2))


def assert_same_center(A):
    fast, slow = sb.center(A), slow_reference.center(A)
    assert fast == slow, A.name
    assert [[(type(c), c) for c in v.coords] for v in fast.basis] == \
        [[(type(c), c) for c in v.coords] for v in slow.basis], A.name
    return fast


def random_algebra(n_even, n_odd, arities, values, abelian_share, density, rng):
    """Random graded products among a random block of the basis; the rest of
    the basis is an abelian summand, central, and the products land in the block."""
    space = sb.SuperSpace.even_first(tuple("e%d" % i for i in range(n_even)),
                                     tuple("o%d" % i for i in range(n_odd)))
    n, par = space.dim, space.parities
    block = [i for i in range(n) if rng.random() >= abelian_share]
    structures = {}
    for cls in (BinaryStructure, TernaryStructure):
        if cls.NAME not in arities:
            continue
        cells = {}
        for at in itertools.product(block, repeat=cls.ARITY):
            targets = [t for t in block if par[t] == sum(par[i] for i in at) % 2]
            if targets and rng.random() < density:
                cells[at] = tuple((t, rng.choice(values))
                                  for t in sorted(rng.sample(targets, min(2, len(targets)))))
        structures[cls.NAME] = from_cells(cls, space, cells)
    return AlgebraDef("random", space, **structures)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from(ARITIES), st.booleans(),
       st.sampled_from((0, 0.4, 1)), st.sampled_from((0.2, 0.6, 1)), st.integers(0, 2 ** 32))
def test_random_centers_match_the_reference(n_even, n_odd, arities, fractions, abelian_share,
                                            density, seed):
    assume(n_even + n_odd)
    A = random_algebra(n_even, n_odd, arities, FRACTIONS if fractions else INTEGERS,
                       abelian_share, density, random.Random(seed))
    assert_same_center(A)


def test_centers_of_every_kind_match_the_reference():
    """Zero, partial and full centers, each seen: the catalog and derived
    algebras, their sums with an abelian summand, and random tables of
    each arity with integer and Fraction constants."""
    rng = random.Random(19)
    abelian = sb.catalog.load("abelian_1_1")
    algebras = list(pool()) + [direct_sum(A, abelian, A.name + " + ab") for A in pool()[:6]]
    for arities, values, share in itertools.product(ARITIES, (INTEGERS, FRACTIONS), (0, 0.4, 1)):
        algebras += [random_algebra(2, 2, arities, values, share, 1, rng) for _ in range(3)]
    dims = {(A.space.dim, assert_same_center(A).dim) for A in algebras}
    assert {"zero", "partial", "full"} <= {"zero" if d == 0 else "full" if d == n else "partial"
                                          for n, d in dims}


def test_center_of_a_simple_bol_algebra_builds_no_ternary_view():
    """bol(M7) and bol(osp(1|2)) have center 0 and their binary equations
    alone reach full rank, so on fresh structure objects (the Bol check of
    malcev_to_bol reads the views) the views of the first and middle slots
    of the ternary product are never built."""
    for A in (inputs.m7(), inputs.osp12()):
        B = sb.malcev_to_bol(A)
        B = AlgebraDef(B.name, B.space, from_cells(BinaryStructure, B.space, B.binary.cells()),
                       from_cells(TernaryStructure, B.space, B.ternary.cells()))
        assert sb.center(B).dim == 0
        assert not {"first", "mid"} & set(vars(B.ternary)), B.name
