import random
from fractions import Fraction

import pytest

from bench_inputs import inputs
import slow_reference
import superbol as sb
from superbol.structures import AlgebraDef, BinaryStructure
from test_reference import rescaled


def test_lie_to_supertriple_on_aff2():
    L = sb.lie_to_supertriple(sb.catalog.load("aff2_lie"))
    assert L.binary is None
    e1, e2 = L.space.basis()
    assert L.triple(e1, e2, e1) == -e2  # [[e1,e2],e1] = [e2,e1]
    assert L.triple(e1, e2, e2) == L.space.zero()
    assert sb.check_axioms(L, "lie_supertriple").passed


def test_lie_to_supertriple_matches_iterated_bracket():
    """On a Lie superalgebra with interleaved parities (an envelope),
    the derived triple is [[x,y],z] on every basis triple."""
    env = sb.enveloping(sb.catalog.load("L2_2_2_bol"))
    L = env.lie
    T = sb.lie_to_supertriple(L)
    basis = L.space.basis()
    for x in basis:
        for y in basis:
            xy = L.product(x, y)
            for z in basis:
                assert T.triple(x, y, z) == L.product(xy, z)


def test_lie_to_supertriple_rejects_non_lie():
    with pytest.raises(sb.AxiomError):
        sb.lie_to_supertriple(sb.catalog.load("L2_2_2_malcev"))


def test_malcev_to_bol_frozen_table():
    B = sb.malcev_to_bol(sb.catalog.load("L2_2_2_malcev"))
    e1, e2, e3, e4 = B.space.basis()
    assert B.triple(e1, e2, e1) == -e2
    assert B.triple(e1, e3, e1) == -e3
    assert B.triple(e1, e4, e1) == -e4
    # mirrors forced by skew-symmetry in the first two slots
    assert B.triple(e2, e1, e1) == e2
    assert sb.check_axioms(B, "bol").passed
    # the binary product is carried over unchanged
    assert B.binary == sb.catalog.load("L2_2_2_malcev").binary


def test_malcev_to_bol_brute_force_oracle():
    """Independent expansion of the 1/3-combination on all basis triples,
    using only binary products."""
    M = sb.catalog.load("L2_2_2_malcev")
    B = sb.malcev_to_bol(M)
    basis = M.space.basis()
    par = M.space.parities
    third = Fraction(1, 3)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                s1 = sb.sign(par[i] * (par[j] + par[k]))
                s2 = sb.sign(par[k] * (par[i] + par[j]))
                expected = third * (
                    2 * M.product(M.product(x, y), z)
                    - s1 * M.product(M.product(y, z), x)
                    - s2 * M.product(M.product(z, x), y))
                assert B.triple(x, y, z) == expected


def test_malcev_to_bol_on_a_lie_algebra():
    # Lie superalgebras are Malcev; aff2 derives to a Bol structure
    B = sb.malcev_to_bol(sb.catalog.load("aff2_lie"))
    assert sb.check_axioms(B, "bol").passed
    e1, e2 = B.space.basis()
    assert B.triple(e1, e2, e1) == -e2


def test_malcev_to_bol_rejects_non_malcev():
    sp = sb.SuperSpace.even_first(3, 0)
    A = AlgebraDef("nonmalcev", sp, binary=BinaryStructure.from_products(
        sp, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}))
    with pytest.raises(sb.AxiomError):
        sb.malcev_to_bol(A)


def test_derived_bol_of_abelian_is_abelian():
    B = sb.malcev_to_bol(sb.catalog.load("abelian_2_2"))
    n = B.space.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert not any(B.ternary.table[i][j][k])


def test_malcev_to_bol_matches_the_full_evaluation_of_every_tuple():
    """malcev_to_bol evaluates {x,y,z} on i <= j only and mirrors the rest;
    the table must equal the 1/3-combination evaluated on all n^3 tuples
    through the slow reference's dense products, with its scalar types, on
    the sparse ladder, a dense copy and a Fraction-constant algebra."""
    M7, osp = inputs.m7(), inputs.osp12()
    half = Fraction(1, 2)
    algebras = [M7, osp, inputs.direct_sum(M7, osp, "M7+osp12"),
                inputs.transport(osp, inputs.dense_even_map(random.Random(1), osp.space), "dense"),
                rescaled(M7, half, half ** 2, "M7/2")]
    assert any(type(c) is Fraction for e in algebras[3].binary.cells().values() for _, c in e)
    for M in algebras:
        full = slow_reference.bol_cells(M)
        cells = sb.malcev_to_bol(M).ternary.cells()
        assert cells == full, M.name
        assert [(type(c), c) for e in cells.values() for _, c in e] == \
            [(type(c), c) for at in sorted(cells) for _, c in full[at]], M.name
