"""Covariance under an even change of basis g.

`transport(A, g)` is the algebra C whose e_i is g(e_i) of A, so x -> g x
maps C onto A.  Then:

* the Killing form of C is g^T kappa g, kappa the Killing form of A;
* check_invariant gives C and the pulled-back form g^T b g the same
  verdicts and the same inva1/inva2/inva3 flags as A and b, for
  Killing-Ricci forms and for random forms that fail invariance;
* g maps the center of C onto the center of A;
* malcev_to_bol commutes with transport: the Bol algebra of C is the
  transport of the Bol algebra of A;
* g^-1 (P, a) = (g^-1 P g, g^-1 a) maps the pairs of A onto those of C:
  ips_space and ps_space of C are the images of A's, and the companions
  of g^-1 P g on C are the images of those of P on A.  With g = L id, L
  the lcm of A's denominators, C has exactly A's lifted tables.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import superbol as sb
from superbol.graded import rat
from test_forms_reference import random_form
from test_reference import BOLS, LIFTED, POOL, _osp12, even_map, transport


def pulled_back(b, g):
    """The Gram matrix of (x, y) -> b(g x, g y): g^T b g."""
    n = b.space.dim
    G = g.matrix
    return sb.BilinearForm(b.space, tuple(tuple(
        rat(sum(G[a][i] * b.gram[a][c] * G[c][j] for a in range(n) for c in range(n)))
        for j in range(n)) for i in range(n)))


def _lies():
    osp = _osp12()
    return [sb.catalog.load("aff2_lie"), osp,
            sb.enveloping(sb.catalog.load("L2_3_1_bol")).lie,
            sb.enveloping(sb.malcev_to_bol(osp)).lie]


LIES = _lies()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, len(LIES) - 1), st.integers(0, 2 ** 32))
def test_killing_form_transforms_as_gt_kappa_g(index, seed):
    L = LIES[index]
    g = even_map(L.space, random.Random(seed))
    assert sb.killing_form(transport(L, g)) == pulled_back(sb.killing_form(L), g)


def verdicts(report):
    return (report.supersymmetry.passed, report.product_invariance.passed,
            report.triple_invariance.passed, report.inva1, report.inva2, report.inva3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(BOLS) - 1), st.integers(0, 2 ** 32), st.sampled_from(
    ("killing-ricci", "supersymmetric", "random")))
def test_check_invariant_keeps_verdicts_and_flags(index, seed, which):
    rng = random.Random(seed)
    B = BOLS[index]
    g = even_map(B.space, rng)
    if which == "killing-ricci":
        b = sb.killing_ricci(B, "direct")
    else:
        b = random_form(B.space, rng, symmetric=which == "supersymmetric")
    before = sb.check_invariant(B, b)
    after = sb.check_invariant(transport(B, g), pulled_back(b, g))
    assert verdicts(after) == verdicts(before)
    assert after.passed or which != "killing-ricci"


def _heisenberg():
    """[x, y] = z and [a, a] = [b, b] = z: a Lie superalgebra with center span(z)."""
    space = sb.SuperSpace.even_first(("x", "y", "z"), ("a", "b"))
    z = (0, 0, 1, 0, 0)
    return sb.AlgebraDef("heis", space, binary=sb.BinaryStructure.from_products(
        space, {(0, 1): z, (3, 3): z, (4, 4): z}))


CENTERED = POOL + [_heisenberg(), sb.malcev_to_bol(_heisenberg())]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(CENTERED) - 1), st.integers(0, 2 ** 32))
def test_g_maps_the_center_onto_the_center(index, seed):
    A = CENTERED[index]
    g = even_map(A.space, random.Random(seed))
    Z = sb.center(transport(A, g))
    assert sb.span_reduce(A.space, [g(z) for z in Z.basis]) == sb.center(A)


MALCEVS = [A for A in POOL if A.ternary is None and sb.check_axioms(A, "malcev").passed]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, len(MALCEVS) - 1), st.integers(0, 2 ** 32))
def test_malcev_to_bol_commutes_with_even_changes_of_basis(index, seed):
    M = MALCEVS[index]
    g = even_map(M.space, random.Random(seed))
    left = sb.malcev_to_bol(transport(M, g))
    right = transport(sb.malcev_to_bol(M), g)
    assert left == right.renamed(left.name)


PAIRED = [A for A in BOLS + LIFTED if sb.check_axioms(A, "bol").passed]


def assert_pairs_map_under(A, g):
    """Pair spaces and companion sets of C = transport(A, g) are g^-1 of A's."""
    ginv, C = g.inverse(), transport(A, g)

    def conjugated(P):
        return ginv.compose(P).compose(g)

    for build in (sb.ips_space, sb.ps_space):
        images = [sb.PseudoDerivationPair(conjugated(p.operator), ginv(p.companion))
                  for p in build(A).basis]
        assert build(C) == sb.PairSpace.from_pairs(C, images), A.name
    for P in [p.operator for p in sb.ps_space(A).basis] + [sb.GradedMap.identity(A.space)]:
        here, there = sb.companion_space(A, P), sb.companion_space(C, conjugated(P))
        assert (here.is_empty, here.dim) == (there.is_empty, there.dim), A.name
        if not here.is_empty:
            # the point and the point plus each direction, mapped by g^-1
            for d in ((0,) * A.space.dim,) + here.directions:
                moved = ginv(A.space.vector([a + b for a, b in zip(here.point, d)]))
                assert there.contains(moved.coords), A.name


@settings(max_examples=10, deadline=None)
@given(st.integers(0, len(PAIRED) - 1), st.integers(0, 2 ** 32))
def test_g_maps_pair_spaces_and_companions(index, seed):
    A = PAIRED[index]
    assert_pairs_map_under(A, even_map(A.space, random.Random(seed)))


def test_the_lift_is_the_change_of_basis_by_L():
    for A in PAIRED:
        L, lifted = A._lifted
        g = L * sb.GradedMap.identity(A.space)
        C = transport(A, g)
        assert (C.binary, C.ternary) == (lifted["binary"], lifted["ternary"]), A.name
        assert_pairs_map_under(A, g)
