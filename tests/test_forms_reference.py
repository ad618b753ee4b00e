"""Maps and forms against the slow reference.

`slow_reference` keeps GradedMap application and composition,
graded_commutator, BilinearForm.evaluate, killing_form, check_invariant,
orthogonal and the pairing identity as dense loops.  The package reads
the sparse views of maps, forms and structures through one contraction
routine instead; both must give the same values, scalar types included
(ints where a value is integral), and check_invariant the same reports:
witnesses in the same order with the same defects, and the same inva
flags.  Inputs are catalog algebras, bol(osp(1|2)), standard and
maximal envelopes, dense even re-basings, Lie algebras with their
constants scaled to have denominators, and random Gram matrices that
are neither invariant nor supersymmetric, so that witness lists are not
empty.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from superbol.forms import _pairing_identity
from superbol.structures import AlgebraDef, BinaryStructure
from test_reference import (BOLS, HALF, POOL, VALUES, even_map, from_cells, random_pair,
                            transport)


def typed(values):
    return [(type(c), c) for c in values]


def typed_map(f):
    return (f.degree, [typed(row) for row in f.matrix])


def typed_report(report):
    return [(w.axiom, w.at, type(w.defect), w.defect) for w in report.witnesses]


def random_form(space, rng, symmetric=False):
    """A random even Gram matrix; supersymmetric when asked, else usually not."""
    n = space.dim
    par = space.parities
    gram = [[rng.choice(VALUES) if par[i] == par[j] else 0 for j in range(n)]
            for i in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                gram[i][j] = sb.sign(par[i] * par[j]) * gram[j][i]
            if par[i]:
                gram[i][i] = 0
    return sb.BilinearForm.from_rows(space, gram)


def random_vector(space, rng):
    return space.vector([rng.choice(VALUES) for _ in range(space.dim)])


def _envelopes():
    out = []
    for B in BOLS:
        out.append(sb.enveloping(B).lie)
        out.append(sb.enveloping(B, sb.ps_space(B)).lie)
    return out


LIES = [A for A in POOL if A.binary is not None and sb.check_axioms(A, "lie").passed]
ENVELOPES = _envelopes()


def typed_gram(form):
    return [typed(row) for row in form.gram]


def assert_same_killing(L):
    assert typed_gram(sb.killing_form(L)) == typed_gram(slow_reference.killing_form(L)), L.name


def assert_same_invariance(B, b):
    fast = sb.check_invariant(B, b)
    slow = slow_reference.check_invariant(B, b)
    assert fast == slow, B.name
    for mine, theirs in ((fast.supersymmetry, slow.supersymmetry),
                         (fast.product_invariance, slow.product_invariance),
                         (fast.triple_invariance, slow.triple_invariance)):
        assert typed_report(mine) == typed_report(theirs), B.name
    assert (fast.inva1, fast.inva2, fast.inva3) == (slow.inva1, slow.inva2, slow.inva3)
    assert b.is_supersymmetric() == slow_reference.is_supersymmetric(b)
    return fast


def test_killing_forms_match_the_reference():
    for L in LIES + ENVELOPES:
        assert_same_killing(L)


# the Lie check of a dense re-basing takes about a second from dim 13 on
SMALL_LIES = LIES + [L for L in ENVELOPES if L.space.dim <= 8]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(SMALL_LIES) - 1), st.integers(0, 2 ** 32))
def test_killing_forms_on_dense_rebasings_match_the_reference(index, seed):
    L = SMALL_LIES[index]
    assert_same_killing(transport(L, even_map(L.space, random.Random(seed))))


def fractional(L, b):
    """L with its constants times b: a Lie superalgebra again, with denominators."""
    return AlgebraDef("%s*%s" % (L.name, b), L.space, binary=from_cells(BinaryStructure, L.space, {
        at: tuple((t, b * c) for t, c in entry) for at, entry in L.binary.cells().items()}))


def test_killing_forms_of_fraction_constants_match_the_reference():
    """killing_form reads the integer table k L that the Lie check swept, k
    the lcm of L's denominators, and divides by k^2: the same forms, types
    included, on constants with denominators, a dense re-basing of one, and
    the envelopes of bol(osp(1|2)), whose constants have k = 2."""
    scaled = [fractional(L, b) for L in LIES if L.binary.cells() for b in (HALF, Fraction(2, 3))]
    inputs = scaled + [transport(scaled[0], even_map(scaled[0].space, random.Random(19)))] + [
        L for L in ENVELOPES if L.name == "env(bol(osp12))"]
    for L in inputs:
        assert_same_killing(L)
    assert len(inputs) > 10 and all(L._lifted[0] > 1 for L in inputs)


def test_killing_ricci_invariance_matches_the_reference():
    for B in BOLS:
        for method in ("direct", "restriction"):
            report = assert_same_invariance(B, sb.killing_ricci(B, method))
            assert report.passed and report.equivalence_consistent


def test_invariance_witnesses_of_supersymmetric_forms_match_the_reference():
    rng = random.Random(3)
    found = set()
    for B in BOLS:
        for _ in range(3):
            report = assert_same_invariance(B, random_form(B.space, rng, symmetric=True))
            assert report.supersymmetry.passed
            found.update(w.axiom for w in report.witnesses)
    assert found == {"product-invariance", "triple-invariance"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(BOLS) - 1), st.integers(0, 2 ** 32), st.booleans(), st.booleans())
def test_invariance_of_random_forms_matches_the_reference(index, seed, symmetric, dense):
    rng = random.Random(seed)
    B = BOLS[index]
    if dense:
        B = transport(B, even_map(B.space, rng))
    assert_same_invariance(B, random_form(B.space, rng, symmetric))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(0, 2 ** 32))
def test_evaluate_and_orthogonal_match_the_reference(index, seed):
    rng = random.Random(seed)
    space = POOL[index].space
    b = random_form(space, rng, symmetric=rng.random() < 0.5)
    for _ in range(3):
        x, y = random_vector(space, rng), random_vector(space, rng)
        assert typed([b.evaluate(x, y)]) == typed([slow_reference.evaluate(b, x, y)])
    vectors = [random_vector(space, rng) for _ in range(rng.randrange(space.dim + 1))]
    V = sb.span_reduce(space, vectors)
    for W in (V, sb.whole_space(space)):
        fast = sb.orthogonal(b, W)
        assert fast == slow_reference.orthogonal(b, W)
        assert [typed(v.coords) for v in fast.basis] == \
            [typed(v.coords) for v in slow_reference.orthogonal(b, W).basis]


def random_map(space, rng, degree):
    n = space.dim
    par = space.parities
    return sb.GradedMap.from_rows(space, degree, [
        [rng.choice(VALUES) if par[t] == (par[m] + degree) % 2 else 0 for m in range(n)]
        for t in range(n)])


def assert_same_maps(f, g, rng):
    v = random_vector(f.space, rng)
    assert typed(f(v).coords) == typed(slow_reference.apply(f, v).coords)
    assert typed_map(f.compose(g)) == typed_map(slow_reference.compose(f, g))
    assert typed_map(sb.graded_commutator(f, g)) == \
        typed_map(slow_reference.graded_commutator(f, g))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(0, 2 ** 32))
def test_random_maps_match_the_reference(index, seed):
    rng = random.Random(seed)
    space = POOL[index].space
    f = random_map(space, rng, rng.randrange(2))
    g = random_map(space, rng, rng.randrange(2))
    assert_same_maps(f, g, rng)
    assert_same_maps(g, f, rng)


def test_pair_operators_match_the_reference():
    rng = random.Random(1)
    for B in BOLS:
        ops = [p.operator for p in sb.ps_space(B).basis]
        ops += [random_pair(B, rng).operator for _ in range(3)]
        for f in ops:
            for g in ops:
                assert_same_maps(f, g, rng)


def test_pairing_identity_matches_the_reference():
    rng = random.Random(2)
    for B in BOLS + [transport(B, even_map(B.space, rng)) for B in BOLS]:
        env = sb.enveloping(B)
        alpha = sb.killing_form(env.lie)
        beta = sb.killing_ricci(B, "direct")
        forms = [(alpha, beta)] + [(random_form(env.lie.space, rng, True),
                                    random_form(B.space, rng, True)) for _ in range(2)]
        forms.append((alpha, random_form(B.space, rng)))
        for a, b in forms:
            assert _pairing_identity(B, env, a, b) == \
                slow_reference.pairing_identity(B, env, a, b), B.name
        assert sb.semisimplicity_report(B).pairing_identity is True


ZEROS = [sb.catalog.load(key) for key in ("abelian_2_2", "abelian_3_1")]


def off_the_products(B, form):
    """form with every row and column cleared whose basis vector some product
    reaches: each product then pairs to zero on both sides, and the form's
    support lies where the contracted tables have none."""
    reached = {t for st in (B.binary, B.ternary) for entry in st.cells().values()
               for t, _ in entry}
    return sb.BilinearForm.from_rows(B.space, [
        [0 if i in reached or j in reached else c for j, c in enumerate(row)]
        for i, row in enumerate(form.gram)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(ZEROS + BOLS) - 1), st.integers(0, 2 ** 32), st.booleans())
def test_forms_off_the_products_match_the_reference(index, seed, symmetric):
    rng = random.Random(seed)
    B = (ZEROS + BOLS)[index]
    b = off_the_products(B, random_form(B.space, rng, symmetric))
    assert_same_invariance(B, b)
    env = sb.enveloping(B)
    alpha = random_form(env.lie.space, rng, True)
    assert _pairing_identity(B, env, alpha, b) == slow_reference.pairing_identity(B, env, alpha, b)
