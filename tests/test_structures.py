import itertools
import random
import re

import pytest

import slow_reference
import superbol as sb
from superbol import structures
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure
from test_orbits import random_algebra
from test_reference import from_cells


def _nonmalcev():
    # [e1,e2] = e3, [e1,e3] = e1 breaks the Malcev identity at (e1,e1,e2,e2)
    sp = sb.SuperSpace.even_first(3, 0)
    return AlgebraDef("nonmalcev", sp, binary=BinaryStructure.from_products(
        sp, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}))


def test_skew_completion_fills_the_mirror():
    sp = sb.SuperSpace.even_first(2, 2)
    b = BinaryStructure.from_products(sp, {(0, 1): (0, 1, 0, 0), (2, 3): (1, 0, 0, 0)})
    # even-even mirror picks up a minus sign, odd-odd mirror does not
    assert b.table[1][0] == (0, -1, 0, 0)
    assert b.table[3][2] == (1, 0, 0, 0)


def test_even_square_must_vanish():
    sp = sb.SuperSpace.even_first(2, 0)
    with pytest.raises(sb.StructureError):
        BinaryStructure.from_products(sp, {(0, 0): (0, 1)})
    # odd squares are real data
    sp2 = sb.SuperSpace.even_first(1, 1)
    b = BinaryStructure.from_products(sp2, {(1, 1): (1, 0)})
    assert b.table[1][1] == (1, 0)


def test_contradictory_listing_is_an_error():
    sp = sb.SuperSpace.even_first(2, 0)
    with pytest.raises(sb.StructureError):
        BinaryStructure.from_products(
            sp, {(0, 1): (1, 0), (1, 0): (1, 0)})  # should be (-1, 0)
    # consistent double listing is accepted
    b = BinaryStructure.from_products(sp, {(0, 1): (1, 0), (1, 0): (-1, 0)})
    assert b.table[0][1] == (1, 0)


def test_grading_violation_rejected():
    sp = sb.SuperSpace.even_first(1, 1)
    with pytest.raises(sb.GradingError):
        # even*odd product must be odd, e1 is even
        BinaryStructure.from_products(sp, {(0, 1): (1, 0)})


def test_ternary_completion_first_two_slots():
    sp = sb.SuperSpace.even_first(2, 0)
    t = TernaryStructure.from_products(sp, {(0, 1, 0): (0, 1)})
    assert t.table[1][0][0] == (0, -1)
    assert t.table[0][0][0] == (0, 0)


def test_eval_is_bilinear():
    M = sb.catalog.load("L2_2_2_malcev")
    e1, e2, e3, e4 = M.space.basis()
    assert M.product(e1 + e2, e3) == e3 - e4
    assert M.product(2 * e1, e4) == -2 * e4


def test_malcev_fails_lie_with_frozen_witness():
    M = sb.catalog.load("L2_2_2_malcev")
    rep = sb.check_axioms(M, "lie")
    assert not rep.passed
    w = rep.first_failure
    assert w.axiom == "jacobi"
    assert w.at == ("e1", "e2", "e3")
    assert w.defect.coords == (0, 0, 0, -3)
    assert "FAIL" in str(rep)


def test_catalog_entries_pass_their_declared_kind():
    for ent in sb.catalog.entries():
        assert sb.check_axioms(ent.algebra, ent.kind).passed, ent.key


def test_kind_alias_lts():
    L = sb.lie_to_supertriple(sb.catalog.load("aff2_lie"))
    assert sb.check_axioms(L, "lts").passed
    assert sb.check_axioms(L, "lie_supertriple").passed
    with pytest.raises(ValueError):
        sb.check_axioms(L, "frobnicate")


def test_require_axioms_raises_with_report():
    A = _nonmalcev()
    with pytest.raises(sb.AxiomError) as exc:
        sb.require_axioms(A, "malcev")
    rep = exc.value.report
    assert not rep.passed
    w = rep.first_failure
    assert w.at == ("e1", "e1", "e2", "e2")
    assert w.defect.coords == (0, 0, -1)


def test_supertriple_axioms_on_derived_system():
    L = sb.lie_to_supertriple(sb.catalog.load("aff2_lie"))
    assert sb.check_axioms(L, "supertriple").passed


def test_center_of_catalog_algebras():
    assert sb.center(sb.catalog.load("L2_3_1_bol")).dim == 0
    assert sb.center(sb.catalog.load("L2_2_2_bol")).dim == 0
    assert sb.center(sb.catalog.load("abelian_2_2")).dim == 4
    # works with a binary-only definition too
    assert sb.center(sb.catalog.load("aff2_lie")).dim == 0


def test_center_of_a_large_zero_table():
    # the sweeps and the center skip zero tables: dim 24 takes well under
    # a second where a dense sweep over all tuples takes minutes
    ent = sb.catalog.entry("abelian_24_0")
    Z = sb.center(ent.algebra)
    assert Z.dim == 24
    assert Z == sb.whole_space(ent.algebra.space)


def test_classify_ladder_on_l2_3_1():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    span = lambda *vs: sb.span_reduce(B.space, list(vs))
    assert sb.classify_subspace(B, span(e[3])) == sb.NOT_CLOSED  # [e4,e4] = e1
    assert sb.classify_subspace(B, span(e[2])) == sb.SUBSUPERALGEBRA
    assert sb.classify_subspace(B, span(e[0])) == sb.IDEAL
    assert sb.classify_subspace(B, span(e[0], e[1])) == sb.IDEAL
    assert sb.classify_subspace(B, sb.whole_space(B.space)) == sb.IDEAL


def test_identity_is_a_morphism():
    B = sb.catalog.load("L2_2_2_bol")
    rep = sb.check_morphism(sb.GradedMap.identity(B.space), B, B)
    assert rep.passed


def test_rescaling_one_generator_breaks_the_morphism():
    B = sb.catalog.load("L2_2_2_bol")
    rows = [[0] * 4 for _ in range(4)]
    for i, c in enumerate((1, 2, 1, 1)):
        rows[i][i] = c
    rep = sb.check_morphism(sb.GradedMap.from_rows(B.space, 0, rows), B, B)
    assert not rep.passed
    w = rep.first_failure
    assert w.axiom == "binary-hom"
    assert w.at == ("e2", "e3")
    assert w.defect.coords == (0, 0, 0, -1)


def test_diagonal_automorphism_family():
    B = sb.catalog.load("L2_2_2_bol")
    rows = [[0] * 4 for _ in range(4)]
    for i, c in enumerate((1, 5, 7, 35)):  # diag(1, mu, nu, mu*nu)
        rows[i][i] = c
    assert sb.check_morphism(sb.GradedMap.from_rows(B.space, 0, rows), B, B).passed


def test_completed_rescaling_of_l2_3_1_triple_stays_bol():
    """With the skew mirror kept consistent, {e1,e3,e3} = 2e1 is still Bol:
    the rescaled constant never meets the other axioms."""
    B = sb.catalog.load("L2_3_1_bol")
    t = TernaryStructure.from_products(B.space, {
        (0, 2, 2): (2, 0, 0, 0),
        (1, 2, 2): (2, 1, 0, 0),
        (2, 3, 2): (0, 0, 0, -1),
    })
    mutant = AlgebraDef("mutant", B.space, binary=B.binary, ternary=t)
    assert sb.check_axioms(mutant, "bol").passed


def test_witness_str_mentions_location():
    M = sb.catalog.load("L2_2_2_malcev")
    w = sb.check_axioms(M, "lie").first_failure
    text = str(w)
    assert "e1" in text and "jacobi" in text


@pytest.mark.parametrize("cls, arity", [(BinaryStructure, 2), (TernaryStructure, 3)])
@pytest.mark.parametrize("bad", ["negative", "too large", "wrong arity"])
def test_from_products_rejects_bad_keys(cls, arity, bad):
    sp = sb.SuperSpace.even_first(2, 1)
    n = sp.dim
    key = {"negative": (-1,) + (0,) * (arity - 1),
           "too large": (n,) + (0,) * (arity - 1),
           "wrong arity": (0,) * (5 - arity)}[bad]
    with pytest.raises(sb.StructureError, match=re.escape(repr(key))):
        cls.from_products(sp, {key: (0, 0, 1)})


def test_classify_matches_the_reference_on_every_basis_span(monkeypatch):
    """classify_subspace against slow_reference's, on the span of every subset
    of the basis of each catalog algebra and of lts(aff2_lie): the same
    outcome after the same containment tests, in the same order.  The spans
    reach all four outcomes, and algebras with a binary product only, a
    ternary one only, and both."""
    asked = []
    contains = sb.Subspace.contains
    monkeypatch.setattr(sb.Subspace, "contains", lambda V, v: asked.append(v) or contains(V, v))
    algebras = [e.algebra for e in sb.catalog.entries()]
    algebras.append(sb.lie_to_supertriple(sb.catalog.load("aff2_lie")))
    outcomes, kinds = set(), set()
    for A in algebras:
        basis = A.space.basis()
        for k in range(len(basis) + 1):
            for subset in itertools.combinations(basis, k):
                V = sb.span_reduce(A.space, list(subset))
                got = sb.classify_subspace(A, V)
                fast = asked[:]
                asked.clear()
                assert got == slow_reference.classify_subspace(A, V), (A.name, subset)
                assert asked == fast, (A.name, subset)
                asked.clear()
                outcomes.add(got)
        kinds.add((A.binary is not None, A.ternary is not None))
    assert outcomes == {sb.NOT_CLOSED, sb.SUBSUPERALGEBRA, sb.INVARIANT, sb.IDEAL}
    assert kinds == {(True, False), (False, True), (True, True)}


@pytest.mark.parametrize("seed", range(4))
def test_skew_sweeps_evaluate_the_first_two_indices_in_order(monkeypatch, seed):
    """skew and triple-skew evaluate each tuple whose first two indices are in
    order, once, where it or its swap has a nonzero product, and hand the
    swapped copies to the orbit expansion: on the lifted tables, divided by
    L^weight, the reference's witnesses, scalar types included, from every
    tuple, on super skew tables and on tables whose skew sweeps fail, catalog
    and random, binary and ternary."""
    evaluated = []
    expand = structures._orbit_witnesses

    def counting(axiom, space, defects, moves):
        defects = list(defects)
        evaluated.extend((axiom, at) for at, _ in defects)
        return expand(axiom, space, defects, moves)

    monkeypatch.setattr(structures, "_orbit_witnesses", counting)
    rng = random.Random(seed)
    sp = sb.SuperSpace.even_first(2, 1)
    one_sided = AlgebraDef("one-sided", sp, from_cells(BinaryStructure, sp, {(0, 1): ((0, 1),)}),
                           from_cells(TernaryStructure, sp, {(2, 0, 2): ((1, 1),)}))
    algebras = [one_sided] + [e.algebra for e in sb.catalog.entries()] + [
        random_algebra(rng, rng.randint(1, 6), binary, ternary)
        for binary in ("random", "skew") for ternary in ("random", "skew")]
    verdicts = set()
    for A in algebras:
        L, lifted = A._lifted
        for st, reference in ((A.binary, slow_reference._sweep_binary_skew),
                              (A.ternary, slow_reference._sweep_ternary_skew)):
            if st is None:
                continue
            evaluated.clear()
            axiom = "skew" if st.ARITY == 2 else "triple-skew"
            found = structures._witnesses(axiom, A.space, structures._skew(
                A.space, lifted[st.NAME]), L ** (st.ARITY - 1))
            kept = {at if at[0] <= at[1] else (at[1], at[0]) + at[2:] for at in st.cells()}
            assert sorted(evaluated) == sorted((axiom, at) for at in kept), (A.name, axiom)
            slow = tuple(reference(A.space, st.table))
            assert [(w, [type(c) for c in w.defect.coords]) for w in found] == [
                (w, [type(c) for c in w.defect.coords]) for w in slow], (A.name, axiom)
            verdicts.add((axiom, not found))
    assert verdicts == {("skew", True), ("skew", False),
                        ("triple-skew", True), ("triple-skew", False)}
