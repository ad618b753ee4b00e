from fractions import Fraction

import pytest

import superbol as sb
from superbol.structures import AlgebraDef, BinaryStructure


def _sl2():
    # [e,f] = h, [h,e] = 2e, [h,f] = -2f
    sp = sb.SuperSpace.even_first(3, 0)
    return AlgebraDef("sl2", sp, binary=BinaryStructure.from_products(sp, {
        (0, 1): (0, 0, 1),
        (2, 0): (2, 0, 0),
        (2, 1): (0, -2, 0),
    }))


def test_bilinear_form_validation_and_evaluate():
    sp = sb.SuperSpace.even_first(1, 1)
    with pytest.raises(sb.GradingError):
        sb.BilinearForm.from_rows(sp, ((0, 1), (1, 0)))  # pairs even with odd
    b = sb.BilinearForm.from_rows(sp, ((2, 0), (0, 3)))
    e1, e2 = sp.basis()
    assert b.evaluate(e1 + e2, e1 - e2) == Fraction(-1)
    assert b.evaluate(e1, e1) == 2


def test_supersymmetry_of_odd_block():
    # an odd diagonal entry must vanish: b(x,x) = -b(x,x) for odd x
    sp = sb.SuperSpace.even_first(1, 1)
    assert not sb.BilinearForm.from_rows(sp, ((2, 0), (0, 3))).is_supersymmetric()
    assert sb.BilinearForm.from_rows(sp, ((2, 0), (0, 0))).is_supersymmetric()


def test_killing_form_of_aff2():
    form = sb.killing_form(sb.catalog.load("aff2_lie"))
    assert form.gram == ((1, 0), (0, 0))
    assert form.is_supersymmetric()
    assert not form.is_nondegenerate()
    assert form.radical().dim == 1


def test_killing_form_of_sl2():
    form = sb.killing_form(_sl2())
    assert form.gram == ((0, 4, 0), (4, 0, 0), (0, 0, 8))
    assert form.is_nondegenerate()


def test_killing_form_requires_lie():
    B = sb.catalog.load("L2_3_1_bol")
    binary_only = AlgebraDef("nl", B.space, binary=B.binary)
    with pytest.raises(sb.AxiomError):
        sb.killing_form(binary_only)


def test_right_map_frozen():
    B = sb.catalog.load("L2_3_1_bol")
    e1, e2, e3, e4 = B.space.basis()
    R = sb.right_map(B, e3, e3)
    assert R.degree == 0
    assert R(e1) == e1
    assert R(e2) == 2 * e1 + e2
    assert R(e3).is_zero()
    assert R(e4) == e4
    assert R.supertrace == 1  # 1 + 1 + 0 - 1


def test_killing_ricci_frozen_grams():
    expected = {
        "L2_3_1_bol": ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0)),
        "L2_2_2_bol": ((-2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
        "abelian_2_2": tuple((0,) * 4 for _ in range(4)),
    }
    for key, gram in expected.items():
        B = sb.catalog.load(key)
        assert sb.killing_ricci(B, "restriction").gram == gram
        assert sb.killing_ricci(B, "direct").gram == gram


def test_killing_ricci_supertrace_route_explicitly():
    """beta(e3,e3) = str(R + R) on L2_3_1, tying the gram to right_map."""
    B = sb.catalog.load("L2_3_1_bol")
    e3 = B.space.basis()[2]
    R = sb.right_map(B, e3, e3)
    assert sb.killing_ricci(B, "direct").gram[2][2] == (R + R).supertrace


def test_killing_ricci_rejects_other_methods():
    B = sb.catalog.load("abelian_2_2")
    with pytest.raises(ValueError):
        sb.killing_ricci(B, "sideways")


def test_invariance_report_on_catalog_forms():
    for key in ("L2_2_2_bol", "L2_3_1_bol", "abelian_2_2"):
        B = sb.catalog.load(key)
        beta = sb.killing_ricci(B, "direct")
        rep = sb.check_invariant(B, beta)
        assert rep.passed, key
        assert rep.inva1 and rep.inva2 and rep.inva3
        assert rep.equivalence_consistent
        assert beta.is_supersymmetric()


def test_non_invariant_form_is_flagged():
    B = sb.catalog.load("L2_3_1_bol")
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 1
    rep = sb.check_invariant(B, sb.BilinearForm.from_rows(B.space, rows))
    assert not rep.passed
    w = rep.product_invariance.first_failure
    assert w.at == ("e1", "e1", "e3")
    assert w.defect == -1


def test_orthogonal_subspaces():
    B = sb.catalog.load("L2_3_1_bol")
    beta = sb.killing_ricci(B, "direct")
    e = B.space.basis()
    perp = sb.orthogonal(beta, sb.span_reduce(B.space, [e[2]]))
    assert perp.dim == 3
    assert perp.contains(e[0]) and perp.contains(e[1]) and perp.contains(e[3])
    assert not perp.contains(e[2])
    assert beta.radical().dim == 3


def test_semisimplicity_report_solvable_case():
    B = sb.catalog.load("L2_3_1_bol")
    K = sb.span_reduce(B.space, [B.space.basis()[0]])
    semi = sb.semisimplicity_report(B, ideals=(K,))
    assert semi.base_dim == 4 and semi.envelope_dim == 8
    assert semi.cross_block_vanishes
    assert semi.pairing_identity is True
    assert not semi.beta_nondegenerate
    assert not semi.alpha_nondegenerate
    assert semi.orthogonal_center_match is None  # only meaningful when beta is nondegenerate
    assert semi.ideal_orthogonals == ((1, 4, sb.IDEAL),)


def test_semisimplicity_report_nondegenerate_case():
    """The derived Bol structure of sl2 has nondegenerate beta and a
    semisimple standard envelope."""
    B = sb.malcev_to_bol(_sl2())
    assert sb.killing_ricci(B, "direct").gram == ((0, 8, 0), (8, 0, 0), (0, 0, 16))
    semi = sb.semisimplicity_report(B)
    assert semi.envelope_dim == 6
    assert semi.beta_nondegenerate
    assert semi.alpha_nondegenerate
    assert semi.cross_block_vanishes and semi.pairing_identity
    assert semi.orthogonal_center_match is True
    rep = sb.check_invariant(B, semi.beta)
    assert rep.passed and rep.equivalence_consistent


def test_invariance_visits_only_the_support(monkeypatch):
    """The zero form on an algebra with no products has no tuple where a
    term of any form identity can be nonzero, so no sign is taken."""
    Z = sb.catalog.load("abelian_16_0")
    zero = sb.BilinearForm.from_rows(Z.space, [[0] * 16] * 16)
    calls = []
    monkeypatch.setattr(sb.forms, "sign", lambda e: calls.append(e) or sb.sign(e))
    report = sb.check_invariant(Z, zero)
    assert report.passed and report.equivalence_consistent
    assert calls == []
