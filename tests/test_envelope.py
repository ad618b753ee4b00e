import pytest

import superbol as sb
from superbol import envelope

BOL_KEYS = ("L2_2_2_bol", "L2_3_1_bol", "abelian_2_2")


def test_inner_pair_values():
    B = sb.catalog.load("L2_3_1_bol")
    e1, e2, e3, e4 = B.space.basis()
    p = sb.inner_pair(B, e1, e3)
    assert p.operator.degree == 0
    assert p.operator(e3) == e1
    assert p.operator(e1).is_zero()
    assert p.companion == e1
    q = sb.inner_pair(B, e3, e4)
    assert q.operator.degree == 1
    assert q.operator(e3) == -e4
    assert q.companion == e4


def test_pair_parity_is_enforced():
    B = sb.catalog.load("L2_3_1_bol")
    e1, e2, e3, e4 = B.space.basis()
    op = sb.inner_pair(B, e3, e4).operator  # odd operator
    with pytest.raises(sb.GradingError):
        sb.PseudoDerivationPair(op, e1)  # even companion on an odd pair


def test_pair_flatten_round_trip():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    for pair in (sb.inner_pair(B, e[0], e[2]), sb.inner_pair(B, e[2], e[3])):
        again = sb.PseudoDerivationPair.from_flat(B.space, pair.flatten())
        assert again == pair


def test_identity_probe_fails_pseudo_with_known_defects():
    """P = id, a = 0 gives defect 2[x,y,z] against the triple rule and
    defect x.y against the product rule."""
    B = sb.catalog.load("L2_3_1_bol")
    probe = sb.PseudoDerivationPair(sb.GradedMap.identity(B.space), B.space.zero())
    rep = sb.check_pseudo(B, probe)
    assert not rep.passed
    triple_w = [w for w in rep.witnesses if w.axiom == "derives-triple"]
    product_w = [w for w in rep.witnesses if w.axiom == "derives-product"]
    assert triple_w[0].at == ("e1", "e3", "e3")
    assert triple_w[0].defect.coords == (2, 0, 0, 0)
    assert product_w[0].at == ("e1", "e3")
    assert product_w[0].defect.coords == (1, 0, 0, 0)


def test_inner_pairs_pass_check_pseudo_everywhere():
    for key in BOL_KEYS:
        B = sb.catalog.load(key)
        basis = B.space.basis()
        for x in basis:
            for y in basis:
                assert sb.check_pseudo(B, sb.inner_pair(B, x, y)).passed


def test_pair_bracket_of_odd_pair_with_itself():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    p = sb.inner_pair(B, e[2], e[3])
    br = sb.pair_bracket(B, p, p)
    assert br.operator.is_zero
    assert br.companion == -e[0]


def test_ips_space_frozen_bases():
    ips = sb.ips_space(sb.catalog.load("L2_3_1_bol"))
    assert ips.dim == 4
    assert ips.degree_dims() == (3, 1)
    ips22 = sb.ips_space(sb.catalog.load("L2_2_2_bol"))
    assert ips22.dim == 4
    assert ips22.degree_dims() == (1, 3)
    assert sb.ips_space(sb.catalog.load("abelian_2_2")).dim == 0


def test_ips_space_over_an_ideal():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    K = sb.span_reduce(B.space, [e[0]])
    restricted = sb.ips_space(B, K)
    assert restricted.dim == 1
    pair = restricted.basis[0]
    assert pair.operator(e[2]) == e[0]
    assert pair.companion == e[0]
    assert sb.ips_space(B).contains_space(restricted)


def test_companion_space_values():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    D = sb.inner_pair(B, e[0], e[2]).operator
    aff = sb.companion_space(B, D)
    assert not aff.is_empty
    assert aff.point == (0, 0, 0, 0)
    assert aff.dim == 2
    assert aff.contains(e[0].coords)  # the inner companion e1.e3 = e1
    # an operator violating the triple rule has no companions at all
    assert sb.companion_space(B, sb.GradedMap.identity(B.space)).is_empty


def test_pair_space_closure_check():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    lone = sb.inner_pair(B, e[2], e[3])  # its self-bracket is (0, -e1)
    with pytest.raises(sb.EnvelopeError):
        sb.PairSpace.from_pairs(B, [lone])


def test_ps_space_contains_ips_and_passes_pseudo():
    dims = {}
    for key in BOL_KEYS:
        B = sb.catalog.load(key)
        ps = sb.ps_space(B)
        assert ps.contains_space(sb.ips_space(B))
        for pair in ps.basis:
            assert sb.check_pseudo(B, pair).passed
        dims[key] = ps.dim
    assert dims == {"L2_2_2_bol": 10, "L2_3_1_bol": 9, "abelian_2_2": 20}


def test_enveloping_dims_and_lie_axioms():
    for key in BOL_KEYS:
        B = sb.catalog.load(key)
        env = sb.enveloping(B)
        assert env.dim == B.space.dim + sb.ips_space(B).dim
        assert sb.check_axioms(env.lie, "lie").passed
        maximal = sb.enveloping(B, sb.ps_space(B))
        assert maximal.dim == B.space.dim + sb.ps_space(B).dim
        assert sb.check_axioms(maximal.lie, "lie").passed


def test_enveloping_bracket_blocks():
    B = sb.catalog.load("L2_3_1_bol")
    env = sb.enveloping(B)
    sp = env.lie.space
    bt = env.lie.binary.table
    assert sp.labels == ("e1", "e2", "e3", "e4", "h1", "h2", "h3", "h4")
    assert sp.parities == (0, 0, 0, 1, 0, 0, 1, 0)
    # base x base lands in the pair block: [e1,e3] = (D_{e1,e3}, e1.e3)
    assert sb.SuperVector(sp, bt[0][2]) == sp.vector({"h1": 1, "h4": 1})
    # pair x base acts by the operator, with the sign flip on the other side
    assert sb.SuperVector(sp, bt[4][2]) == sp.vector({"e1": 1})
    assert sb.SuperVector(sp, bt[2][4]) == sp.vector({"e1": -1})
    # pair x pair is the pair bracket: [h3,h3] = -h4
    assert sb.SuperVector(sp, bt[6][6]) == sp.vector({"h4": -1})


def test_enveloping_rejects_too_small_pair_space():
    B = sb.catalog.load("L2_3_1_bol")
    K = sb.span_reduce(B.space, [B.space.basis()[0]])
    small = sb.ips_space(B, K)
    with pytest.raises(sb.EnvelopeError):
        sb.enveloping(B, small)


def test_ideal_envelope_of_span_e1():
    B = sb.catalog.load("L2_3_1_bol")
    e = B.space.basis()
    K = sb.span_reduce(B.space, [e[0]])
    assert sb.classify_subspace(B, K) == sb.IDEAL
    env = sb.enveloping(B)
    ideal = sb.ideal_envelope(B, K, env)
    assert ideal.dim == 2
    sp = env.lie.space
    assert ideal.contains(env.embed_base(e[0]))
    assert ideal.contains(sp.vector({"h1": 1, "h4": 1}))
    # [K, L] lies in K, both orders
    for kappa in ideal.basis:
        for x in sp.basis():
            assert ideal.contains(env.lie.product(kappa, x))
            assert ideal.contains(env.lie.product(x, kappa))


def test_ideal_envelope_builds_the_standard_envelope_when_none_is_given():
    B = sb.catalog.load("L2_3_1_bol")
    K = sb.span_reduce(B.space, [B.space.basis()[0]])
    assert sb.ideal_envelope(B, K) == sb.ideal_envelope(B, K, sb.enveloping(B))


def test_ideal_envelope_rejects_a_combined_subspace_that_is_not_an_ideal(monkeypatch):
    """With IPS(B, K) replaced by the zero pair space, span(e1) alone is not an ideal
    of the envelope: its brackets with the base reach the inner pairs."""
    B = sb.catalog.load("L2_3_1_bol")
    K = sb.span_reduce(B.space, [B.space.basis()[0]])
    env = sb.enveloping(B)
    monkeypatch.setattr(envelope, "ips_space", lambda B, K: sb.PairSpace.from_pairs(B, []))
    with pytest.raises(sb.EnvelopeError, match="^combined subspace is not an ideal of the "
                       "envelope$"):
        sb.ideal_envelope(B, K, env)


def test_pair_labels_step_around_base_labels():
    """A base label h1 pushes the first pair label to h1'; the brackets
    are those of the envelope with the usual labels."""
    B = sb.catalog.load("L2_3_1_bol")
    renamed = sb.parse_algebra(sb.serialize_algebra(B).replace("e1", "h1"))
    assert renamed.space.labels == ("h1", "e2", "e3", "e4")
    env, usual = sb.enveloping(renamed), sb.enveloping(B)
    assert env.lie.space.labels == ("h1", "e2", "e3", "e4", "h1'", "h2", "h3", "h4")
    assert env.lie.binary.entries == usual.lie.binary.entries


def test_ideal_envelope_rejects_non_ideal():
    B = sb.catalog.load("L2_3_1_bol")
    K = sb.span_reduce(B.space, [B.space.basis()[3]])  # span(e4), not closed
    with pytest.raises(sb.StructureError):
        sb.ideal_envelope(B, K)
