"""Nambu and the product rule are the pseudo-derivation rules on the inner pairs.

A Bol algebra's Nambu identity says that D_{x,y} derives the triple
product, and its product rule that (D_{x,y}, x.y) derives the binary
product.  So the `nambu` and `product-rule` witnesses of check_axioms at
(e_i, e_j, ...) must be exactly the `derives-triple` and
`derives-product` witnesses of check_pseudo on inner_pair(B, e_i, e_j)
at the remaining indices: same tuples, same order, same defects.  This
holds whether the identities pass or fail, on tables swept as they are
and on lifted ones (a denominator in either table).

The inner pairs of the basis are read off the tables once, for the
checker and for ips_space, ps_space and enveloping; they must equal
inner_pair(B, e_i, e_j), coefficient types included, and those three
must not build them again through inner_pair.

It also holds the clean error of the pair functions on an algebra that
lacks one of the two structures, and the Bol check of a 64-label file
with one binary and one ternary product.
"""

import functools
import random

import pytest

import superbol as sb
from superbol import envelope, rules
from test_reference import even_map, lifted_inputs, mutate, pool, transport


@functools.cache
def passing_bols():
    return [A for A in pool() if A.binary is not None and A.ternary is not None
            and sb.check_axioms(A, "bol").passed]


RULES = (("nambu", "derives-triple"), ("product-rule", "derives-product"))


def inner_rule_witnesses(B):
    """The witnesses check_pseudo reports on every inner pair of basis
    vectors, named and placed as check_axioms names and places them."""
    basis, lab = B.space.basis(), B.space.labels
    out = {axiom: [] for axiom, _ in RULES}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            report = sb.check_pseudo(B, sb.inner_pair(B, x, y))
            for axiom, rule in RULES:
                out[axiom] += [(axiom, (lab[i], lab[j]) + w.at, w.defect)
                               for w in report.witnesses if w.axiom == rule]
    return out


def assert_rules_on_inner_pairs(B):
    report = sb.check_axioms(B, "bol")
    expected = inner_rule_witnesses(B)
    for axiom, _ in RULES:
        assert [(w.axiom, w.at, w.defect) for w in report.witnesses
                if w.axiom == axiom] == expected[axiom], (B.name, axiom)
    return {axiom for axiom, found in expected.items() if found}


def failing_mutants(pool, lifted):
    """Mutants of the pool on which both identities fail, one per pool
    algebra where the first 200 seeds find one."""
    out = []
    for index, A in enumerate(pool):
        for seed in range(200):
            M = mutate(A, random.Random(1000 * index + seed))
            axioms = {w.axiom for w in sb.check_axioms(M, "bol").witnesses}
            if {"nambu", "product-rule"} <= axioms and (M._lifted[0] > 1) == lifted:
                out.append(M)
                break
    return out


def test_catalog_and_derived_bol_algebras():
    assert {B.name for B in passing_bols()} >= {"L2_2_2_bol", "L2_3_1_bol", "bol(osp12)"}
    for B in passing_bols():
        assert assert_rules_on_inner_pairs(B) == set(), B.name


def test_lifted_bol_algebras():
    for B in lifted_inputs():
        assert B._lifted[0] > 1
        assert assert_rules_on_inner_pairs(B) == set(), B.name


@pytest.mark.parametrize("lifted", [False, True])
def test_mutants_failing_both_identities(lifted):
    mutants = failing_mutants(lifted_inputs() if lifted else passing_bols(), lifted)
    assert len(mutants) >= 3
    for M in mutants:
        assert assert_rules_on_inner_pairs(M) == {"nambu", "product-rule"}, M.name


MISSING = [("L2_2_2_malcev", "ternary"), ("lts(aff2_lie)", "binary")]


@pytest.mark.parametrize("name, missing", MISSING)
def test_pair_functions_need_both_structures(name, missing):
    A = (sb.catalog.load(name) if name in sb.catalog.keys()
         else sb.lie_to_supertriple(sb.catalog.load("aff2_lie")))
    assert A.name == name
    identity = sb.GradedMap.identity(A.space)
    x = A.space.basis()[0]
    message = "%s has no %s structure" % (name, missing)
    for call in (lambda: sb.check_pseudo(A, sb.PseudoDerivationPair(identity, A.space.zero())),
                 lambda: sb.companion_space(A, identity),
                 lambda: sb.ps_space(A),
                 lambda: sb.ips_space(A),
                 lambda: sb.inner_pair(A, x, x),
                 lambda: A.product(x, x) if missing == "binary" else A.triple(x, x, x)):
        with pytest.raises(sb.StructureError) as err:
            call()
        assert str(err.value) == message


def test_bol_check_of_a_64_label_file_with_one_product_each():
    even = " ".join("a%d" % i for i in range(40))
    odd = " ".join("b%d" % i for i in range(24))
    A = sb.parse_algebra("name one64\neven %s\nodd %s\nbinary [a0,a1] = a2\n"
                         "ternary [a0,a1,a2] = a3\n" % (even, odd))
    report = sb.check_axioms(A, "bol")
    assert [(w.axiom, w.at, str(w.defect)) for w in report.witnesses] == [
        ("triple-jacobi", ("a0", "a1", "a2"), "a3"),
        ("triple-jacobi", ("a0", "a2", "a1"), "-a3"),
        ("triple-jacobi", ("a1", "a0", "a2"), "-a3"),
        ("triple-jacobi", ("a1", "a2", "a0"), "a3"),
        ("triple-jacobi", ("a2", "a0", "a1"), "a3"),
        ("triple-jacobi", ("a2", "a1", "a0"), "-a3"),
    ]


def typed_pair(p):
    return (p.degree, [[(t, type(c), c) for t, c in col] for col in p.operator.columns],
            [(type(c), c) for c in p.companion.coords])


def test_inner_pairs_read_off_the_tables_equal_inner_pair():
    """On the catalog and derived Bol algebras (bol(osp(1|2)) among them),
    a dense re-basing and the inputs with Fraction constants."""
    osp_bol = next(B for B in passing_bols() if B.name == "bol(osp12)")
    dense = transport(osp_bol, even_map(osp_bol.space, random.Random(5)))
    assert any(type(c) is not int for B in lifted_inputs() for e in B.ternary.cells().values()
               for _, c in e)
    for B in passing_bols() + lifted_inputs() + [dense]:
        n, basis = B.space.dim, B.space.basis()
        read = [(at, envelope._pair(B.space, r, x))
                for at, r, x in rules._inner_pairs(B.space, False, B.binary, B.ternary)]
        assert [at for at, _ in read] == [(i, j) for i in range(n) for j in range(n)]
        mirrored = rules._inner_pairs(B.space, True, B.binary, B.ternary)
        assert [p for p in read if p[0][0] <= p[0][1]] == [
            (at, envelope._pair(B.space, r, x)) for at, r, x in mirrored]
        for (i, j), pair in read:
            built = sb.inner_pair(B, basis[i], basis[j])
            assert pair == built, (B.name, i, j)
            assert typed_pair(pair) == typed_pair(built), (B.name, i, j)


def test_pair_spaces_and_the_envelope_call_no_inner_pair(monkeypatch):
    calls = []
    inner_pair = envelope.inner_pair
    monkeypatch.setattr(envelope, "inner_pair", lambda *a: calls.append(a) or inner_pair(*a))
    for key in ("L2_2_2_bol", "L2_3_1_bol"):
        B = sb.catalog.load(key)
        sb.ips_space(B)
        sb.enveloping(B, sb.ps_space(B))
        sb.enveloping(B)
    assert calls == []
    # the wrapper sees the calls ips_space makes over a subspace K
    B = sb.catalog.load("L2_3_1_bol")
    sb.ips_space(B, sb.span_reduce(B.space, B.space.basis()[:1]))
    assert calls


def test_ips_space_of_a_zero_algebra_flattens_no_pair(monkeypatch):
    # inner pairs enter elimination through their sparse flat entries
    flattened = []
    flat = envelope._flat
    monkeypatch.setattr(envelope, "_flat", lambda x: flattened.append(x) or flat(x))
    B = sb.catalog.load("abelian_64_0")
    H = sb.ips_space(B)
    assert (H.dim, H.rows, H.brackets, flattened) == (0, (), (), [])
    sb.ips_space(sb.catalog.load("L2_3_1_bol"))
    assert flattened
