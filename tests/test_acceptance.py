"""Acceptance suite.

Twelve independent checks over the catalog algebras, each printing one
verdict line so a log scan shows the whole contract at a glance.  All
arithmetic is exact; every comparison is strict equality.
"""

import contextlib
import itertools
import random
import subprocess
import sys
from fractions import Fraction

from cli_env import CLI_ENV

import superbol as sb
from superbol.structures import AlgebraDef, TernaryStructure

BOL_KEYS = ("L2_2_2_bol", "L2_3_1_bol", "abelian_2_2")


@contextlib.contextmanager
def verdict(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("acceptance %02d FAIL: %s" % (number, description))
        raise
    with capsys.disabled():
        print("acceptance %02d PASS: %s" % (number, description))


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "superbol"] + list(argv),
                          capture_output=True, env=CLI_ENV)


def test_criterion_01_catalog_checks(capsys):
    with verdict(capsys, 1, "CLI verifies catalog algebras and reports failures"):
        assert _cli("check", "L2_2_2_malcev", "--kind", "malcev").returncode == 0
        failing = _cli("check", "L2_2_2_malcev", "--kind", "lie")
        assert failing.returncode == 1
        out = failing.stdout.decode()
        assert "jacobi" in out and "defect" in out
        assert _cli("check", "L2_3_1_bol", "--kind", "bol").returncode == 0


def test_criterion_02_derived_triple_product(capsys):
    with verdict(capsys, 2, "derived triple product matches brute-force expansion"):
        M = sb.catalog.load("L2_2_2_malcev")
        B = sb.malcev_to_bol(M)
        e1, e2, e3, e4 = B.space.basis()
        assert B.triple(e1, e2, e1) == -e2
        assert B.triple(e1, e3, e1) == -e3
        assert B.triple(e1, e4, e1) == -e4
        basis = M.space.basis()
        par = M.space.parities
        third = Fraction(1, 3)
        n = len(basis)
        for i, j, k in itertools.product(range(n), repeat=3):
            x, y, z = basis[i], basis[j], basis[k]
            s1 = sb.sign(par[i] * (par[j] + par[k]))
            s2 = sb.sign(par[k] * (par[i] + par[j]))
            expected = third * (2 * M.product(M.product(x, y), z)
                                - s1 * M.product(M.product(y, z), x)
                                - s2 * M.product(M.product(z, x), y))
            assert B.triple(x, y, z) == expected
        nonzero = {(i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                   if any(B.ternary.table[i][j][k])}
        assert nonzero == {(0, 1, 0), (0, 2, 0), (0, 3, 0),
                           (1, 0, 0), (2, 0, 0), (3, 0, 0)}


def test_criterion_03_dual_route_equality(capsys):
    with verdict(capsys, 3, "Killing-Ricci restriction and direct routes agree"):
        cases = [sb.catalog.load("L2_3_1_bol"), sb.catalog.load("L2_2_2_bol"),
                 sb.malcev_to_bol(sb.catalog.load("aff2_lie")),
                 sb.catalog.load("abelian_2_2")]
        for B in cases:
            restr = sb.killing_ricci(B, "restriction")
            direct = sb.killing_ricci(B, "direct")
            assert restr.gram == direct.gram, B.name


def _diagonal_automorphisms(B):
    """All diagonal even maps with entries in a fixed candidate list that
    intertwine both products.  Deterministic; always includes the identity."""
    vals = (1, 2, Fraction(1, 2), 4, Fraction(1, 4))
    n = B.space.dim
    found = []
    for combo in itertools.product(vals, repeat=n):
        rows = [[combo[i] if i == j else 0 for j in range(n)] for i in range(n)]
        phi = sb.GradedMap.from_rows(B.space, 0, rows)
        if sb.check_morphism(phi, B, B).passed:
            found.append(phi)
    return found


def test_criterion_04_form_consistency(capsys):
    with verdict(capsys, 4, "the form is supersymmetric, parity-split, invariant, "
                            "and automorphism-stable"):
        for key in BOL_KEYS:
            B = sb.catalog.load(key)
            beta = sb.killing_ricci(B, "direct")
            assert beta.is_supersymmetric(), key
            basis = B.space.basis()
            par = B.space.parities
            n = len(basis)
            for i, j in itertools.product(range(n), repeat=2):
                if par[i] != par[j]:
                    assert beta.gram[i][j] == 0, key
            # invariance on every basis 4-tuple, straight from the evaluator
            for i, j, k, l in itertools.product(range(n), repeat=4):
                x, y, z, u = basis[i], basis[j], basis[k], basis[l]
                lhs = beta.evaluate(B.triple(x, y, z), u)
                rhs = -sb.sign(par[k] * (par[i] + par[j])) \
                    * beta.evaluate(z, B.triple(x, y, u))
                assert lhs == rhs, key
            autos = _diagonal_automorphisms(B)
            assert len(autos) > 1, key  # identity plus something nontrivial
            for phi in autos:
                for x in basis:
                    for y in basis:
                        assert beta.evaluate(phi(x), phi(y)) == beta.evaluate(x, y)


def test_criterion_05_invariance_phrasings_agree(capsys):
    with verdict(capsys, 5, "the three ternary invariance phrasings agree"):
        for key in BOL_KEYS:
            B = sb.catalog.load(key)
            inv = sb.check_invariant(B, sb.killing_ricci(B, "direct"))
            assert inv.inva1 == inv.inva2 == inv.inva3, key


def test_criterion_06_enveloping_correctness(capsys):
    with verdict(capsys, 6, "envelopes satisfy the Lie axioms with additive dims"):
        for key in BOL_KEYS:
            B = sb.catalog.load(key)
            ips = sb.ips_space(B)
            ps = sb.ps_space(B)
            for H in (ips, ps):
                env = sb.enveloping(B, H)
                assert sb.check_axioms(env.lie, "lie").passed, key
                assert env.dim == B.space.dim + H.dim, key
            assert ps.contains_space(ips), key


def test_criterion_07_pair_bracket_closure(capsys):
    with verdict(capsys, 7, "inner pair brackets close and stay pseudo"):
        for key in BOL_KEYS:
            B = sb.catalog.load(key)
            ips = sb.ips_space(B)
            for p in ips.basis:
                for q in ips.basis:
                    br = sb.pair_bracket(B, p, q)
                    assert ips.contains(br), key
                    assert sb.check_pseudo(B, br).passed, key


def test_criterion_08_ideal_envelope(capsys):
    with verdict(capsys, 8, "the ideal envelope absorbs brackets from the envelope"):
        B = sb.catalog.load("L2_3_1_bol")
        K = sb.span_reduce(B.space, [B.space.basis()[0]])
        assert sb.classify_subspace(B, K) == sb.IDEAL
        env = sb.enveloping(B)
        KK = sb.ideal_envelope(B, K, env)
        assert KK.dim == 2
        for kappa in KK.basis:
            for x in env.lie.space.basis():
                assert KK.contains(env.lie.product(kappa, x))
                assert KK.contains(env.lie.product(x, kappa))


def test_criterion_09_companions(capsys):
    with verdict(capsys, 9, "each inner operator admits the product as companion"):
        for key in BOL_KEYS:
            B = sb.catalog.load(key)
            for x in B.space.basis():
                for y in B.space.basis():
                    pair = sb.inner_pair(B, x, y)
                    aff = sb.companion_space(B, pair.operator)
                    assert aff.contains(B.product(x, y).coords), key


def test_criterion_10_supertrace_laws(capsys):
    with verdict(capsys, 10, "supertrace kills commutators, survives conjugation"):
        rng = random.Random(20260817)
        sp = sb.SuperSpace.even_first(3, 2)
        n = sp.dim

        def rand_map(degree):
            rows = [[rng.randint(-4, 4)
                     if sp.parities[i] == (sp.parities[j] + degree) % 2 else 0
                     for j in range(n)] for i in range(n)]
            return sb.GradedMap.from_rows(sp, degree, rows)

        done = 0
        while done < 100:
            f = rand_map(rng.randint(0, 1))
            g = rand_map(rng.randint(0, 1))
            assert sb.graded_commutator(f, g).supertrace == 0
            h = rand_map(0)
            try:
                hinv = h.inverse()
            except ZeroDivisionError:
                continue  # singular draw, take a fresh one
            assert h.compose(f).compose(hinv).supertrace == f.supertrace
            done += 1


def test_criterion_11_mutation_sensitivity(capsys):
    with verdict(capsys, 11, "one mutated structure constant flips the verdict"):
        B = sb.catalog.load("L2_3_1_bol")
        assert sb.check_axioms(B, "bol").passed
        two_e1 = (2, 0, 0, 0)
        table = tuple(tuple(tuple(two_e1 if (i, j, k) == (0, 2, 2) else cell
                                  for k, cell in enumerate(row))
                            for j, row in enumerate(plane))
                      for i, plane in enumerate(B.ternary.table))
        mutated = AlgebraDef("L2_3_1_mutated", B.space, binary=B.binary,
                             ternary=TernaryStructure(B.space, table))
        report = sb.check_axioms(mutated, "bol")
        assert not report.passed
        assert len(report.witnesses) >= 1


def test_criterion_12_cli_contract(capsys):
    with verdict(capsys, 12, "CLI round-trips, repeats byte-identically, honors "
                             "exit codes"):
        for ent in sb.catalog.entries():
            text = sb.serialize_algebra(ent.algebra)
            assert sb.parse_algebra(text) == ent.algebra, ent.key
            shown = _cli("catalog", "show", ent.key)
            assert shown.returncode == 0
            assert sb.parse_algebra(shown.stdout.decode()) == ent.algebra, ent.key

        first = _cli("--format", "machine", "report", "L2_3_1_bol")
        second = _cli("--format", "machine", "report", "L2_3_1_bol")
        assert first.stdout == second.stdout and first.returncode == 0

        assert _cli("check", "L2_3_1_bol", "--kind", "bol").returncode == 0
        assert _cli("check", "L2_3_1_bol", "--kind", "lie").returncode == 1
        assert _cli("check", "no_such_algebra", "--kind", "lie").returncode == 2
