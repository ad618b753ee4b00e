"""The closure check of PairSpace, on ints, against the slow bracket.

`PairSpace._closed` brackets each basis pair p_m, times its lead and lifted
as the rules read it (operator terms times L), with all its partners p_l of
one degree at once: the partners packed W bits apart into one pair, one
`_bracket_entries` call on the lifted table L B, the operator part divided
by L, one `_reduced` residue for the whole pack, and the coordinates read
off the pivot columns one signed digit at a time, each divided by
L lead_m lead_l.  W is sized so that 2^(W-1) > M X (1 + d R), X bounding
every bracket digit, M the lcm of the leads and R the largest |entry| of
a basis row.

Held here, beside `tests/test_mirror.py`, which compares every ordered
bracket with the slow reference's (`slow_pair_bracket`, dense maps and
products) on the catalog, derived and lifted `Fraction` tables, their
dense copies and their skew-completed and skew-broken mutants:
- every ordered bracket, scalar types included, equals the slow one on
  dense bol(M7), abelian_6_2 and copies whose pair rows hold entries past
  2^64;
- a span that is not closed raises with the first escaping ordered pair
  (m, l), as the per-pair order names it;
- W, as the packed brackets keep it, is the stated bound, every bracket
  digit lies below 2^(W-1), and the lifted pairs packed do reach past 2^64;
- the closure and the decoding of its packed brackets make a `Fraction`
  only where they build the basis or divide a coordinate: never while
  bracketing, packing, reducing or reading digits, and they mirror nothing.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

import superbol as sb
from bench_inputs import inputs
from superbol import envelope, linalg
from superbol.structures import AlgebraDef, BinaryStructure
from test_mirror import assert_same_brackets, pair_spaces, slow_pair_bracket
from test_reference import from_cells, lifted_inputs, mutate, rescaled

BIG = 2 ** 70 + 1


@functools.cache
def osp_bol():
    """bol(osp(1|2)), built at its first use inside a test, as every input here is: a fault
    in building one fails the tests that read it, not the collection of this module."""
    return sb.malcev_to_bol(inputs.osp12())


def dense(A, seed=1):
    return inputs.transport(A, inputs.dense_even_map(random.Random(seed), A.space),
                            "dense " + A.name)


@pytest.fixture
def lifted(monkeypatch):
    """The first pair of every bracket the closure takes: a basis pair times its lead,
    operator terms times L, as it is packed as a partner."""
    calls = []
    kernel = envelope._bracket_entries
    monkeypatch.setattr(envelope, "_bracket_entries", lambda n, E, x, y, s: calls.append(x)
                        or kernel(n, E, x, y, s))
    return calls


# ---------------------------------------------------------------------------
# the brackets against the slow reference


@pytest.mark.parametrize("build", [
    pytest.param(lambda: dense(sb.malcev_to_bol(inputs.m7())), id="dense bol(M7)"),
    pytest.param(lambda: sb.catalog.load("abelian_6_2"), id="abelian_6_2")])
def test_brackets_match_the_slow_bracket(build):
    """A dense copy, whose pair rows are dense, and a zero algebra, whose PS is
    every pair (d = 72)."""
    spaces = pair_spaces(build())
    assert spaces and max(H.dim for H in spaces) > 1
    for H in spaces:
        assert_same_brackets(H)


@pytest.mark.parametrize("b", [BIG, Fraction(1, BIG), Fraction(3, 2 ** 66 + 1)])
def test_entries_past_two_to_the_64_pack_exactly(b, lifted):
    """bol(osp(1|2)) rescaled by b (binary) and b^2 (ternary), an isomorphic
    copy: its lifted pair rows hold entries past 2^64, and every bracket is
    still the slow one."""
    B = rescaled(osp_bol(), b, b * b, "bol(osp12)*%s" % b)
    for H in (sb.ips_space(B), sb.ps_space(B)):
        assert H.dim > 1
        assert_same_brackets(H)
    assert max(abs(c) for x in lifted for row in x for _, c in row) > 2 ** 64


# ---------------------------------------------------------------------------
# the packing width


def primitive(H):
    """The basis pairs' flat entries, each times the least positive int that makes
    them integers: {column: int}."""
    out = []
    for p in H.basis:
        row = {c: Fraction(x) for c, x in enumerate(p.flatten()) if x}
        den = math.lcm(*(x.denominator for x in row.values()))
        ints = {c: int(x * den) for c, x in row.items()}
        g = math.gcd(*ints.values())
        out.append({c: x // g for c, x in ints.items()})
    return out


def width(H):
    """W from its bound, read off H's basis and its algebra independently:
    2^(W-1) > M X (1 + d R)."""
    rows = primitive(H)
    leads = [r[min(r)] for r in rows]
    L = H.algebra._lifted[0]
    top = max((int(abs(c) * L) for e in H.algebra.binary.cells().values() for _, c in e),
              default=0)
    x1 = max(sum(map(abs, r.values())) for r in rows)
    R = max(max(map(abs, r.values())) for r in rows)
    bound = math.lcm(*leads) * x1 ** 2 * (2 + top) * L ** 2 * (1 + len(rows) * R)
    return bound.bit_length() + 1


@pytest.mark.parametrize("make", [
    pytest.param(osp_bol, id="bol(osp12)"),
    pytest.param(lambda: dense(osp_bol()), id="dense bol(osp12)"),
    pytest.param(lambda: lifted_inputs()[0], id="L2_3_1_bol/2"),
    pytest.param(lambda: lifted_inputs()[3], id="bol(L2_2_2_malcev)*3/2"),
    pytest.param(lambda: rescaled(osp_bol(), Fraction(1, BIG), Fraction(1, BIG ** 2), "small"),
                 id="small")])
def test_the_width_is_the_stated_bound_and_holds_every_digit(make):
    B = make()
    for build in (sb.ips_space, sb.ps_space):
        H = build(B)
        W, L = H._packs[0], B._lifted[0]    # read before `_brackets` decodes and lets go
        assert H._packs[-1] and W == width(H), (B.name, build)
        # every digit of a bracket, L lead_m lead_l times its coordinates, lies below 2^(W-1)
        leads = [r[min(r)] for r in primitive(H)]
        for (m, l), coords in H._brackets.items():
            for _, c in coords:
                assert abs(c * L * leads[m] * leads[l]) < 2 ** (W - 1)


# ---------------------------------------------------------------------------
# a span that is not closed


def span_basis(B, pairs):
    """The reduced rows of the pairs' flat entries and their basis pairs."""
    reduced, _ = linalg.rref([p.flatten() for p in pairs])
    return reduced, [sb.PseudoDerivationPair.from_flat(B.space, row) for row in reduced]


def escaping(B, pairs):
    """Per basis pair p_m of the pairs' span, in order, the l whose slow bracket
    [p_m, p_l] leaves the span."""
    reduced, basis = span_basis(B, pairs)
    return basis, [[l for l, q in enumerate(basis) if len(linalg.rref(
        list(reduced) + [slow_pair_bracket(B, p, q).flatten()])[0]) > len(basis)] for p in basis]


def first_escaping(B, pairs):
    """(m, l, message) of the first ordered (m, l), m then l, whose slow bracket
    leaves the span, or None: with a super skew product the first such pair has
    l >= m, so this is the per-pair order either way."""
    basis, out = escaping(B, pairs)
    for m, ls in enumerate(out):
        if ls:
            return m, ls[0], "span of pairs is not closed under the bracket: [%s, %s]" % (
                basis[m], basis[ls[0]])
    return None


def test_a_span_that_is_not_closed_names_the_first_escaping_pair():
    """Random subsets of PS bases, on skew and skew-broken inputs: the error
    names the pair the per-pair order meets first, also where an even partner
    after it escapes too (the closure packs the even partners first)."""
    rng, raised, later_group = random.Random(5), 0, 0
    sources = [osp_bol(), sb.catalog.load("L2_3_1_bol"), lifted_inputs()[0], dense(osp_bol(), 2)]
    for seed in range(90):
        B = sources[seed % len(sources)]
        if seed % 3 == 2:
            B = mutate(B, random.Random(seed))
        try:
            H = sb.ps_space(B)
        except sb.EnvelopeError:
            continue
        pairs = rng.sample(H.basis, rng.randrange(2, min(H.dim, 5) + 1))
        found = first_escaping(B, pairs)
        if found is None:
            sb.PairSpace.from_pairs(B, pairs)
            continue
        m, l, message = found
        with pytest.raises(sb.EnvelopeError) as err:
            sb.PairSpace.from_pairs(B, pairs)
        assert str(err.value) == message, B.name
        basis, out = escaping(B, pairs)
        raised += 1
        later_group += basis[l].degree == 1 and any(basis[k].degree == 0 for k in out[m] if k > l)
    assert raised >= 15 and later_group >= 1, (raised, later_group)


def test_a_non_closed_span_over_a_product_that_is_not_skew():
    """Over the product e2.e1 = e3 alone, the span of (0, e1), (0, e2) first
    escapes below the diagonal: [p_0, p_0] = [p_0, p_1] = 0, [p_1, p_0] = (0, -e3)."""
    space = sb.SuperSpace.even_first(("e1", "e2", "e3"), ())
    A = AlgebraDef("e2.e1 = e3", space, from_cells(BinaryStructure, space, {(1, 0): ((2, 1),)}))
    pairs = [sb.PseudoDerivationPair(sb.GradedMap.zero(space), e) for e in space.basis()[:2]]
    m, l, message = first_escaping(A, pairs)
    with pytest.raises(sb.EnvelopeError) as err:
        sb.PairSpace.from_pairs(A, pairs)
    assert (m, l, str(err.value)) == (1, 0, message)
    assert message.endswith("[(0, e2), (0, e1)]")


# ---------------------------------------------------------------------------
# no Fraction before the final division


def test_the_closure_makes_no_fraction_before_its_final_division(monkeypatch):
    """On Fraction tables (the lifted inputs, a dense copy, a rescaled one with a big
    denominator), every Fraction the closure and the decoding of its packed
    brackets make comes from building the basis pairs or from a coordinate's
    final division (`_quotient`, given ints only): none from bracketing,
    packing, reducing, reading digits or mirroring."""
    algebras = lifted_inputs() + [
        dense(osp_bol()), rescaled(osp_bol(), Fraction(3, BIG), Fraction(9, BIG ** 2), "osp*3/big")]
    made, allowed, spent, total = [], [], [], 0
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs: made.append(args)
                        or new(cls, *args, **kwargs))

    def counted(f, into):
        def run(*args):
            start = len(made)
            out = f(*args)
            into.append(len(made) - start)
            return out
        return run

    quotient = envelope._quotient

    def divided(x, d):
        assert type(x) is int and type(d) is int
        return quotient(x, d)

    monkeypatch.setattr(envelope, "_quotient", counted(divided, allowed))
    monkeypatch.setattr(envelope, "_pair", counted(envelope._pair, allowed))
    closed = sb.PairSpace._closed.__func__
    monkeypatch.setattr(sb.PairSpace, "_closed", classmethod(counted(closed, spent)))
    for B in algebras:
        for build in (sb.ips_space, sb.ps_space):
            allowed.clear()
            spent.clear()
            H = build(B)
            counted(lambda: H._brackets, spent)()
            assert len(spent) == 2 and sum(spent) == sum(allowed), (B.name, build)
            total += sum(spent)
    assert total > 0
