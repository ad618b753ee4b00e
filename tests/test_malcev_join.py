"""The Malcev sweep walks paths of nonzero cells and equals the reference.

`malcev._sweep_malcev` visits no 4-tuple: each of the five terms of the
Malcev defect is a join of an inner product with the nonzero cells on its
support, added into the tuple the path reaches, and once the product is super
skew only i <= j, k, l, least among its rotations, is kept.  Its reports must
equal `slow_reference`'s, which evaluates every tuple: the same witnesses
(axiom, tuple, defect with its scalar types) in the same order.  The slots
it writes must be the tuples `test_orbits.malcev_reach` finds, and those it
keeps one per rotation orbit where the skew sweep passes.  Seeded inputs run until each
kind below has been seen:

* sparse random tables and dense re-basings of them;
* products whose skew sweep passes (mirrored witnesses) and fails;
* witnesses at tuples with an odd index and with even ones only;
* Fraction constants, so the lift L > 1 runs, and integer ones;
* tables that pass (2-step nilpotent products, re-based catalog Malcev
  algebras) and fail;
* a reached tuple (x, x, x, x) of one odd x on a skew product, the one
  orbit of one tuple whose representative repeats i at l.

Each first index's slots live in a list of n^3 ints or in a dict
(`malcev._slots`); the comparison runs with each container forced.  A
mutant that drops the sign s4 or s5 of a term, or decodes a slot with k and
l swapped, must fail that comparison.
"""

import functools
import inspect
import random
import tracemalloc
from collections import defaultdict

import pytest

import slow_reference
import superbol as sb
from superbol import malcev, structures
from test_mirror import skew_mutant
from test_orbits import evaluated, m7, malcev_reach, osp, random_algebra, representative
from test_reference import even_map, from_cells, pool, transport, typed


@functools.cache
def malcevs():
    return [A for A in pool() if A.binary is not None and sb.check_axioms(A, "malcev").passed]


def draw(seed):
    """(algebra, dense) for one seed: a random table of dimension 1 to 6, a
    skew mutant of M7, osp(1|2) or a catalog Malcev algebra, or a catalog
    Malcev algebra as it is; every other seed re-based through a dense even map."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind < 2:
        A = random_algebra(rng, rng.randint(1, 6), ("random", "skew", "nilpotent")[seed % 3], None)
    elif kind == 2:
        A = skew_mutant(rng.choice([m7(), osp()] + malcevs()), rng)
    else:
        A = rng.choice(malcevs())
    dense = seed % 8 >= 4 and A.space.dim <= 5
    return (transport(A, even_map(A.space, rng)) if dense else A), dense


def features(A, report):
    """What an input exercises, as (what, value) pairs: its skew verdict, whether
    it is lifted, its Malcev verdict and whether a Malcev witness has an odd index."""
    index, par = A.space.index_of, A.space.parities
    odd = {any(par[index(label)] for label in w.at) for w in report.witnesses
           if w.axiom == "malcev"}
    return ({("skew", not A._lifted[1]["binary"]._skew_witnesses), ("lifted", A._lifted[0] > 1),
             ("passed", report.passed)} | {("odd", o) for o in odd})


def assert_same(A):
    fast = sb.check_axioms(A.renamed(A.name), "malcev")
    slow = slow_reference.check_axioms(A, "malcev")
    assert fast == slow, A.name
    assert typed(fast) == typed(slow), A.name
    return fast


@pytest.fixture(params=["list", "dict"])
def container(monkeypatch, request):
    """Forces the Malcev walk's slots into a list of n^3 ints or a dict, as
    test_rule_paths forces `_joins`: (the type forced, the types made)."""
    kind, made = list if request.param == "list" else defaultdict, []

    def slots(n, paths):
        made.append(kind)
        return [0] * n ** 3 if kind is list else defaultdict(int)
    monkeypatch.setattr(malcev, "_slots", slots)
    return kind, made


def test_the_join_matches_the_reference_on_every_kind_of_table(container, evaluated):
    wanted = {(what, value, dense) for what in ("skew", "lifted", "passed", "odd")
              for value in (False, True) for dense in (False, True)} | {"odd constant"}
    seen, seed = set(), 0
    while not (seen >= wanted and seed >= 80):
        assert seed < 800, wanted - seen
        A, dense = draw(seed)
        seed += 1
        seen |= {f + (dense,) for f in features(A, assert_same(A))}
        skew, par = not A._lifted[1]["binary"]._skew_witnesses, A.space.parities
        kept = sorted(at for at in malcev_reach(A) if not skew or at == representative(at, False))
        assert evaluated["malcev"] == kept, A.name
        if skew and any(len(set(at)) == 1 and par[at[0]] for at in kept):
            seen.add("odd constant")
    kind, made = container
    assert made and set(made) == {kind}


def mutant(monkeypatch, old, new):
    """Put in the Malcev sweep a copy of _sweep_malcev with its one text old
    replaced by new."""
    source = inspect.getsource(malcev._sweep_malcev)
    assert source.count(old) == 1
    namespace = dict(vars(malcev))
    exec(compile(source.replace(old, new), malcev.__file__, "exec"), namespace)
    monkeypatch.setitem(structures._SWEEPS, "malcev",
                        (namespace["_sweep_malcev"],) + structures._SWEEPS["malcev"][1:])


def assert_told_apart():
    for seed in range(400):
        A, _ = draw(seed)
        if sb.check_axioms(A.renamed(A.name), "malcev") != \
                slow_reference.check_axioms(A, "malcev"):
            return
    pytest.fail("no input tells the mutant from the reference")


@pytest.mark.parametrize("signed, unsigned", [("-d * e if par[j] & p else d * e", "d * e"),
                                              ("-t if pk & (py ^ par[f]) else t", "t")],
                         ids=["s4", "s5"])
def test_a_sweep_that_drops_a_sign_fails_the_comparison(monkeypatch, signed, unsigned):
    """The term's path adds its int d e unsigned."""
    mutant(monkeypatch, signed, unsigned)
    assert_told_apart()


def test_a_sweep_that_decodes_k_and_l_swapped_fails_the_comparison(monkeypatch):
    mutant(monkeypatch, "j, k, l = at // nn", "j, l, k = at // nn")
    assert_told_apart()


def test_a_skew_product_builds_the_kept_half_of_its_inner_products(monkeypatch):
    """Once the product is super skew, `_products` runs once per nonzero cell
    (a, b) with a <= b: the right maps of b > a and every left map are read off
    those by sign.  A product whose skew sweep fails builds both maps of every
    cell.  The reports equal the reference's either way."""
    calls = []
    products = malcev._products
    monkeypatch.setattr(malcev, "_products",
                        lambda vec, cells: calls.append(vec) or products(vec, cells))
    cells = dict(m7().binary.cells())
    cells[0, 1] = tuple((t, 2 * c) for t, c in cells[0, 1])
    broken = sb.AlgebraDef("broken M7", m7().space, binary=from_cells(
        sb.BinaryStructure, m7().space, cells))
    rng = random.Random(3)
    for A in [m7(), osp(), transport(osp(), even_map(osp().space, rng)), broken] + malcevs():
        skew, table = not A._lifted[1]["binary"]._skew_witnesses, A._lifted[1]["binary"]
        calls.clear()
        assert_same(A)
        assert len(calls) == (sum(a <= b for a, b in table.cells()) if skew
                              else 2 * len(table.cells())), A.name
        assert skew == (A is not broken)


def chain(n):
    """The even algebra on e_0 .. e_{n-1} with e_i e_{i+1} = e_{i+2}, completed
    by skew-symmetry: sparse, of n - 2 products in n^2 cells."""
    space = sb.SuperSpace.even_first(n, 0)
    return sb.AlgebraDef("chain %d" % n, space, binary=sb.BinaryStructure.from_products(
        space, {(i, i + 1): [int(t == i + 2) for t in range(n)] for i in range(n - 2)}))


def test_a_large_sparse_chain_keeps_its_witnesses_in_bounded_memory():
    """The 64-label chain fails Malcev at 1,888 tuples; the sweep keeps its slots
    per first index, in a dict here, so its traced peak stays under 2 MB where
    one list of n^4 slots would take over 100 MB.  The 16-label chain matches
    the reference witness for witness."""
    A = chain(64)
    tracemalloc.start()
    try:
        report = sb.check_axioms(A, "malcev")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.witnesses) == 1888 and not report.passed
    assert peak <= 2 << 20, peak
    assert len(assert_same(chain(16)).witnesses) == 352


def test_an_even_chain_negates_no_defect(monkeypatch):
    """Every rotation sign of the even 64-label chain's Malcev orbits is +1, so
    its check negates no defect vector and still keeps its 1,888 witnesses."""
    negated, neg = [], sb.SuperVector.__neg__
    monkeypatch.setattr(sb.SuperVector, "__neg__", lambda v: negated.append(v) or neg(v))
    report = sb.check_axioms(chain(64), "malcev")
    assert len(report.witnesses) == 1888 and negated == []
