"""One tuple per symmetry orbit: the super Jacobi, Malcev and ternary
Jacobi sweeps evaluate the lexicographically least tuple of each orbit and
report the others as signed copies of its defect D.

* The cyclic sums, always (super Jacobi and ternary Jacobi):
  D(j, k, i) = (-1)^{p_i (p_j + p_k)} D(i, j, k).
* Super Jacobi, once the binary skew sweep finds nothing:
  D(j, i, k) = -(-1)^{p_i p_j} D(i, j, k), so only i <= j <= k.
* Malcev, once the binary skew sweep finds nothing, under the 4-cycle:
  D(j, k, l, i) = (-1)^{p_i (p_j + p_k + p_l)} D(i, j, k, l).  The
  reflection i <-> k is no symmetry.

The reports must equal `slow_reference`'s, which evaluates every tuple:
the same witnesses (axiom, tuple, defect with its scalar types) in the
same order.  Inputs: random graded tables of dimension 1 to 6 with random
parities, super skew or not, failing or built to pass (a 2-step nilpotent
product passes Lie and Malcev), integer or with Fraction constants; dense
re-basings of the small catalog and derived algebras; and
`test_mirror.skew_mutant`s of Lie, Malcev and Bol algebras, whose skew
sweeps pass while Jacobi, Malcev or ternary Jacobi fail, so mirrored
witnesses are emitted.  Counting tests hold the tuples each sweep
evaluates to orbit representatives, one per orbit, and where the skew sweep
fails to the full set.  Super Jacobi evaluates every orbit where a term can
be nonzero; Malcev only those a path of nonzero products reaches, found
here tuple by tuple (`malcev_reach`).

ips_space builds a pair only for a nonzero inner pair (e_i, e_j), and only
for i <= j once both tables are super skew; its basis, pivots and brackets
must equal those of the span of every inner_pair(B, x, y) of basis vectors.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from superbol import envelope, structures
from superbol.graded import _into, sign
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure
from test_mirror import assert_same_solvers, kept_brackets, skew_mutant, typed_space
from test_reference import (LIFTED, POOL, VALUES, direct_sum, even_map, from_cells, transport,
                            typed)

KINDS = ("lie", "malcev", "supertriple")
ORBIT_AXIOMS = ("jacobi", "malcev", "triple-jacobi")
NONZERO = [v for v in VALUES if v]


def m7():
    """Sagle's 7-dim Malcev algebra: [e_i, e_j] = 2 e_k along the oriented Fano lines."""
    space = sb.SuperSpace.even_first(tuple("m%d" % i for i in range(1, 8)), ())
    cells = {}
    for line in ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)):
        for r in range(3):
            i, j, k = (line[(r + m) % 3] - 1 for m in range(3))
            cells[i, j], cells[j, i] = ((k, 2),), ((k, -2),)
    return AlgebraDef("M7", space, binary=from_cells(BinaryStructure, space, cells))


OSP = next(A for A in POOL if A.name == "osp12")
M7 = m7()


def random_cells(rng, space, arity, skew, inputs, outputs):
    """Random nonzero constants from VALUES on the tuples over inputs, into outputs,
    within the grading; with skew, the first two slots super skew."""
    par = space.parities
    cells = {}
    for at in itertools.product(inputs, repeat=arity):
        i, j = at[:2]
        if skew and (i > j or (i == j and not par[i])):
            continue
        degree = sum(par[a] for a in at) % 2
        entry = tuple((t, rng.choice(NONZERO)) for t in outputs
                      if par[t] == degree and rng.random() < 0.4)
        if entry:
            cells[at] = entry
            if skew and i < j:
                cells[(j, i) + at[2:]] = tuple((t, -sign(par[i] * par[j]) * c) for t, c in entry)
    return cells


def random_algebra(rng, n, binary, ternary):
    """A random algebra on n basis vectors of random parities.  binary is
    "random", "skew" or "nilpotent" (super skew, the first vectors' products
    in the span of the rest, which multiply to zero: Lie and Malcev pass);
    ternary is None, "random", "skew" or "lts" ([[x, y], z])."""
    space = sb.SuperSpace(tuple(rng.randrange(2) for _ in range(n)),
                          tuple("a%d" % i for i in range(n)))
    every, cut = range(n), rng.randint(0, n - 1)
    if binary == "nilpotent":
        cells = random_cells(rng, space, 2, True, range(cut), range(cut, n))
    else:
        cells = random_cells(rng, space, 2, binary == "skew", every, every)
    bs = from_cells(BinaryStructure, space, cells)
    ts = None
    if ternary == "lts":
        ts = TernaryStructure(space, tuple(tuple(tuple(
            _into([0] * n, bs.entries[i][j], bs.col[k]) for k in every)
            for j in every) for i in every))
    elif ternary:
        ts = from_cells(TernaryStructure, space,
                        random_cells(rng, space, 3, ternary == "skew", every, every))
    return AlgebraDef("random %s/%s" % (binary, ternary), space, binary=bs, ternary=ts)


def assert_same_sweeps(A):
    """check_axioms against the reference on each of KINDS that A's structures allow."""
    for kind in KINDS:
        if (A.binary if kind != "supertriple" else A.ternary) is None:
            continue
        fast, slow = sb.check_axioms(A, kind), slow_reference.check_axioms(A, kind)
        assert fast == slow, (A.name, kind)
        assert typed(fast) == typed(slow), (A.name, kind)


def representative(at, skew):
    """The least tuple of at's orbit: sorted for super Jacobi on a skew
    product, else the least rotation."""
    if skew and len(at) == 3:
        return tuple(sorted(at))
    return min(at[m:] + at[:m] for m in range(len(at)))


def mirrored(A):
    """(axiom, skew, odd) of each witness of the three sweeps reported at a
    tuple that is not its orbit's representative: a signed copy; odd when an
    odd index is among its indices."""
    index, par, out = A.space.index_of, A.space.parities, set()
    skew = not A.binary._skew_witnesses if A.binary is not None else None
    for kind in KINDS:
        if (A.binary if kind != "supertriple" else A.ternary) is None:
            continue
        for w in sb.check_axioms(A, kind).witnesses:
            at = tuple(index(label) for label in w.at)
            binary = skew if w.axiom != "triple-jacobi" else None
            if w.axiom in ORBIT_AXIOMS and at != representative(at, binary):
                out.add((w.axiom, binary, any(par[t] for t in at)))
    return out


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32),
       st.sampled_from(("random", "skew", "nilpotent")),
       st.sampled_from((None, "random", "skew", "lts")))
def test_random_tables_match_the_reference(n, seed, binary, ternary):
    assert_same_sweeps(random_algebra(random.Random(seed), n, binary, ternary))


def test_random_tables_pass_fail_and_emit_mirrored_witnesses():
    """Seeded random tables until every kind has passed and failed and each
    sweep has reported signed copies, on odd and even tuples, on skew and
    (for super Jacobi) non-skew products; every report matches the reference."""
    wanted = {("jacobi", skew, odd) for skew in (False, True) for odd in (False, True)}
    wanted |= {(axiom, skew, odd) for axiom, skew in (("malcev", True), ("triple-jacobi", None))
               for odd in (False, True)}
    wanted |= {(kind, verdict) for kind in KINDS for verdict in (False, True)}
    seen, seed = set(), 0
    while not seen >= wanted:
        assert seed < 400, wanted - seen
        rng = random.Random(seed)
        A = random_algebra(rng, rng.randint(1, 6), ("random", "skew", "nilpotent")[seed % 3],
                           (None, "random", "skew", "lts")[seed % 4])
        seed += 1
        assert_same_sweeps(A)
        seen |= mirrored(A)
        seen |= {(kind, sb.check_axioms(A, kind).passed) for kind in KINDS
                 if (A.binary if kind != "supertriple" else A.ternary) is not None}


def test_rebasings_match_the_reference():
    """Dense re-basings of the small catalog and derived algebras; M7, which
    fails Jacobi on 168 tuples, as it is and sheared by m1 -> m1 + m2 (180)."""
    rng = random.Random(15)
    for A in POOL:
        if A.space.dim <= 5:
            assert_same_sweeps(transport(A, even_map(A.space, rng)))
    shear = [[int(i == j or (i, j) == (1, 0)) for j in range(7)] for i in range(7)]
    for A, failing in ((M7, 168), (transport(M7, sb.GradedMap.from_rows(M7.space, 0, shear)), 180)):
        assert len(sb.check_axioms(A, "lie").witnesses) == failing
        assert_same_sweeps(A)


def test_skew_mutants_match_the_reference_with_mirrored_witnesses():
    """skew_mutant keeps the skew sweeps passing, so Jacobi and Malcev mirror
    under their skew rules while they fail; until each has emitted signed
    copies on odd and even tuples."""
    wanted = {(axiom, skew, odd) for axiom, skew in (("jacobi", True), ("malcev", True),
                                                    ("triple-jacobi", None))
              for odd in (False, True)}
    bases = [M7, OSP] + [A for A in POOL if A.binary is not None and A.ternary is not None]
    seen, seed = set(), 0
    while not (seen >= wanted and seed >= 40):
        assert seed < 400, wanted - seen
        A = skew_mutant(bases[seed % len(bases)], random.Random(seed))
        seed += 1
        assert A.binary is None or not A.binary._skew_witnesses
        assert_same_sweeps(A)
        seen |= mirrored(A)


# ---------------------------------------------------------------------------
# what is evaluated: one tuple per orbit


@pytest.fixture
def evaluated(monkeypatch):
    """{axiom: the tuples evaluated, sorted} per sweep: the defects each sweep
    hands to the orbit expansion, one per tuple its evaluation visited."""
    tuples = {}
    expand = structures._orbit_witnesses

    def recording(axiom, space, defects, moves):
        defects = list(defects)
        tuples[axiom] = sorted(at for at, _ in defects)
        return expand(axiom, space, defects, moves)

    monkeypatch.setattr(structures, "_orbit_witnesses", recording)
    return tuples


def envelope_of_bol_m7():
    return sb.enveloping(sb.malcev_to_bol(M7)).lie


def sweep_tuples(A, evaluated):
    evaluated.clear()
    for kind in ("lie", "malcev"):
        sb.check_axioms(A.renamed("fresh " + A.name), kind)
    return dict(evaluated)


def malcev_reach(A):
    """The 4-tuples (i, j, k, l) where a term of the Malcev defect has a path of
    nonzero products: a nonzero inner product ((e_i e_j) e_k, e_i (e_k e_l),
    or e_i e_k times some e_b of e_j e_l) and a nonzero product of it with the
    remaining basis vector, found tuple by tuple from the dense table through
    bit masks of supports."""
    n, table, every = A.space.dim, A.binary.table, range(A.space.dim)

    def mask(vec):
        return sum(1 << t for t, c in enumerate(vec) if c)

    rows = [mask([any(table[a][b]) for b in every]) for a in every]  # b: e_a e_b != 0
    cols = [mask([any(table[a][b]) for a in every]) for b in every]  # a: e_a e_b != 0
    cell = [[mask(table[a][b]) for b in every] for a in every]
    right = [[[mask(slow_reference._bv(table, table[a][b], c, n)) for c in every]
              for b in every] for a in every]                       # (e_a e_b) e_c
    left = [[[mask(slow_reference._vb(table, a, table[b][c], n)) for c in every]
             for b in every] for a in every]                        # e_a (e_b e_c)
    times = [[mask(right[a][b]) for b in every] for a in every]     # c: (e_a e_b) e_c != 0
    return {(i, j, k, l) for i, j, k, l in itertools.product(every, repeat=4)
            if times[i][k] & cell[j][l] or right[i][j][k] & cols[l]
            or right[j][k][l] & rows[i] or left[i][k][l] & cols[j] or right[i][l][j] & cols[k]}


# jacobi triples evaluated on skew products.  M7: e_i e_j is nonzero exactly
# when i != j, so only the 7 constant tuples are skipped, of C(9, 3) = 84
# sorted triples.  osp(1|2) (h, e, f even, x, y odd): of C(7, 3) = 35 sorted
# triples hhh, eee, fff, eex and ffy have no nonzero product.  The dim-28
# envelope of bol(M7): 3192 of C(30, 3) = 4060 triples.  Malcev evaluates the
# representatives malcev_reach finds: 525 of M7's (7^4 + 7^2 + 2 * 7) / 4 =
# 616 orbits, 98 of osp(1|2)'s 165 and 30,240 of the envelope's 153,874.
ORBIT_COUNTS = [pytest.param(lambda: M7, 77, id="M7"), pytest.param(lambda: OSP, 30, id="osp12"),
                pytest.param(envelope_of_bol_m7, 3192, id="envelope_of_bol_m7")]


@pytest.mark.parametrize("build, triples", ORBIT_COUNTS)
def test_skew_products_evaluate_one_tuple_per_orbit(evaluated, build, triples):
    """Malcev evaluates exactly the reached tuples that are least among their
    rotations, each once: at most one per orbit."""
    A = build()
    assert not A.binary._skew_witnesses
    tuples = sweep_tuples(A, evaluated)
    assert len(tuples["jacobi"]) == triples
    assert tuples["malcev"] == sorted(at for at in malcev_reach(A)
                                      if at == representative(at, False))


@pytest.mark.parametrize("build, triples", ORBIT_COUNTS[:2])
def test_the_counts_are_the_orbits_of_the_full_evaluation(monkeypatch, evaluated, build,
                                                          triples):
    """With the skew verdict withheld, every reached tuple is evaluated, and
    they fall into as many orbits as are evaluated above."""
    A = build()
    monkeypatch.setattr(structures, "_all_skew", lambda tables: False)
    tuples = sweep_tuples(A, evaluated)
    assert len({tuple(sorted(at)) for at in tuples["jacobi"]}) == triples
    reached = malcev_reach(A)
    assert tuples["malcev"] == sorted(reached)
    assert len({representative(at, False) for at in reached}) == \
        sum(at == representative(at, False) for at in reached)


def test_a_product_whose_skew_fails_evaluates_every_malcev_tuple(evaluated):
    """M7 with one constant doubled and its mirror left: the same support, so
    Jacobi evaluates the (7^3 + 2 * 7) / 3 = 119 cyclic orbits less the 7
    constant ones, and Malcev every tuple a path reaches, each once, with no
    rotation folded."""
    cells = dict(M7.binary.cells())
    cells[0, 1] = tuple((t, 2 * c) for t, c in cells[0, 1])
    A = AlgebraDef("broken M7", M7.space, binary=from_cells(BinaryStructure, M7.space, cells))
    assert A.binary._skew_witnesses
    tuples = sweep_tuples(A, evaluated)
    assert len(tuples["jacobi"]) == 112
    assert tuples["malcev"] == sorted(malcev_reach(A))


# ---------------------------------------------------------------------------
# the inner pairs ips_space builds


def test_ips_space_of_a_zero_algebra_builds_no_pair(monkeypatch):
    B = sb.catalog.load("abelian_64_0")
    calls = []
    pair = envelope._pair
    monkeypatch.setattr(envelope, "_pair", lambda *a: calls.append(a) or pair(*a))
    assert sb.ips_space(B).dim == 0
    assert calls == []


def test_ips_space_spans_every_inner_pair(monkeypatch):
    """From the nonzero inner pairs with i <= j only, on skew tables: the same
    basis, pivots and brackets, scalar types included, as every inner pair of
    basis vectors gives, on the catalog, derived, lifted and dense inputs."""
    rng = random.Random(16)
    bols = [A for A in POOL + LIFTED if A.binary is not None and A.ternary is not None
            and sb.check_axioms(A, "bol").passed]
    inputs = bols + [transport(B, even_map(B.space, rng)) for B in bols if B.space.dim <= 5]
    given = []
    rref = envelope._rref
    monkeypatch.setattr(envelope, "_rref", lambda rows, *a: given.append(list(rows))
                        or rref(given[-1], *a))
    for B in inputs:
        basis, n = B.space.basis(), B.space.dim
        given.clear()
        H = sb.ips_space(B)
        built = given[0]
        every = [sb.inner_pair(B, x, y) for x in basis for y in basis]
        expected = sb.PairSpace.from_pairs(B, every)
        assert typed_space(H) == typed_space(expected), B.name
        assert kept_brackets(H) == kept_brackets(expected), B.name
        upper = [every[i * n + j] for i in range(n) for j in range(i, n)]
        assert built == [p._entries() for p in upper if not (p.operator.is_zero()
                                                             and p.companion.is_zero())], B.name


# ---------------------------------------------------------------------------
# the triple rule on tables that pass ternary Jacobi: a third of its tuples derived


@functools.lru_cache(maxsize=None)
def jacobi_basis(par, skew):
    """linalg.nullspace's basis of the graded ternary tables on basis vectors
    of parities par that pass ternary Jacobi, and are super skew if skew,
    flat: the e_t coordinate of [e_i, e_j, e_k] at ((i n + j) n + k) n + t."""
    n = len(par)

    def at(i, j, k, t):
        return ((i * n + j) * n + k) * n + t

    rows = []
    for i, j, k, t in itertools.product(range(n), repeat=4):
        if (par[i] + par[j] + par[k] + par[t]) % 2:
            rows.append({at(i, j, k, t): 1})
            continue
        if skew:
            rows.append({at(i, j, k, t): 1, at(j, i, k, t): sign(par[i] * par[j])})
        cyclic = {}
        for b, s in (((i, j, k), 1), ((j, k, i), sign(par[i] * (par[j] + par[k]))),
                     ((k, i, j), sign(par[k] * (par[i] + par[j])))):
            cyclic[at(*b, t)] = cyclic.get(at(*b, t), 0) + s
        rows.append(cyclic)
    return sb.nullspace([[row.get(c, 0) for c in range(n ** 4)] for row in rows], n ** 4)


def jacobi_algebra(rng, n, skew=True):
    """A random integer combination of jacobi_basis, times 1, 1/2 or -1/3, on n
    basis vectors of random parities, with a random super skew binary product
    in three of four draws."""
    par = tuple(rng.randrange(2) for _ in range(n))
    space = sb.SuperSpace(par, tuple("a%d" % i for i in range(n)))
    flat, scale = [0] * n ** 4, rng.choice((1, 1, Fraction(1, 2), Fraction(-1, 3)))
    for vec in jacobi_basis(par, skew):
        c = rng.choice((-2, -1, 0, 0, 1, 2)) * scale
        flat = [a + c * b for a, b in zip(flat, vec)] if c else flat
    ts = TernaryStructure(space, tuple(tuple(tuple(
        tuple(flat[((i * n + j) * n + k) * n:][:n]) for k in range(n))
        for j in range(n)) for i in range(n)))
    bs = from_cells(BinaryStructure, space, random_cells(rng, space, 2, True, range(n), range(n)))
    return AlgebraDef("jacobi table %s" % (par,), space,
                      binary=bs if rng.random() < 0.75 else None, ternary=ts)


def derived(B, report):
    """(odd, lifted) of each Nambu witness at a derived tuple or its (u, v)
    mirror: (u, v, w) in kept order with u == v or w < u < v."""
    index, par, lifted, out = B.space.index_of, B.space.parities, B._lifted[0] > 1, set()
    for w in report.witnesses:
        if w.axiom == "nambu":
            u, v, x = sorted(map(index, w.at[2:4])) + [index(w.at[4])]
            if u == v or x < u < v:
                out.add((any(par[t] for t in (u, v, x)), lifted))
    return out


def test_tables_passing_ternary_jacobi_match_the_reference():
    """On 60 random tables that pass triple skew and ternary Jacobi, of
    dimension 2 to 5 and odd vectors included, the lts and bol reports equal
    the reference's witness for witness, derived Nambu witnesses included, on
    odd and even tuples and with and without a lift; and on those with a
    binary product ps_space and companion_space equal the reference's.  So
    do 15 tables that pass ternary Jacobi but not triple skew, where no
    tuple may be derived."""
    seen, nambu, rng = set(), 0, random.Random(17)
    for seed in range(75):
        A = jacobi_algebra(random.Random(seed), 2 + seed % 4, seed < 60)
        assert bool(A.ternary._skew_witnesses) == (seed >= 60)
        assert not A.ternary._jacobi_witnesses
        for kind in ("lts", "bol") if A.binary else ("lts",):
            fast, slow = sb.check_axioms(A, kind), slow_reference.check_axioms(A, kind)
            assert fast == slow and typed(fast) == typed(slow), (A.name, seed, kind)
            nambu += sum(w.axiom == "nambu" for w in fast.witnesses)
            seen |= derived(A, fast)
        if A.binary and seed % 3 == 0:
            assert_same_solvers(A, rng)
    assert seen == {(odd, lifted) for odd in (False, True) for lifted in (False, True)}
    assert nambu > 10000


def test_pair_solvers_match_the_reference_on_the_ladder():
    """ps_space and companion_space equal the reference's on the benchmark's
    sparse Bol algebras, bol(M7), bol(osp(1|2) + osp(1|2)) and bol(M7 +
    osp(1|2)), whose tables pass ternary Jacobi, so their triple rule lists
    only the tuples it does not derive."""
    rng = random.Random(18)
    for A in (M7, direct_sum(OSP, OSP, "osp+osp"), direct_sum(M7, OSP, "M7+osp")):
        B = sb.malcev_to_bol(A)
        assert not B.ternary._skew_witnesses and not B.ternary._jacobi_witnesses
        assert_same_solvers(B, rng)
