"""Super skew-symmetry is used once its sweep has passed, never inferred.

The orbit sweeps use it first.  The cyclic sums (super and ternary Jacobi)
always evaluate one tuple per cycle, D(j, k, i) = (-1)^{p_i(p_j+p_k)}
D(i, j, k).  Once the binary product is super skew, super Jacobi also
swaps its first two slots, D(j, i, k) = -(-1)^{p_i p_j} D(i, j, k), so
only i <= j <= k is evaluated, and Malcev is evaluated once per 4-cycle,
D(j, k, l, i) = (-1)^{p_i(p_j+p_k+p_l)} D(i, j, k, l), never under the
reflection i <-> k.  `tests/test_orbits.py` holds those sweeps to the
slow reference and counts the tuples they evaluate.

Three more places use it.  The nambu and product-rule sweeps evaluate their
rule on the inner pairs (D_{i,j}, e_i.e_j) with i <= j, on the rule tuples
with u <= v, and mirror the rest: the defect at (j, i, ...) is
-(-1)^{p_i p_j} times the one at (i, j, ...), and likewise in (u, v).
PairSpace.from_pairs brackets the basis pairs p <= q only and mirrors
[q, p] = -(-1)^{pq} [p, q], each p with its partners q of one degree
packed into one pair.  ps_space and companion_space list the rule tuples
with u <= v only, since the equations of (v, u, ...) are those of
(u, v, ...) times -(-1)^{p_u p_v}, and ps_space checks the inner pairs
i <= j only.  Each needs the skew sweeps of the tables it reads to find
nothing; when one finds a witness, every tuple and every ordered pair is
evaluated.  Once the ternary table passes ternary Jacobi as well, the triple
rule lists only u < v, u <= w: the other tuples u <= v are zero where these
are, so a passing Nambu sweep and the solvers leave them out, and a failing
sweep evaluates its first pack again at every u <= v, on the verdict of the
table each one reads (`tests/test_orbits.py` holds this on random tables).

Both paths must agree with `slow_reference`, which evaluates every tuple on
dense tables: the same witnesses (axiom, tuple, defect with its scalar
types, order), and for every ordered (m, l) the coordinates of the slow
bracket of the m-th and l-th basis pairs.  The inputs: catalog, derived,
lifted and dense algebras; skew-completed mutants, with one constant
changed and its super-skew mirror filled in, so the skew sweeps pass while
Nambu or the product rule fail and mirrored witnesses are emitted; and the
unmirrored mutants of `test_reference` and a hand-built product whose skew
fails, where the full evaluation runs.  On all of them ps_space and
companion_space must return what `slow_reference` returns from its dense
systems over every rule tuple: the same rows, pivots, brackets and basis
pairs, and the same point, directions and pivots, with scalar types.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

import slow_reference
import superbol as sb
from bench_inputs import inputs
from superbol import envelope, rules, structures
from superbol.graded import sign
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure
from test_rule_paths import nambu_broken
from test_reference import (VALUES, assert_same_checks, even_map, from_cells, lifted_inputs,
                            mutate, pool, random_pair, rescaled, transport)

RULES = ("nambu", "product-rule")


@functools.cache
def all_bols():
    """The Bol algebras of test_reference's pool and its lifted inputs, built at their
    first use inside a test: a fault in building them fails the tests that read them."""
    return [A for A in pool() + lifted_inputs() if A.binary is not None and A.ternary is not None]


def typed(coords):
    return [(type(c), c) for c in coords]


def slow_pair_bracket(B, p, q):
    """([P,Q], P(b) - (-1)^{pq} Q(a) - a.b) through the slow reference's dense
    maps, commutator and product."""
    s = sign(p.degree * q.degree)
    terms = (slow_reference.apply(p.operator, q.companion),
             slow_reference.apply(q.operator, p.companion),
             slow_reference._eval_binary(B, p.companion, q.companion))
    companion = [x - s * y - z for x, y, z in zip(*(v.coords for v in terms))]
    return sb.PseudoDerivationPair(slow_reference.graded_commutator(p.operator, q.operator),
                                   B.space.vector(companion))


def assert_same_brackets(H):
    """Every ordered (m, l), the mirrored ones included, against the slow bracket."""
    for m, p in enumerate(H.basis):
        for l, q in enumerate(H.basis):
            expected = H.coordinates_of(slow_pair_bracket(H.algebra, p, q))
            assert expected is not None, (H.algebra.name, m, l)
            assert typed(H.brackets[m][l]) == typed(expected), (H.algebra.name, m, l)


def pair_spaces(B):
    """ips_space and ps_space of B, leaving out either that raises EnvelopeError
    (a mutant's inner pairs need not close, nor lie in its PS)."""
    out = []
    for build in (sb.ips_space, sb.ps_space):
        try:
            out.append(build(B))
        except sb.EnvelopeError:
            pass
    return out


def skew_mutant(A, rng):
    """A with one structure constant changed and its super-skew mirror (first
    two slots swapped) filled in, so both skew sweeps still pass."""
    n, par = A.space.dim, A.space.parities
    st = rng.choice([s for s in (A.binary, A.ternary) if s is not None])
    while True:
        cell = tuple(rng.randrange(n) for _ in range(st.ARITY))
        i, j = cell[:2]
        targets = [t for t in range(n) if par[t] == sum(par[c] for c in cell) % 2]
        if targets and (i != j or par[i]):
            break
    t, value = rng.choice(targets), rng.choice(VALUES)
    cells = dict(st.cells())
    for at, v in ((cell, value), ((j, i) + cell[2:], -sign(par[i] * par[j]) * value)):
        entry = dict(cells.get(at, ()))
        entry[t] = v
        cells[at] = tuple(sorted(entry.items()))
    changed = from_cells(type(st), A.space, cells)
    return AlgebraDef(A.name + "~", A.space,
                      changed if st is A.binary else A.binary,
                      changed if st is A.ternary else A.ternary)


def mirrored(B, report):
    """(axiom, slots, odd, lifted) of each witness of the two rules that the
    sweep mirrors: slots is "pair" for i > j, "rule" for u > v."""
    index, par, lifted = B.space.index_of, B.space.parities, B._lifted[0] > 1
    out = set()
    for w in report.witnesses:
        if w.axiom in RULES:
            at = [index(label) for label in w.at]
            for slots, (i, j) in (("pair", at[:2]), ("rule", at[2:4])):
                if i > j:
                    out.add((w.axiom, slots, bool(par[i] & par[j]), lifted))
    return out


def test_passing_inputs_match_the_reference():
    rng = random.Random(11)
    dense = [transport(B, even_map(B.space, rng)) for B in all_bols() if B.space.dim <= 5]
    for B in all_bols() + dense:
        assert_same_checks(B)
        for H in pair_spaces(B):
            assert_same_brackets(H)


def test_skew_completed_mutants_match_the_reference_with_mirrored_witnesses():
    """Mutants that keep both skew sweeps passing, until each rule has emitted
    mirrored witnesses in both slot pairs, on odd-odd and other tuples, from
    tables with and without a denominator; every check and every bracket
    matches the reference."""
    wanted = {(axiom, slots, odd, lifted) for axiom in RULES for slots in ("pair", "rule")
              for odd in (False, True) for lifted in (False, True)}
    seen, spaces, seed = set(), 0, 0
    while not (seen >= wanted and spaces >= 20):
        assert seed < 600, wanted - seen
        rng = random.Random(seed)
        M = skew_mutant(all_bols()[seed % len(all_bols())], rng)
        seed += 1
        report = sb.check_axioms(M, "bol")
        assert not {w.axiom for w in report.witnesses} & {"skew", "triple-skew"}, M.name
        assert_same_checks(M)
        seen |= mirrored(M, report)
        for H in pair_spaces(M):
            assert_same_brackets(H)
            spaces += 1


def test_inputs_whose_skew_fails_match_the_reference():
    """The unmirrored mutants of test_reference, most of which fail a skew
    sweep, run the full evaluation; so does a pair space over a product with
    e1.e2 = e1 and e2.e1 = 0, where the mirrored bracket would be wrong."""
    unmirrored = 0
    for seed in range(60):
        M = mutate(all_bols()[seed % len(all_bols())], random.Random(seed))
        assert_same_checks(M)
        axioms = {w.axiom for w in sb.check_axioms(M, "bol").witnesses}
        unmirrored += bool(axioms & {"skew", "triple-skew"})
        for H in pair_spaces(M):
            assert_same_brackets(H)
    assert unmirrored >= 30
    H = sb.PairSpace.from_pairs(*one_sided())
    assert H.dim == 2
    assert_same_brackets(H)
    assert H.brackets[0][1] == (-1, 0) and H.brackets[1][0] == (0, 0)


def one_sided():
    """An algebra whose product e1.e2 = e1 is not skew, and the pairs (0, e1),
    (0, e2), whose span is closed: [p, q] = (0, -e1) but [q, p] = 0."""
    space = sb.SuperSpace.even_first(("e1", "e2"), ("e3",))
    A = AlgebraDef("one-sided", space, from_cells(BinaryStructure, space, {(0, 1): ((0, 1),)}))
    zero = sb.GradedMap.zero(space)
    return A, [sb.PseudoDerivationPair(zero, e) for e in space.basis()[:2]]


# ---------------------------------------------------------------------------
# what is evaluated: the d(d+1)/2 brackets p_m, p_l with l >= m and the inner
# pairs i <= j when skew passes, the d^2 brackets and every inner pair when it
# fails; the closure brackets p_m with its partners of one degree at once


@pytest.fixture
def brackets(monkeypatch):
    """The pack, the second pair, of each closure bracket, in call order, each as that
    call read it: the closure's packs are live views that grow after the call."""
    calls = []
    kernel = envelope._bracket_entries
    monkeypatch.setattr(envelope, "_bracket_entries", lambda n, E, x, y, s: calls.append(
        [tuple(col) for col in y]) or kernel(n, E, x, y, s))
    return calls


def partners(H, packs):
    """Per pack, the number of partners packed into it: its digits b, W bits apart, that
    are nonzero in some entry, W as H keeps it until its brackets are decoded."""
    W = H._packs[0]
    return [len({b for col in y for _, v in col for b, _ in structures._digits(v, W)})
            for y in packs]


def packs(H, skew):
    """Per closure bracket, in call order, the number of partners packed: each basis pair
    p_m from the last down with its partners l >= m of degree 0, then of degree 1, when
    the product is skew, else each p_m in order with all of them; a degree without
    partners is not bracketed."""
    degrees, d = [p.degree for p in H.basis], H.dim
    return [c for m in (reversed(range(d)) if skew else range(d))
            for c in (sum(degrees[l] == r for l in range(m if skew else 0, d)) for r in (0, 1))
            if c]


def test_closure_brackets_each_unordered_pair_once_when_the_product_is_skew(brackets):
    osp = next(B for B in all_bols() if B.name == "bol(osp12)")
    dense = transport(osp, even_map(osp.space, random.Random(2)))
    for B in (osp, sb.catalog.load("L2_3_1_bol"), dense):
        for build in (sb.ips_space, sb.ps_space):
            brackets.clear()
            H = build(B)
            d, degrees, sizes = H.dim, {p.degree for p in H.basis}, partners(H, brackets)
            assert d > 1 and sizes == packs(H, True), (B.name, build)
            assert sum(sizes) == d * (d + 1) // 2, (B.name, build)
            assert len(sizes) < sum(sizes) and len(sizes) <= len(degrees) * d
    brackets.clear()
    H = sb.PairSpace.from_pairs(*one_sided())
    sizes = partners(H, brackets)
    assert sizes == packs(H, False) == [2, 2] and sum(sizes) == H.dim ** 2 == 4


def test_each_bracket_table_is_completed_once(monkeypatch):
    """ips_space and ps_space mirror nothing, nor does the decoding of their
    brackets: it keeps only brackets l >= m when the product is skew, those
    nonzero, every bracket left out being zero by the slow bracket, and the d^2
    ordered ones, () if zero, when it is not (one_sided); enveloping completes
    its whole table, H's block included, with one `_mirrored` call."""
    from superbol import constructions
    calls = []
    mirrored = structures._mirrored
    for module in (structures, envelope, constructions):
        monkeypatch.setattr(module, "_mirrored", lambda *args: calls.append(args)
                            or mirrored(*args))
    osp = sb.malcev_to_bol(inputs.osp12())
    for B in (osp, sb.catalog.build("L2_3_1_bol").algebra,
              transport(osp, even_map(osp.space, random.Random(2)))):
        for build in (sb.ips_space, sb.ps_space):
            calls.clear()
            H = build(B)
            d, kept = H.dim, H._brackets
            assert d > 1 and calls == [], (B.name, build)
            assert all(l >= m and coords for (m, l), coords in kept.items()), (B.name, build)
            for m, l in itertools.combinations_with_replacement(range(d), 2):
                if (m, l) not in kept:
                    zero = slow_pair_bracket(B, H.basis[m], H.basis[l])
                    assert zero.operator.is_zero() and zero.companion.is_zero(), (m, l)
            assert len(kept) < d * (d + 1) // 2, (B.name, build)
        calls.clear()
        sb.enveloping(B, H)
        assert len(calls) == 1, B.name
    calls.clear()
    H = sb.PairSpace.from_pairs(*one_sided())
    assert calls == [] and sorted(H._brackets) == list(itertools.product(range(2), repeat=2))
    assert H.brackets[0][1] != H.brackets[1][0] and not any(H.brackets[1][0])


def test_the_bracket_table_is_decoded_on_first_read(monkeypatch):
    """ps_space and ips_space keep their brackets packed: `_brackets` is decoded the
    first time enveloping reads it, once, and then neither the dense view nor a
    second envelope decodes it again; enveloping(B) and semisimplicity_report decode
    the one pair space they build once."""
    decoded, decode = [], sb.PairSpace._brackets.func
    prop = functools.cached_property(lambda H: decoded.append(id(H)) or decode(H))
    prop.__set_name__(sb.PairSpace, "_brackets")
    monkeypatch.setattr(sb.PairSpace, "_brackets", prop)
    osp = sb.malcev_to_bol(inputs.osp12())
    for B in (osp, sb.catalog.load("L2_3_1_bol"), sb.catalog.load("abelian_2_2")):
        for build in (sb.ips_space, sb.ps_space):
            decoded.clear()
            H = build(B)
            assert "_brackets" not in vars(H) and H._packs is not None and not decoded, B.name
            sb.enveloping(B, H)
            assert decoded == [id(H)] and H._packs is None, (B.name, build)
            H.brackets
            sb.enveloping(B, H)
            assert decoded == [id(H)], (B.name, build)
        decoded.clear()
        sb.enveloping(B)
        sb.semisimplicity_report(B)
        assert len(decoded) == 2, B.name


@pytest.fixture
def evaluated(monkeypatch):
    """Per call of the rule evaluator from a sweep: the inner pairs its packs
    hold, sorted, and the rule tuples it keeps, those its per-tuple path lists
    and the only ones its index walk reports."""
    calls = []
    defects = rules._defects

    def recording(space, tables, W, pack, order):
        listed = list(rules._ordered(space.dim, tables[0].ARITY, order))
        calls.append((sorted(key for keys in pack[0] for key in keys), listed))
        return defects(space, tables, W, pack, order)

    monkeypatch.setattr(rules, "_defects", recording)
    return calls


READS = (("ternary",), ("binary", "ternary"))


def every_tuple(B, reads):
    """Every tuple of the arity of the rule on the tables named in reads, in order."""
    return list(itertools.product(range(B.space.dim), repeat=getattr(B, reads[0]).ARITY))


@pytest.mark.parametrize("broken", [None, "binary", "ternary", "jacobi", "nambu"])
def test_bol_check_evaluates_the_rules_on_i_le_j_only_when_skew_passes(evaluated, broken):
    """Each rule is handed the nonzero inner pairs, those a cell of the tables
    it reads reaches.  Nambu reads the ternary skew and ternary Jacobi
    verdicts, the product rule both skew verdicts; a broken binary skew
    leaves Nambu mirrored.
    Where both of Nambu's pass, its rule tuples (u, v, w) are the u < v with
    u <= w: the rest of u <= v are derived.  "jacobi" adds [e1, e2, e3] = e1
    and its skew mirror, so only ternary Jacobi fails, and Nambu lists every
    tuple u <= v.  "nambu" is osp(1|2) with one product doubled and the ternary
    product malcev_to_bol makes from it: both ternary sweeps pass and Nambu
    fails, so a second Nambu call takes the first call's pack again and lists
    every tuple u <= v for it; there every nonzero inner pair fails, so its
    keys are also the failing ones.  The product rule follows."""
    B = nambu_broken(inputs.osp12()) if broken == "nambu" else sb.catalog.load("L2_3_1_bol")
    if broken in ("binary", "ternary", "jacobi"):
        st = getattr(B, "ternary" if broken == "jacobi" else broken)
        cells = dict(st.cells())
        if broken == "jacobi":
            cells[0, 1, 2], cells[1, 0, 2] = ((0, 1),), ((0, -1),)
        else:
            at = next(at for at in sorted(cells) if at[0] != at[1])
            cells[at] = tuple((t, 2 * c) for t, c in cells[at])
        changed = from_cells(type(st), B.space, cells)
        B = AlgebraDef("broken " + broken, B.space, binary=B.binary if st is B.ternary else changed,
                       ternary=changed if st is B.ternary else B.ternary)
    B = B.renamed("fresh " + B.name)
    evaluated.clear()
    witnesses = sb.check_axioms(B, "bol").witnesses
    axioms = {w.axiom for w in witnesses}
    assert (axioms & {"skew", "triple-skew"}) == \
        ({"binary": {"skew"}, "ternary": {"triple-skew"}}.get(broken, set()))
    assert ("triple-jacobi" in axioms) == (broken in ("ternary", "jacobi"))
    n = B.space.dim
    if broken == "nambu":   # the first pass's pairs again, at every u <= v
        keys, relisted = evaluated.pop(1)
        index = B.space.labels.index
        assert keys == sorted({(index(w.at[0]), index(w.at[1])) for w in witnesses
                               if w.axiom == "nambu" and index(w.at[0]) <= index(w.at[1])})
        assert 0 < len(keys) < n * (n + 1) // 2 and set(keys) <= set(evaluated[0][0])
        assert relisted == [at for at in every_tuple(B, ("ternary",)) if at[0] <= at[1]]
    assert len(evaluated) == 2
    for (keys, listed), reads in zip(evaluated, READS):
        full = every_tuple(B, reads)
        # the nonzero inner pairs: (i, j) with a nonzero cell [e_i, e_j, .] or, for the
        # product rule, e_i e_j; counted on the tables as given, as lifting keeps every zero
        nonzero = {at[:2] for what in reads for at in getattr(B, what).cells()}
        if broken in reads:
            assert keys == sorted(nonzero)
            assert listed == full
        elif reads == ("ternary",) and broken != "jacobi":
            assert keys == sorted((i, j) for i, j in nonzero if i <= j)
            assert listed == [at for at in full if at[0] < at[1] and at[0] <= at[2]]
        else:
            assert keys == sorted((i, j) for i, j in nonzero if i <= j)
            assert listed == [at for at in full if at[0] <= at[1]]


def test_the_derived_tuples_follow_the_verdict_of_the_table_swept(evaluated, monkeypatch):
    """The ternary Jacobi sweep runs once per structure object and gates the
    table it swept: on a fresh L2_3_1_bol/2 the checks of supertriple, lts and bol
    sweep the lifted table once between them, and Nambu derives there in
    both checks; ps_space and companion_space, which read the table as
    given, take their verdicts from the lifted one, so each table object is
    swept at most once.  Where a verdict is withheld, that table's Nambu
    check lists every tuple u <= v again."""
    A, calls = rescaled(sb.catalog.load("L2_3_1_bol"), Fraction(1, 2), Fraction(1, 4), "fresh"), []
    sweep, skew, skewed = structures._sweep_ternary_jacobi, structures._skew, []
    monkeypatch.setattr(structures, "_sweep_ternary_jacobi",
                        lambda space, ts: calls.append(ts) or sweep(space, ts))
    monkeypatch.setattr(structures, "_skew", lambda space, st: skewed.append(st) or skew(space, st))
    evaluated.clear()
    lifted = A._lifted[1]["ternary"]
    assert A._lifted[0] > 1 and lifted is not A.ternary
    for kind in ("supertriple", "lts", "bol"):
        assert sb.check_axioms(A, kind).passed
    assert calls == [lifted]
    assert skewed == [lifted, A._lifted[1]["binary"]]    # the skew sweep likewise
    full = every_tuple(A, ("ternary",))
    assert len(evaluated) == 3    # Nambu in lts and bol, then the product rule
    for _, listed in evaluated[:2]:
        assert listed == [at for at in full if at[0] < at[1] and at[0] <= at[2]]
    sb.ps_space(A)
    sb.companion_space(A, sb.GradedMap.identity(A.space))
    assert calls == [lifted]
    assert skewed == [lifted, A._lifted[1]["binary"]]    # the skew sweep likewise
    B = A.renamed("withheld")
    vars(B._lifted[1]["ternary"])["_jacobi_witnesses"] = ("withheld",)
    evaluated.clear()
    list(rules._inner_witnesses("nambu", B.space, B._lifted[1]["ternary"]))
    assert evaluated[0][1] == [at for at in full if at[0] <= at[1]]


# ---------------------------------------------------------------------------
# the pair-space solvers: only the rule tuples u <= v once the tables a rule
# reads are super skew, every tuple otherwise


def kept_brackets(H):
    """The brackets the closure keeps, by (m, l), with their scalar types."""
    return {ml: [(t, type(c), c) for t, c in coords] for ml, coords in H._brackets.items()}


def typed_space(H):
    return (typed(c for row in H.rows for c in row), H.pivots,
            [[typed(coords) for coords in row] for row in H.brackets],
            [(p.degree, [[(t, type(c), c) for t, c in col] for col in p.operator.columns],
              typed(p.companion.coords)) for p in H.basis])


def typed_affine(S):
    return (S.is_empty, S.point and typed(S.point), [typed(d) for d in S.directions], S.pivots)


def solved(build, B):
    """build(B), or the message of the EnvelopeError it raises."""
    try:
        return build(B)
    except sb.EnvelopeError as err:
        return str(err)


def assert_same_solvers(B, rng):
    basis = B.space.basis()
    # the spaces first, both without their inner-pair checks: the reference's
    # builds ips_space(B), and the span of a mutant's inner pairs need not close
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slow_reference, "ips_space", lambda B: sb.PairSpace.from_pairs(B, []))
        mp.setattr(envelope, "_basis_inner_pairs", lambda B: iter(()))
        H, expected = solved(sb.ps_space, B), solved(slow_reference.ps_space, B)
    if isinstance(H, str) or isinstance(expected, str):
        assert H == expected, B.name
    else:
        assert typed_space(H) == typed_space(expected), B.name
        # then the inner-pair check, against inner_pair on every two basis vectors
        if all(expected.contains(sb.inner_pair(B, x, y)) for x in basis for y in basis):
            assert typed_space(sb.ps_space(B)) == typed_space(expected), B.name
        else:
            assert solved(sb.ps_space, B) == "inner pairs escaped the pseudo derivation space"
    operators = [sb.GradedMap.identity(B.space), sb.GradedMap.zero(B.space, 1)]
    operators += [sb.inner_pair(B, x, y).operator for x in basis for y in basis[:2]]
    operators += [random_pair(B, rng).operator for _ in range(4)]
    operators += [p.operator for p in H.basis[:4]] if not isinstance(H, str) else []
    for P in operators:
        assert typed_affine(sb.companion_space(B, P)) == \
            typed_affine(slow_reference.companion_space(B, P)), (B.name, str(P.columns))


def one_sided_bol():
    """one_sided's product e1.e2 = e1, e2.e1 = 0 with the zero ternary
    product, which is super skew: the product rule must not mirror.  Its
    tuple (e3, e2) alone asks P e3 to have no e1 part, as e1.e2 = e1."""
    A, _ = one_sided()
    return AlgebraDef("one-sided bol", A.space, A.binary, from_cells(TernaryStructure, A.space, {}))


def test_pair_solvers_match_the_reference_with_and_without_mirroring():
    rng, bols = random.Random(12), all_bols()
    dense = [transport(B, even_map(B.space, rng)) for B in bols if B.space.dim <= 4]
    mutants = [mutate(bols[seed % len(bols)], random.Random(seed)) for seed in range(60)]
    B = one_sided_bol()
    assert B.ternary._skew_witnesses == () and B.binary._skew_witnesses
    assert any(type(c) is not int for A in lifted_inputs() for e in A.binary.cells().values()
               for _, c in e)
    for A in bols + dense + mutants + [B]:
        assert_same_solvers(A, rng)
