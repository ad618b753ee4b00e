"""The sparse axiom sweeps, check_morphism and the pseudo-derivation
rules against the slow reference.

`slow_reference` keeps the dense sweeps the package used before its
sparse kernel.  Both must give the same report for every kind: the same
verdict, the same witnesses in the same order, and the same exact
defects, coordinate types included (ints where a value is integral).
Inputs are catalog algebras, random single-constant mutations of them
(most of which fail), and small dense even re-basings, mutated or not.

It also keeps check_pseudo, companion_space and ps_space as they were
when each wrote the two rules out itself.  check_pseudo reports must
match in the same way, on the identity probe, inner pairs, ps_space's
basis and brackets, and random pairs that respect the grading;
companion_space and ps_space must return equal spaces.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from bench_inputs import inputs
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure


# The shared inputs are built and checked at their first use inside a test, and kept: a fault
# in a check then fails the tests that read them, not the collection of this module and of
# those importing it.
@functools.cache
def pool():
    """The catalog algebras and those derived from aff2 and osp(1|2)."""
    aff2 = sb.catalog.load("aff2_lie")
    osp = inputs.osp12()
    return [ent.algebra for ent in sb.catalog.entries()] + [
        sb.lie_to_supertriple(aff2), sb.malcev_to_bol(aff2), osp,
        sb.lie_to_supertriple(osp), sb.malcev_to_bol(osp),
    ]


@functools.cache
def small():
    return [A for A in pool() if A.space.dim <= 4]


VALUES = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3))


def typed(report):
    return [(w.axiom, w.at, tuple((type(c), c) for c in w.defect.coords))
            for w in report.witnesses]


def assert_same_checks(A):
    for kind in sb.KINDS:
        try:
            slow = slow_reference.check_axioms(A, kind)
        except sb.StructureError:
            try:
                sb.check_axioms(A, kind)
            except sb.StructureError:
                continue
            raise AssertionError("%s: only the reference raised for %s" % (A.name, kind))
        fast = sb.check_axioms(A, kind)
        assert fast == slow, (A.name, kind)
        assert typed(fast) == typed(slow), (A.name, kind)


def assert_same_morphism(f, A, B):
    slow = slow_reference.check_morphism(f, A, B)
    fast = sb.check_morphism(f, A, B)
    # the reference subtracts two vectors and leaves integral Fractions;
    # the fast check normalizes every coordinate
    assert fast == slow
    assert str(fast) == str(slow)
    assert all(type(c) is int or c.denominator != 1
               for w in fast.witnesses for c in w.defect.coords)
    return fast


def mutate(A, rng):
    """A with one structure constant changed, within the grading; no
    mirror is completed, so most mutants fail several axioms."""
    n = A.space.dim
    par = A.space.parities
    arity = rng.choice([k for k, s in ((2, A.binary), (3, A.ternary)) if s is not None])
    cell = tuple(rng.randrange(n) for _ in range(arity))
    targets = [t for t in range(n) if par[t] == sum(par[i] for i in cell) % 2]
    if not targets:
        return A
    t = rng.choice(targets)
    value = rng.choice(VALUES)

    def edit(table, at):
        if not at:
            return tuple(value if m == t else c for m, c in enumerate(table))
        return tuple(edit(sub, at[1:]) if m == at[0] else sub for m, sub in enumerate(table))

    if arity == 2:
        return AlgebraDef(A.name + "*", A.space, binary=BinaryStructure(A.space, edit(
            A.binary.table, cell)), ternary=A.ternary)
    return AlgebraDef(A.name + "*", A.space, binary=A.binary,
                      ternary=TernaryStructure(A.space, edit(A.ternary.table, cell)))


def even_map(space, rng):
    """A random invertible even map with small integer entries."""
    n = space.dim
    par = space.parities
    while True:
        rows = [[rng.randint(-2, 2) if par[i] == par[j] else 0 for j in range(n)]
                for i in range(n)]
        g = sb.GradedMap.from_rows(space, 0, rows)
        try:
            g.inverse()
        except ZeroDivisionError:
            continue
        return g


def transport(A, g):
    """The algebra whose e_i is g(e_i) of A: constants g^-1 A(g e_i, ...)."""
    ginv = g.inverse()
    n = A.space.dim
    images = [g(e) for e in A.space.basis()]
    binary = ternary = None
    if A.binary is not None:
        binary = BinaryStructure(A.space, tuple(
            tuple(ginv(slow_reference._eval_binary(A, images[i], images[j])).coords
                  for j in range(n)) for i in range(n)))
    if A.ternary is not None:
        ternary = TernaryStructure(A.space, tuple(tuple(tuple(
            ginv(slow_reference._eval_ternary(A, images[i], images[j], images[k])).coords
            for k in range(n)) for j in range(n)) for i in range(n)))
    return AlgebraDef("dense " + A.name, A.space, binary=binary, ternary=ternary)


def test_catalog_and_derived_algebras_match_the_reference():
    for A in pool():
        assert_same_checks(A)


@settings(max_examples=60, deadline=None)
@given(st.deferred(lambda: st.integers(0, len(pool()) - 1)), st.integers(0, 2 ** 32))
def test_single_constant_mutations_match_the_reference(index, seed):
    assert_same_checks(mutate(pool()[index], random.Random(seed)))


@settings(max_examples=25, deadline=None)
@given(st.deferred(lambda: st.integers(0, len(small()) - 1)), st.integers(0, 2 ** 32),
       st.booleans())
def test_dense_rebasings_match_the_reference(index, seed, mutated):
    rng = random.Random(seed)
    A = small()[index]
    g = even_map(A.space, rng)
    C = transport(A, g)
    if mutated:
        C = mutate(C, rng)
    assert_same_checks(C)
    report = assert_same_morphism(g, C, A)
    assert report.passed or mutated


@settings(max_examples=25, deadline=None)
@given(st.deferred(lambda: st.integers(0, len(small()) - 1)), st.integers(0, 2 ** 32))
def test_arbitrary_even_maps_match_the_reference(index, seed):
    rng = random.Random(seed)
    A = small()[index]
    f = even_map(A.space, rng)
    assert_same_morphism(f, A, A)
    assert_same_morphism(f, mutate(A, rng), A)


@functools.cache
def bols():
    return [A for A in pool() if A.binary is not None and A.ternary is not None]


@functools.cache
def small_bols():
    return [A for A in bols() if A.space.dim <= 4]


def random_pair(A, rng):
    """A random pair whose operator and companion respect the grading."""
    n = A.space.dim
    par = A.space.parities
    r = rng.randrange(2)
    rows = [[rng.choice(VALUES) if par[t] == (par[m] + r) % 2 else 0 for m in range(n)]
            for t in range(n)]
    companion = [rng.choice(VALUES) if par[m] == r else 0 for m in range(n)]
    return sb.PseudoDerivationPair(sb.GradedMap.from_rows(A.space, r, rows),
                                   A.space.vector(companion))


def probes(B, ps, rng, brackets):
    """The identity probe, every inner pair, the basis of ps and some of
    its brackets (all of them when brackets is None)."""
    basis = B.space.basis()
    out = [sb.PseudoDerivationPair(sb.GradedMap.identity(B.space), B.space.zero())]
    out += [sb.inner_pair(B, x, y) for x in basis for y in basis]
    out += ps.basis
    both = [(p, q) for p in ps.basis for q in ps.basis]
    if brackets is not None:
        both = rng.sample(both, min(brackets, len(both)))
    out += [sb.pair_bracket(B, p, q) for p, q in both]
    return out


def assert_same_pseudo(B, pair):
    slow = slow_reference.check_pseudo(B, pair)
    fast = sb.check_pseudo(B, pair)
    assert fast == slow, (B.name, str(pair))
    assert typed(fast) == typed(slow), (B.name, str(pair))
    assert sb.companion_space(B, pair.operator) == \
        slow_reference.companion_space(B, pair.operator), (B.name, str(pair))


def assert_same_pairs(B, rng, brackets=None):
    ps = sb.ps_space(B)
    assert ps == slow_reference.ps_space(B), B.name
    for pair in probes(B, ps, rng, brackets):
        assert_same_pseudo(B, pair)
    for _ in range(4):
        assert_same_pseudo(B, random_pair(B, rng))


def test_pseudo_rules_match_the_reference():
    rng = random.Random(0)
    for B in bols():
        assert_same_pairs(B, rng)
    # one dense copy of the largest input; the slow reference takes
    # seconds on it, so the random re-basings below stay at dim 4
    osp = bols()[-1]
    assert_same_pairs(transport(osp, even_map(osp.space, rng)), rng, brackets=6)


@settings(max_examples=8, deadline=None)
@given(st.deferred(lambda: st.integers(0, len(small_bols()) - 1)), st.integers(0, 2 ** 32))
def test_pseudo_rules_on_dense_rebasings_match_the_reference(index, seed):
    rng = random.Random(seed)
    A = small_bols()[index]
    assert_same_pairs(transport(A, even_map(A.space, rng)), rng, brackets=6)


@settings(max_examples=40, deadline=None)
@given(st.deferred(lambda: st.integers(0, len(bols()) - 1)), st.integers(0, 2 ** 32),
       st.booleans())
def test_random_pairs_match_the_reference(index, seed, mutated):
    rng = random.Random(seed)
    B = bols()[index]
    if mutated:
        B = mutate(B, rng)
    assert_same_pseudo(B, random_pair(B, rng))


# ---------------------------------------------------------------------------
# lifted tables: check_axioms sweeps L*B and L^2*T, L the lcm of every
# denominator of both tables, and divides each defect by L^weight


def from_cells(cls, space, cells):
    """The structure whose products are the sparse cells {index tuple:
    ((t, c), ...)}, zero elsewhere, built through its dense table."""
    n = space.dim

    def table(at):
        if len(at) < cls.ARITY:
            return tuple(table(at + (i,)) for i in range(n))
        coords = [0] * n
        for t, c in cells.get(at, ()):
            coords[t] = c
        return tuple(coords)

    return cls(space, table(()))


def cells_of(st):
    return {} if st is None else st.cells()


def rescaled(A, b, t, name):
    """A with its binary constants times b and its ternary ones times t; a
    missing binary product becomes the zero one.  With t = b^2 every
    identity keeps holding, since each is homogeneous of a fixed weight."""
    return AlgebraDef(name, A.space, *(
        from_cells(cls, A.space, {at: tuple((m, f * c) for m, c in entry)
                                  for at, entry in cells_of(st).items()})
        for cls, st, f in ((BinaryStructure, A.binary, b), (TernaryStructure, A.ternary, t))))


def direct_sum(A, C, name):
    """A + C on the concatenated basis, C's labels primed."""
    n = A.space.dim
    space = sb.SuperSpace(A.space.parities + C.space.parities,
                          A.space.labels + tuple(lab + "'" for lab in C.space.labels))
    return AlgebraDef(name, space, *(
        from_cells(cls, space, {**cells_of(a), **{
            tuple(i + n for i in at): tuple((m + n, c) for m, c in entry)
            for at, entry in cells_of(c).items()}})
        for cls, a, c in ((BinaryStructure, A.binary, C.binary),
                          (TernaryStructure, A.ternary, C.ternary))))


HALF, THIRD, FIFTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)


@functools.cache
def lifted_inputs():
    """Bol algebras whose binary and ternary denominators differ: 2 in B and 4
    in T; 2 in B and 4 and 5 in T (a rescaled Bol algebra next to a Lie
    triple system with zero B); none in B and 3 in T; 2 in B and 4 in T
    with numerators 3 and 9."""
    return [
        rescaled(sb.catalog.load("L2_3_1_bol"), HALF, HALF ** 2, "L2_3_1_bol/2"),
        direct_sum(rescaled(sb.catalog.load("L2_2_2_bol"), HALF, HALF ** 2, "-"),
                   rescaled(sb.lie_to_supertriple(sb.catalog.load("aff2_lie")), 0, FIFTH, "-"),
                   "L2_2_2_bol/2 + lts(aff2)/5"),
        rescaled(sb.lie_to_supertriple(inputs.osp12()), 0, THIRD, "lts(osp12)/3"),
        rescaled(sb.malcev_to_bol(sb.catalog.load("L2_2_2_malcev")), 3 * HALF, 9 * HALF ** 2,
                 "bol(L2_2_2_malcev)*3/2"),
    ]

# a file with the distinct prime denominators 2, 3, 5 and 7
PRIMES_ALG = """name primes
even h e f
odd x
binary [h,e] = 2/3 e
binary [h,f] = -5/2 f
binary [e,f] = 1/7 h
binary [h,x] = 1/5 x
binary [x,x] = 3/2 e - 1/3 f
ternary [h,e,f] = 1/2 h + 2/5 e
ternary [e,f,x] = 3/7 x
ternary [x,x,h] = 5/3 e
ternary [h,x,x] = -1/7 f
"""


def test_lifted_inputs_pass_with_the_stated_denominators():
    def lcm(st):
        return math.lcm(*(c.denominator for e in cells_of(st).values() for _, c in e))

    for A in lifted_inputs():
        assert sb.check_axioms(A, "bol").passed, A.name
    assert [lcm(A.binary) for A in lifted_inputs()] == [2, 2, 1, 2]
    assert [lcm(A.ternary) for A in lifted_inputs()] == [4, 20, 3, 4]
    assert [A._lifted[0] for A in lifted_inputs()] == [4, 20, 3, 4]


def test_lifted_reports_match_the_reference():
    for A in lifted_inputs():
        assert_same_checks(A)
    rng = random.Random(7)
    for A in lifted_inputs()[:3]:
        assert_same_checks(transport(A, even_map(A.space, rng)))
    A = sb.algfile.parse_algebra(PRIMES_ALG)
    assert A._lifted[0] == 2 * 3 * 5 * 7
    assert not sb.check_axioms(A, "bol").passed
    assert_same_checks(A)


def test_mutants_of_lifted_inputs_match_the_reference_for_every_axiom():
    """Mutants of the lifted inputs, until every axiom has failed on one
    whose tables have a denominator: a weight off by one in the lift
    changes every defect of its axiom."""
    witnessed = set()
    seed = 0
    while len(witnessed) < 7:
        assert seed < 400, witnessed
        rng = random.Random(seed)
        A = mutate(lifted_inputs()[seed % len(lifted_inputs())], rng)
        assert_same_checks(A)
        if A._lifted[0] > 1:
            witnessed |= {w.axiom for kind in sb.KINDS if kind in A._reports
                          for w in A._reports[kind].witnesses}
        seed += 1
    assert witnessed == {"skew", "jacobi", "malcev", "triple-skew", "triple-jacobi",
                         "nambu", "product-rule"}


def test_sweeps_read_integer_tables_lifted_once(monkeypatch):
    """With a denominator in either table the sweeps see only ints, and the
    lift is made once per algebra object whichever kinds are checked."""
    from superbol import structures
    seen, lifts = [], []

    def recorded(sweep):
        def run(space, *tables):
            seen.extend(type(c) for st in tables for entry in st.cells().values()
                        for _, c in entry)
            return sweep(space, *tables)
        return run

    for axiom, (sweep, reads, weight) in list(structures._SWEEPS.items()):
        monkeypatch.setitem(structures._SWEEPS, axiom, (recorded(sweep), reads, weight))
    lift = structures._lift
    monkeypatch.setattr(structures, "_lift", lambda A: lifts.append(A) or lift(A))
    for A in lifted_inputs() + [sb.algfile.parse_algebra(PRIMES_ALG)]:
        A = A.renamed("fresh " + A.name)
        for kind in sb.KINDS:
            sb.check_axioms(A, kind)
        assert lifts == [A]
        lifts.clear()
    assert seen and set(seen) == {int}


def test_pair_rules_give_the_solvers_int_rows_on_lifted_inputs(monkeypatch):
    """With a denominator in either table the pair rules read the lifted
    tables, so every coefficient and right-hand side they give ps_space, and
    companion_space on an integer operator, is an int."""
    from superbol import envelope
    seen = []
    pair_rows = envelope._pair_rows

    def recorded(*args):
        for row in pair_rows(*args):
            seen.extend(type(c) for _, c in row)
            yield row

    monkeypatch.setattr(envelope, "_pair_rows", recorded)
    osp_bol = sb.malcev_to_bol(inputs.osp12())
    dense = transport(osp_bol, even_map(osp_bol.space, random.Random(1)))
    for B in lifted_inputs() + [dense]:
        assert B._lifted[0] > 1, B.name
        for p in sb.ps_space(B).basis:
            # the operator times the lcm of its denominators has int entries
            k = math.lcm(*(c.denominator for col in p.operator.columns for _, c in col))
            assert not sb.companion_space(B, k * p.operator).is_empty, B.name
    assert seen and set(seen) == {int}


def test_only_int_tables_and_pairs_reach_the_packed_layer(monkeypatch):
    """With the rule evaluators and the cell packer wrapped to record the type of every
    constant and pair coefficient they are given: every kind's check, check_pseudo,
    ps_space, companion_space and the .alg writer on the lifted inputs, malcev_to_bol on
    the Malcev product of one (3/2 L2_2_2_malcev) and lie_to_supertriple on osp(1|2)/3,
    each with a denominator, hand them ints only."""
    from superbol import malcev as walk, rules, structures
    seen = []

    def recorded(f, read):
        def run(*args):
            seen.extend(type(c) for c in read(*args))
            return f(*args)
        return run

    def rule_input(space, tables, r, x, order):
        return [c for st in tables for e in st.cells().values() for _, c in e] + [
            c for row in x for _, c in row]

    for name in ("_joined", "_listed"):
        monkeypatch.setattr(rules, name, recorded(getattr(rules, name), rule_input))
    packed_cells = recorded(structures._packed_cells,
                            lambda cells, *_: [c for e in cells.values() for _, c in e])
    for module in (structures, walk):   # the Malcev walk's own binding too
        monkeypatch.setattr(module, "_packed_cells", packed_cells)
    rng = random.Random(40)
    malcev = AlgebraDef("3/2 L2_2_2_malcev", lifted_inputs()[3].space,
                        binary=lifted_inputs()[3].binary)
    lie = divided(inputs.osp12(), 3, "osp12/3")
    for A in lifted_inputs():
        A = rescaled(A, 1, 1, "fresh " + A.name)
        assert A._lifted[0] > 1
        for kind in sb.KINDS:
            sb.check_axioms(A, kind)
        pair = random_pair(A, rng)
        assert_same_pseudo(A, pair)
        assert sb.ps_space(A) == slow_reference.ps_space(A), A.name
        if A.space.is_even_first():     # the file grammar's order of labels
            sb.algfile.serialize_algebra(A)
    for M, build in ((malcev, sb.malcev_to_bol), (lie, sb.lie_to_supertriple)):
        assert M._lifted[0] > 1
        build(M)
    assert seen and set(seen) == {int}


def test_the_alg_writer_reads_the_skew_verdict_of_the_bol_check(monkeypatch):
    """After the Bol check of an algebra with L > 1, serialize_algebra runs no skew
    sweep: it reads the verdict the check left on the lifted tables, and the given
    tables keep none of their own.  The lifted inputs whose labels the file grammar
    takes in order, even first: all but the direct sum."""
    from superbol import structures
    swept, skew = [], structures._skew
    monkeypatch.setattr(structures, "_skew", lambda space, st: swept.append(st) or skew(space, st))
    written = [A for A in lifted_inputs() if A.space.is_even_first()]
    assert len(written) == 3
    for A in written:
        A = rescaled(A, 1, 1, "fresh " + A.name)
        assert A._lifted[0] > 1 and sb.check_axioms(A, "bol").passed
        swept.clear()
        text = sb.algfile.serialize_algebra(A)
        assert not swept, A.name
        assert sb.algfile.parse_algebra(text) == A.renamed(A.name)
        for st in (A.binary, A.ternary):
            assert "_skew_witnesses" not in vars(st), A.name


def test_check_pseudo_reads_only_the_lifted_tables():
    """After the Bol check of an algebra with L > 1, check_pseudo of a pair with
    Fraction entries builds no join index and no row view on the given tables,
    and its report is the reference's, scalar types included."""
    rng = random.Random(41)
    for A in lifted_inputs():
        A = rescaled(A, 1, 1, "fresh " + A.name)
        assert A._lifted[0] > 1 and sb.check_axioms(A, "bol").passed
        pairs = [random_pair(A, rng) for _ in range(3)]
        reports = [sb.check_pseudo(A, pair) for pair in pairs]
        for st in (A.binary, A.ternary):
            assert not {"_indexes", "col", "first", "mid"} & set(vars(st)), A.name
        for pair, fast in zip(pairs, reports):
            slow = slow_reference.check_pseudo(A, pair)
            assert fast == slow and typed(fast) == typed(slow), (A.name, str(pair))


def test_cells_are_kept_from_construction_through_a_bol_check():
    """The lift, both skew sweeps, the ternary Jacobi sweep and the triple
    rule's reach all read cells(); every structure object, the lifted
    copies included, holds that dict from the moment it is built, and a
    Bol check reads the same dict object."""
    even = " ".join("a%d" % i for i in range(40))
    odd = " ".join("b%d" % i for i in range(24))
    texts = [PRIMES_ALG, "name one64\neven %s\nodd %s\nbinary [a0,a1] = a2\n"
             "ternary [a0,a1,a2] = a3\n" % (even, odd)]
    for A in [sb.algfile.parse_algebra(text) for text in texts] + [
            rescaled(A, 1, 1, "fresh " + A.name) for A in lifted_inputs()]:
        kept = {id(st): vars(st).get("_cells") for st in (A.binary, A.ternary)}
        L, lifted = A._lifted  # the lift reads cells() of A's own tables
        structures = {id(st): st for st in (A.binary, A.ternary, *lifted.values())}
        assert len(structures) == (4 if L > 1 else 2), A.name
        kept.update((key, vars(st).get("_cells")) for key, st in structures.items()
                    if key not in kept)
        assert None not in kept.values(), A.name
        sb.check_axioms(A, "bol")
        assert all(st.cells() is kept[key] for key, st in structures.items()), A.name


def test_inner_pairs_match_the_reference():
    """inner_pair reads the sparse ternary form; the reference builds
    D_{x,y} from n dense triple evaluations.  The maps must be identical,
    coefficient types included, on basis vectors and on random
    homogeneous vectors."""
    rng = random.Random(3)
    osp_bol = sb.malcev_to_bol(inputs.osp12())
    for B in bols() + lifted_inputs() + [transport(osp_bol, even_map(osp_bol.space, rng))]:
        n, par = B.space.dim, B.space.parities
        vectors = list(B.space.basis())
        for p in (0, 1):
            vectors.append(B.space.vector([rng.choice(VALUES) if par[m] == p else 0
                                           for m in range(n)]))
        for x in vectors:
            for y in vectors:
                fast, slow = sb.inner_pair(B, x, y), slow_reference.inner_pair(B, x, y)
                assert fast == slow, (B.name, str(x), str(y))
                assert [[(type(c), c) for _, c in col] for col in fast.operator.columns] == \
                    [[(type(c), c) for _, c in col] for col in slow.operator.columns]


# ---------------------------------------------------------------------------
# check_morphism multiplies only ints: F = D*f on both algebras' lifted tables,
# each defect packed over (last index, output coordinate) and divided back by
# D^2 L_A L_B (binary) or D^3 L_A^2 L_B^2 (ternary) only for a witness


def divided(A, c, name):
    """A with its binary constants over c and its ternary ones over c^2, a
    missing structure kept missing: c times the identity is a morphism from A."""
    return AlgebraDef(name, A.space, *(None if st is None else from_cells(type(st), A.space, {
        at: tuple((m, Fraction(v) / q) for m, v in entry) for at, entry in st.cells().items()})
        for st, q in ((A.binary, c), (A.ternary, c * c))))


def scaled_map(space, c, g=None, row=None):
    """c times g (the identity when None), its row `row` doubled."""
    rows = [[c * (2 if i == row else 1) * (g.matrix[i][j] if g else int(i == j))
             for j in range(space.dim)] for i in range(space.dim)]
    return sb.GradedMap.from_rows(space, 0, rows)


TWO_FIFTHS = Fraction(2, 5)
# binary only, ternary only and Bol, each with a denominator, and each next to
# its image under (2/5) id, whose denominators differ
@functools.cache
def morphism_sources():
    return [divided(inputs.osp12(), 3, "osp12/3"),
            divided(sb.lie_to_supertriple(inputs.osp12()), 3, "lts(osp12)/3"), lifted_inputs()[0]]


def non_integral(report):
    return any(type(c) is Fraction for w in report.witnesses for c in w.defect.coords)


def test_morphisms_between_lifted_algebras_match_the_reference():
    """Fraction maps between algebras lifted by different L, both above 1:
    (2/5) id and its dense re-basing pass, (1/3) id and a dense map with a
    doubled row fail with non-integral defects, the zero map passes."""
    rng = random.Random(5)
    kinds = set()
    for A in morphism_sources():
        B = divided(A, TWO_FIFTHS, A.name + "*5/2")
        g = even_map(A.space, rng)
        C = transport(A, g)
        assert len({1, A._lifted[0], B._lifted[0]}) == 3, A.name
        assert C._lifted[0] > 1, A.name
        kinds.add((A.binary is None, A.ternary is None))
        assert assert_same_morphism(scaled_map(A.space, TWO_FIFTHS), A, B).passed
        assert assert_same_morphism(scaled_map(A.space, TWO_FIFTHS, g), C, B).passed
        assert assert_same_morphism(sb.GradedMap.zero(A.space), A, B).passed
        for f, source in ((scaled_map(A.space, Fraction(1, 3)), A),
                          (scaled_map(A.space, TWO_FIFTHS, g, row=0), C)):
            report = assert_same_morphism(f, source, B)
            assert not report.passed and non_integral(report), A.name
    assert kinds == {(False, True), (True, False), (False, False)}


EVEN3 = sb.SuperSpace((0, 0, 0), ("a", "b", "c"))


def even_algebra(name, binary, ternary, spread):
    """Constants on EVEN3: each cell the given value at e_{sum of its indices
    mod 3}, or at every coordinate when spread."""
    return AlgebraDef(name, EVEN3, *(from_cells(cls, EVEN3, {
        at: tuple((m, value) for m in range(3) if spread or m == sum(at) % 3)
        for at in itertools.product(range(3), repeat=cls.ARITY)})
        for cls, value in ((BinaryStructure, binary), (TernaryStructure, ternary))))


def test_the_packing_width_holds_the_largest_defects(monkeypatch):
    """Maps and tables whose defect digits reach the W bound: every product of
    B's side positive and of A's side negative, so nothing cancels.  A diagonal
    map on one-entry cells meets the bound exactly; a dense map on dense cells
    comes within a factor 2 (its A side is 3 times smaller than bounded).  Either
    way the largest digit is at least 2^(W-2): one bit less in W decodes it wrong."""
    from superbol import structures
    packed = []
    hom_defects = structures._hom_defects
    monkeypatch.setattr(structures, "_hom_defects", lambda *args: packed.append(
        hom_defects(*args)) or packed[-1])
    big = 2 ** 40 + 1
    x = Fraction(big, 7)
    for spread in (False, True):
        A = even_algebra("A", Fraction(-big, 2), Fraction(-big, 4), spread)
        B = even_algebra("B", Fraction(big, 3), Fraction(big, 9), spread)
        f = sb.GradedMap.from_rows(EVEN3, 0, [[x if spread or i == j else 0 for j in range(3)]
                                              for i in range(3)])
        packed.clear()
        report = assert_same_morphism(f, A, B)
        assert len(report.witnesses) == 3 ** 2 + 3 ** 3
        for W, accs in packed:
            top = max(abs(c) for acc in accs for _, c in structures._digits(acc, W))
            assert 2 ** (W - 2) <= top < 2 ** (W - 1), (spread, W)


def test_check_morphism_makes_no_fraction_before_its_division(monkeypatch):
    """With Fraction maps and Fraction tables, check_morphism makes one Fraction
    per non-integral witness coordinate, in its final division, and none on a
    map that passes."""
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs: made.append(args)
                        or new(cls, *args, **kwargs))
    for A in morphism_sources():
        B = divided(A, TWO_FIFTHS, A.name + "*5/2")
        for f, passes in ((scaled_map(A.space, TWO_FIFTHS), True),
                          (scaled_map(A.space, Fraction(1, 3)), False)):
            made.clear()
            report = sb.check_morphism(f, A.renamed("fresh"), B.renamed("fresh"))
            assert report.passed == passes
            assert len(made) == sum(type(c) is Fraction for w in report.witnesses
                                    for c in w.defect.coords), A.name


# The skew, ternary Jacobi and super Jacobi sweeps and malcev_to_bol add each table's cells
# packed W bits per output coordinate, 2^(W-1) > 4 S1 M (`_Structure._packs`), and read a
# nonzero sum back as its signed W-bit digits.
BIG = 2 ** 70 - 1


def aligned(big, alpha):
    """The even algebra on EVEN3 whose cell (a, b) is big alpha_a alpha_b alpha_t at every
    e_t, each alpha +-1: not skew, and its super Jacobi defect at (i, j, k) is 9 big^2
    alpha_i alpha_j alpha_k alpha_t at e_t, 3 S1 M, of both signs in one vector."""
    return AlgebraDef("aligned", EVEN3, binary=from_cells(BinaryStructure, EVEN3, {
        (a, b): tuple((t, big * alpha[a] * alpha[b] * alpha[t]) for t in range(3))
        for a, b in itertools.product(range(3), repeat=2)}))


def test_packed_sweeps_at_the_bound_match_the_reference():
    """Every kind's check, the lie, lts and bol ones among them, and malcev_to_bol against
    the slow reference, witnesses and scalar types included, where packing could go wrong:
    constants past 2^64, Fraction constants (L > 1), odd-odd cells, and defects within a
    factor of 2 of 2^(W-1), a negative digit below a nonzero one.  12 big^2, aligned's
    4 S1 M, lies just under 2^146, so its Jacobi defects 9 big^2 are at least 2^(W-2); the
    packed {e1, e2, e1} of aff2 times BIG, -3 BIG^2 before the division by 3, is too.  A W
    one bit short, or a decode that reads each W-bit window of a packed int without the
    borrow of the negative digits below it, gives other defects here."""
    osp, aff2, rng = inputs.osp12(), sb.catalog.load("aff2_lie"), random.Random(33)
    lies = [rescaled(osp, BIG, BIG ** 2, "osp12*big"), rescaled(aff2, BIG, BIG ** 2, "aff2*big"),
            rescaled(osp, Fraction(BIG, 3), Fraction(BIG, 3) ** 2, "osp12*big/3"),
            transport(osp, even_map(osp.space, rng)), transport(aff2, even_map(aff2.space, rng))]
    malcevs = lies + [rescaled(inputs.m7(), HALF, HALF ** 2, "M7/2")]
    assert {A._lifted[0] > 1 for A in malcevs} == {True, False}
    for M in malcevs:
        derived = [sb.malcev_to_bol(M)] + ([sb.lie_to_supertriple(M)] if M in lies else [])
        for A in [M, mutate(M, rng), mutate(M, rng)] + derived + [mutate(derived[0], rng)]:
            assert_same_checks(A)
        cells, full = derived[0].ternary.cells(), slow_reference.bol_cells(M)
        assert [(at, [(t, type(c), c) for t, c in entry]) for at, entry in cells.items()] == [
            (at, [(t, type(c), c) for t, c in full[at]]) for at in sorted(full)], M.name
    big_aff2 = malcevs[1]
    W = big_aff2._lifted[1]["binary"]._packs[0]
    assert sb.malcev_to_bol(big_aff2).ternary.cells()[(0, 1, 0)] == ((1, -BIG ** 2),)
    assert 2 ** (W - 2) <= 3 * BIG ** 2 < 2 ** (W - 1)
    near = aligned(math.isqrt(2 ** 146 // 12), (1, -1, 1))
    assert_same_checks(near)
    W, jacobi = near.binary._packs[0], [w.defect.coords for w in sb.check_axioms(
        near, "lie").witnesses if w.axiom == "jacobi"]
    assert len(jacobi) == 27 and W == 147
    assert {abs(c) for coords in jacobi for c in coords} == {9 * near.binary._magnitudes[0] ** 2}
    assert 2 ** (W - 2) <= 9 * near.binary._magnitudes[0] ** 2 < 2 ** (W - 1)
    assert {tuple(c > 0 for c in coords) for coords in jacobi} == {
        (True, False, True), (False, True, False)}
