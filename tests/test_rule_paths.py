"""The pseudo-derivation rules have two evaluation paths, and they agree.

`rules._rule_defects` evaluates a rule on the pairs (P, a) of each
degree, packed into one, in one of two ways.  The join (`_joined`) walks the
index of the tables by the value in each slot (`_by_slot`, built in one pass
per table, each cell's key and value windows computed inline) from the pair's
nonzero entries, plus the cells that meet its w view, adding each cell it
reaches straight into its tuple's sum.  The per-tuple path
(`_listed`) visits every tuple the rule lists.  `_joins` picks one per
table: the join where the rule's own product has fewer than half its
n^arity cells nonzero.

Both paths must give the same (key + tuple, defect) list, scalar types
included.  Each path is forced by patching `_joins`, on one input of each
kind:
- the sparse ladder, bol(M7 + osp(1|2)) and lts(osp(1|2) + osp(1|2));
- a dense copy;
- lifted tables with Fraction constants, L > 1;
- a binary product whose skew sweep fails, so the product rule mirrors nothing;
- a ternary product whose Jacobi sweep fails, so Nambu derives nothing;
- a ternary product that passes triple skew and ternary Jacobi but fails
  Nambu, so the check evaluates its failing inner pairs again at every
  rule tuple u <= v.
On random sparse tables with mostly odd parities, unit pairs x[v] = e_m
at every v, the companion's included, reach each edge of every index
window, and the join gives the per-tuple path's list at each order.
On both paths check_axioms and check_pseudo match `slow_reference`, on
inner pairs and on random and sparse pairs of both degrees.  Each table
keeps its own part of the join's index, so algebras that share a table
share its part and keep no other table alive.  The sparse
ladder's tables take the join and the dense copies' the per-tuple path.
"""

import functools
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from bench_inputs import inputs
import slow_reference
import superbol as sb
from superbol import rules, structures
from superbol.structures import AlgebraDef

RULES = (("nambu", ("ternary",)), ("product-rule", ("binary", "ternary")))


def reference():
    """test_reference, imported at its first use inside a test: its import builds and
    checks its pool of catalog and derived algebras, which a fault in the join breaks."""
    import test_reference
    return test_reference


def dense(A):
    return inputs.transport(A, inputs.dense_even_map(random.Random(1), A.space), "dense " + A.name)


def broken(B, what):
    """B with one binary constant doubled ("skew": the skew sweep fails), or
    with [e1, e2, e3] = e1 and its skew mirror added ("jacobi": only the
    ternary Jacobi sweep fails)."""
    st = B.binary if what == "skew" else B.ternary
    cells = dict(st.cells())
    if what == "skew":
        at = next(at for at in sorted(cells) if at[0] != at[1])
        cells[at] = tuple((t, 2 * c) for t, c in cells[at])
    else:
        cells[0, 1, 2], cells[1, 0, 2] = ((0, 1),), ((0, -1),)
    changed = reference().from_cells(type(st), B.space, cells)
    return AlgebraDef("%s broken %s" % (B.name, what), B.space,
                      binary=changed if what == "skew" else B.binary,
                      ternary=B.ternary if what == "skew" else changed)


def nambu_broken(A):
    """A with its first product e_i e_j, i < j, doubled, and the ternary product
    malcev_to_bol installs made from that product, {x,y,z} = (2[[x,y],z] -
    s[[y,z],x] - s[[z,x],y])/3, built from public products only: super skew and
    ternary Jacobi for any super skew product, but failing Nambu, as the doubled
    product is no Malcev product."""
    space, par, e = A.space, A.space.parities, A.space.basis()
    first = min(at for at in A.binary.cells() if at[0] < at[1])
    C = AlgebraDef("doubled " + A.name, space, binary=sb.BinaryStructure.from_products(space, {
        (i, j): A.product(e[i], e[j]).scale(1 + ((i, j) == first)).coords
        for i, j in A.binary.cells() if i <= j}))
    P, n = C.product, space.dim

    def triple(i, j, k):
        x, y, z = e[i], e[j], e[k]
        return (2 * P(P(x, y), z) - sb.sign(par[i] * (par[j] + par[k])) * P(P(y, z), x)
                - sb.sign(par[k] * (par[i] + par[j])) * P(P(z, x), y)).scale(Fraction(1, 3))
    return AlgebraDef("%s broken nambu" % A.name, space, binary=C.binary,
                      ternary=sb.TernaryStructure.from_products(space, {
                          (i, j, k): triple(i, j, k).coords
                          for i in range(n) for j in range(i, n) for k in range(n)}))


KINDS = ("sparse", "dense", "lifted", "skew broken", "jacobi broken", "nambu broken")


@functools.cache
def inner_input(kind):
    """The inputs of one kind, built at their first use inside a test and kept: a
    construction that a fault breaks (malcev_to_bol's Bol check runs the join) fails
    the tests that use it, not the collection of this module and those importing it."""
    osp, L231 = inputs.osp12(), sb.catalog.load("L2_3_1_bol")
    return {"sparse": lambda: [
                sb.malcev_to_bol(inputs.direct_sum(inputs.m7(), osp, "M7+osp12")),
                sb.lie_to_supertriple(inputs.direct_sum(osp, inputs.osp12("_2"), "osp12+osp12"))],
            "dense": lambda: [dense(sb.malcev_to_bol(osp))],
            "lifted": lambda: [reference().lifted_inputs()[0]],
            "skew broken": lambda: [broken(L231, "skew")],
            "jacobi broken": lambda: [broken(L231, "jacobi")],
            "nambu broken": lambda: [nambu_broken(osp)]}[kind]()


@pytest.fixture
def path(monkeypatch):
    """path(join) forces the join (True) or the per-tuple path (False)."""
    return lambda join: monkeypatch.setattr(rules, "_joins", lambda tables: join)


def typed(acc):
    return [(type(c), c) for c in acc]


def inner_pairs(B, tables):
    """The inner pairs the Bol check evaluates: i <= j once the tables are super skew."""
    return list(rules._inner_pairs(B.space, structures._all_skew(tables), *tables))


def sweep_defects(B, reads):
    """The defects of the rule on the tables named in reads on the inner pairs as
    the Bol check evaluates them: on the lifted tables, mirrored and derived by
    the sweeps' verdicts."""
    tables = structures._swept(B, reads)
    return [(at, typed(acc)) for at, acc in rules._rule_defects(
        B.space, tables, inner_pairs(B, tables), rules._order(tables))]


def sparse_odd_pair(B):
    """An odd pair with two operator entries and a Fraction coefficient."""
    n, par = B.space.dim, B.space.parities
    odd = [m for m in range(n) if par[m]]
    even = [m for m in range(n) if not par[m]]
    rows = [[0] * n for _ in range(n)]
    rows[odd[0]][even[0]], rows[even[-1]][odd[-1]] = Fraction(2, 3), -1
    comp = [Fraction(1, 2) if m == odd[-1] else 0 for m in range(n)]
    return sb.PseudoDerivationPair(sb.GradedMap.from_rows(B.space, 1, rows), B.space.vector(comp))


def probe_pairs(B):
    """Two inner pairs (when B has both products), two random pairs and the
    sparse odd pair."""
    rng, basis = random.Random(B.name), B.space.basis()
    pairs = [reference().random_pair(B, rng) for _ in range(2)]
    if B.binary is not None:
        pairs += [sb.inner_pair(B, x, y) for x, y in [(basis[0], basis[1]), (basis[-1], basis[1])]]
    if B.space.parities.count(1) and B.space.parities.count(0):
        pairs.append(sparse_odd_pair(B))
    assert {p.degree for p in pairs} == {0, 1} or not any(B.space.parities)
    return pairs


def pseudo_defects(B, pair):
    """check_pseudo's defects, of the rules whose structures B has, on the lifted tables for
    the pair lifted as check_pseudo lifts it: times D, the lcm of its denominators, and its
    operator terms times L."""
    L, (*P, a) = B._lifted[0], pair._x()
    D = math.lcm(*(c.denominator for row in (*P, a) for _, c in row))
    x = tuple(tuple((t, int(c * D * s)) for t, c in row)
              for row, s in [(row, L) for row in P] + [(a, 1)])
    return [(axiom, at, typed(acc)) for axiom, reads in rules._RULES
            if all(getattr(B, what) is not None for what in reads)
            for at, acc in rules._rule_defects(
                B.space, structures._swept(B, reads), [((), pair.degree, x)])]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_both_paths_give_the_same_defects(kind, path):
    """The same lists, and nonempty ones to compare: the broken inputs fail in
    the sweeps, and every input has a probe pair that fails."""
    for B in inner_input(kind):
        found = []
        for axiom, reads in RULES:
            if B.binary is None and "binary" in reads:
                continue
            path(True)
            joined = sweep_defects(B, reads)
            path(False)
            assert sweep_defects(B, reads) == joined, (B.name, axiom)
            found += joined
        assert bool(found) == kind.endswith("broken"), B.name
        for pair in probe_pairs(B):
            path(True)
            joined = pseudo_defects(B, pair)
            path(False)
            assert pseudo_defects(B, pair) == joined, (B.name, str(pair))
            found += joined
        assert found, B.name


def random_table(cls, space, rng):
    """A random sparse table of cls on space: each cell nonzero with chance 0.4, with one or
    two small constants on outputs of its parity."""
    n, par, cells = space.dim, space.parities, {}
    for at in itertools.product(range(n), repeat=cls.ARITY):
        outs = [t for t in range(n) if par[t] == sum(par[i] for i in at) % 2]
        if outs and rng.random() < 0.4:
            cells[at] = tuple((t, rng.choice((-2, -1, 1, 3)))
                              for t in sorted(rng.sample(outs, min(2, len(outs)))))
    return reference().from_cells(cls, space, cells)


@pytest.mark.parametrize("seed", range(8))
def test_the_join_reaches_every_edge_of_its_index_windows(seed):
    """On a random sparse table, n = 3-6 with mostly odd parities, for the
    ternary table alone and the binary then the ternary, at each order the
    sweeps and solvers use: the unit pair x[v] = e_m of each v < n and m, and
    the companion's x[n] = e_m, each at its own degree, reaches every cell
    of the index at each v of its window and just past either edge, and the
    join gives the per-tuple path's list."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    par = tuple(int(rng.random() < 0.75) for _ in range(n - 1)) + (1,)
    space = sb.SuperSpace(par, tuple("e%d" % (i + 1) for i in range(n)))
    ternary = random_table(sb.TernaryStructure, space, rng)
    binary = random_table(sb.BinaryStructure, space, rng)
    found = 0
    for tables in ((ternary,), (binary, ternary)):
        for order in ((1, 0), (0, -math.inf), (-math.inf, -math.inf)):
            for v, m in itertools.product(range(n + 1), range(n)):
                x = tuple(((m, 1),) if u == v else () for u in range(n + 1))
                r = par[m] ^ (par[v] if v < n else 0)
                joined = list(rules._joined(space, tables, r, x, order))
                assert joined == list(rules._listed(space, tables, r, x, order)), \
                    (len(tables), order, v, m)
                found += len(joined)
    assert found


def test_the_inputs_fail_where_they_should():
    """Each input exercises what it is named for: the broken ones fail their
    identities, with witnesses to compare; the skew and Jacobi ones mirror or
    derive nothing, and the Nambu one passes every sweep the derived tuples
    need, so its failing pairs are evaluated again at every u <= v."""
    for B in inner_input("sparse") + inner_input("dense") + inner_input("lifted"):
        kind = "bol" if B.binary is not None else "lts"
        assert sb.check_axioms(B.renamed("fresh"), kind).passed, B.name
    assert reference().lifted_inputs()[0]._lifted[0] > 1
    (skew,), (jacobi,) = inner_input("skew broken"), inner_input("jacobi broken")
    assert skew.binary._skew_witnesses and not skew.ternary._skew_witnesses
    assert jacobi.ternary._jacobi_witnesses and not jacobi.ternary._skew_witnesses
    for B in (skew, jacobi):
        axioms = {w.axiom for w in sb.check_axioms(B.renamed("fresh"), "bol").witnesses}
        assert {"nambu", "product-rule"} & axioms, B.name
    (nambu,) = inner_input("nambu broken")
    assert nambu._lifted[0] == 3 and rules._derives(structures._swept(nambu, ("ternary",)))
    report = sb.check_axioms(nambu.renamed("fresh"), "lts")
    assert {w.axiom for w in report.witnesses} == {"nambu"} and len(report.witnesses) == 830


@pytest.mark.parametrize("join", [True, False])
def test_checks_on_both_paths_match_the_reference(join, path):
    path(join)
    for B in [A for kind in KINDS for A in inner_input(kind)]:
        kind = "bol" if B.binary is not None else "lie_supertriple"
        fresh = B.renamed(B.name)
        fast, slow = sb.check_axioms(fresh, kind), slow_reference.check_axioms(B, kind)
        assert fast == slow, (B.name, join)
        assert [(w.axiom, w.at, typed(w.defect.coords)) for w in fast.witnesses] == \
            [(w.axiom, w.at, typed(w.defect.coords)) for w in slow.witnesses], (B.name, join)
        if B.binary is None:
            continue
        for pair in probe_pairs(B):
            fast, slow = sb.check_pseudo(B, pair), slow_reference.check_pseudo(B, pair)
            assert fast == slow, (B.name, str(pair), join)
            assert [typed(w.defect.coords) for w in fast.witnesses] == \
                [typed(w.defect.coords) for w in slow.witnesses]


def test_an_odd_sparse_pair_that_fails_is_joined_and_matches_the_reference(monkeypatch):
    """The sparse odd pair is no inner pair and fails both rules; on bol(M7 +
    osp(1|2)) both rules' tables take the join, whose Koszul signs its odd
    entries test."""
    B = inner_input("sparse")[0]
    pair, joined = sparse_odd_pair(B), []
    join = rules._joined
    monkeypatch.setattr(rules, "_joined", lambda space, tables, *args: joined.append(
        tuple(st.ARITY for st in tables)) or join(space, tables, *args))
    report = sb.check_pseudo(B, pair)
    assert joined == [(3,), (2, 3)]
    assert {w.axiom for w in report.witnesses} == {"derives-triple", "derives-product"}
    assert report == slow_reference.check_pseudo(B, pair)


def test_the_sparse_ladder_is_joined_and_dense_copies_visit_tuples():
    """The path is chosen per table, from its nonzero cells alone: the sparse
    ladder's lifted tables join, but for bol(M7)'s binary one, 42 of 49 cells
    nonzero, and the dense copies' tables list."""
    bol12, lts = inner_input("sparse")
    bol_m7 = sb.malcev_to_bol(inputs.m7())
    for B, reads in ((bol12, ("ternary",)), (bol12, ("binary", "ternary")),
                     (lts, ("ternary",)), (bol_m7, ("ternary",))):
        assert rules._joins(structures._swept(B, reads)), (B.name, reads)
    assert len(bol_m7.binary.cells()) == 42
    assert not rules._joins(structures._swept(bol_m7, ("binary", "ternary")))
    for B in inner_input("dense") + [dense(bol_m7)]:
        for _, reads in RULES:
            assert not rules._joins(structures._swept(B, reads)), (B.name, reads)


def test_a_table_with_half_its_cells_nonzero_is_listed_and_one_fewer_is_joined():
    """L2_2_2_bol's binary table has 8 of its 16 cells nonzero: the product rule
    lists it.  The same table with one nonzero cell dropped is joined."""
    B = sb.catalog.load("L2_2_2_bol")
    cells = dict(B.binary.cells())
    assert len(cells) == 8 and B.space.dim == 4
    assert not rules._joins((B.binary, B.ternary))
    del cells[min(cells)]
    fewer = reference().from_cells(type(B.binary), B.space, cells)
    assert len(fewer.cells()) == 7 and rules._joins((fewer, B.ternary))


def test_check_pseudo_on_a_dense_and_a_fraction_pair_over_a_sparse_table_matches_the_reference():
    """On sparse bol(M7 + osp(1|2)), whose tables join, a pair with every entry its
    degree allows nonzero, in ints, and the same pair over 3, in Fractions: each
    fails both rules, with the reference's witnesses and scalar types."""
    B = inner_input("sparse")[0]
    assert all(rules._joins(structures._structures(B, reads)) for _, reads in RULES)
    n, par, rng = B.space.dim, B.space.parities, random.Random(3)
    for r in (0, 1):
        rows = [[rng.choice([-2, -1, 1, 3]) if par[t] == (par[m] + r) % 2 else 0
                 for m in range(n)] for t in range(n)]
        comp = [rng.choice([-1, 2]) if par[m] == r else 0 for m in range(n)]
        for scale in (1, Fraction(1, 3)):
            pair = sb.PseudoDerivationPair(
                sb.GradedMap.from_rows(B.space, r, [[scale * c for c in row] for row in rows]),
                B.space.vector([scale * c for c in comp]))
            fast, slow = sb.check_pseudo(B, pair), slow_reference.check_pseudo(B, pair)
            assert {w.axiom for w in fast.witnesses} == {"derives-triple", "derives-product"}
            assert fast == slow, (r, scale)
            assert [typed(w.defect.coords) for w in fast.witnesses] == \
                [typed(w.defect.coords) for w in slow.witnesses], (r, scale)


def test_the_join_index_is_built_once_per_tables_and_order(monkeypatch):
    """check_pseudo joins the sparse odd pair for both rules, each table
    building its own part of the index per order and rule arity: the ternary
    one for each rule, the binary one for the product rule.  A second call on
    the same algebra builds nothing and gives the same report; an algebra with
    the same binary table object but its own, equal, ternary one builds only
    that ternary table's two parts, and no part is kept under another table."""
    builds = []
    by_slot = rules._by_slot
    monkeypatch.setattr(rules, "_by_slot", lambda par, st, a, d: builds.append(
        (id(st), a, d)) or by_slot(par, st, a, d))
    B = sb.malcev_to_bol(inputs.direct_sum(inputs.m7(), inputs.osp12(), "M7+osp12"))
    pair, anywhere = sparse_odd_pair(B), (-math.inf,) * 2
    builds.clear()  # malcev_to_bol's Bol check joined the inner pairs at its own orders
    first = sb.check_pseudo(B, pair)
    assert builds == [(id(B.ternary), 3, anywhere), (id(B.binary), 2, anywhere),
                      (id(B.ternary), 2, anywhere)]
    second = sb.check_pseudo(B, pair)
    assert len(builds) == 3
    assert second == first and str(second) == str(first) and not first.passed
    ternary = reference().from_cells(type(B.ternary), B.space, B.ternary.cells())
    assert ternary == B.ternary and ternary is not B.ternary
    other = AlgebraDef(B.name, B.space, binary=B.binary, ternary=ternary)
    assert sb.check_pseudo(other, pair) == first
    assert builds[3:] == [(id(ternary), 3, anywhere), (id(ternary), 2, anywhere)]
    assert set(ternary._indexes) == {(anywhere, 3), (anywhere, 2)}
    assert (anywhere, 2) in B.binary._indexes and (anywhere, 3) not in B.binary._indexes


def test_results_that_share_a_binary_table_leave_nothing_on_it():
    """malcev_to_bol of a Lie input (L = 1) shares the input's binary table,
    and its Bol check joins the product rule.  Fifty results, each dropped,
    leave at most the binary table's own parts of the index on it, and their
    ternary tables and index parts are freed with them."""
    A = inputs.direct_sum(inputs.osp12(), inputs.osp12("_2"), "osp12+osp12")
    assert sb.malcev_to_bol(A).binary is A.binary    # A's own reports and lift stay
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            sb.malcev_to_bol(A)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(A.binary._indexes) <= 2
    assert grown < 1 << 20, grown
