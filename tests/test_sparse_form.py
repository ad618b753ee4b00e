"""Structures, maps and forms hold only their sparse form.

The value of a BinaryStructure, TernaryStructure, GradedMap or
BilinearForm is its sparse form (`entries`, `columns`, `rows`); the dense
views `table`, `matrix` and `gram` are derived on demand.  These tests
hold the contract of that representation: the dense view gives back the
dense input, two objects are equal exactly when their dense inputs are
(ints, integral Fractions and Fraction(0) mixed), equal objects hash
equal, and the package's own builders, which write the sparse form
directly, agree with the dense constructors.  A guard test runs the
checks and constructions on catalog algebras and on a 64-label zero
algebra and asserts that none of them built a dense view.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference
import superbol as sb
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure
from test_reference import POOL, _osp12

SPACE = sb.SuperSpace.even_first(2, 1)
PAR = SPACE.parities
N = SPACE.dim
# the same scalars in several types, zero among them
VALUES = (0, Fraction(0), 1, Fraction(1), -2, Fraction(-2, 1), Fraction(1, 2), Fraction(-2, 3))


def _allowed(kind):
    """The dense indices that may hold a nonzero value."""
    cube = [(i, j, k) for i in range(N) for j in range(N) for k in range(N)]
    if kind == "binary":
        return [at for at in cube if PAR[at[2]] == (PAR[at[0]] + PAR[at[1]]) % 2]
    if kind == "ternary":
        return [at + (t,) for at in cube for t in range(N)
                if PAR[t] == sum(PAR[i] for i in at) % 2]
    square = [(i, j) for i in range(N) for j in range(N)]
    if kind in ("map0", "map1"):
        return [(i, j) for i, j in square if PAR[i] == (PAR[j] + int(kind[-1])) % 2]
    return [(i, j) for i, j in square if PAR[i] == PAR[j]]


DEPTH = {"binary": 3, "ternary": 4, "map0": 2, "map1": 2, "form": 2}


def dense(kind, cells):
    """The nested dense tuple holding cells {index: value}, 0 elsewhere."""
    def build(at):
        if len(at) == DEPTH[kind]:
            return cells.get(at, 0)
        return tuple(build(at + (i,)) for i in range(N))
    return build(())


def make(kind, table):
    if kind == "binary":
        return BinaryStructure(SPACE, table)
    if kind == "ternary":
        return TernaryStructure(SPACE, table)
    if kind == "form":
        return sb.BilinearForm(SPACE, table)
    return sb.GradedMap(SPACE, int(kind[-1]), table)


def view(obj):
    for name in ("table", "matrix", "gram"):
        if hasattr(type(obj), name):
            return getattr(obj, name)


def retyped(value):
    """The same number in the other type: int <-> integral Fraction."""
    if type(value) is int:
        return Fraction(value)
    return int(value) if value.denominator == 1 else value


def scalars(table):
    if isinstance(table, tuple):
        for sub in table:
            yield from scalars(sub)
    else:
        yield table


KIND = st.sampled_from(sorted(DEPTH))


def cells(kind):
    return st.dictionaries(st.sampled_from(_allowed(kind)), st.sampled_from(VALUES), max_size=8)


@settings(max_examples=60, deadline=None)
@given(KIND, st.data())
def test_dense_view_gives_back_the_input(kind, data):
    table = dense(kind, data.draw(cells(kind)))
    got = view(make(kind, table))
    assert got == table
    # normalized: ints where a value is integral, so no Fraction(0) survives
    assert all(type(c) is int or c.denominator != 1 for c in scalars(got))


@settings(max_examples=100, deadline=None)
@given(KIND, st.data())
def test_equal_exactly_when_the_dense_inputs_are(kind, data):
    first = data.draw(cells(kind))
    # the second input: the same cells, some retyped, some perhaps changed
    second = {at: retyped(v) if data.draw(st.booleans()) else v for at, v in first.items()}
    second.update(data.draw(cells(kind).filter(lambda c: len(c) <= 1)))
    a, b = dense(kind, first), dense(kind, second)
    x, y = make(kind, a), make(kind, b)
    assert (x == y) == (a == b)
    if x == y:
        assert hash(x) == hash(y)
        assert repr(x) == repr(y)


@settings(max_examples=30, deadline=None)
@given(cells("binary"), cells("ternary"), st.text(min_size=1, max_size=5))
def test_renamed_algebras_stay_equal(bcells, tcells, name):
    binary = BinaryStructure(SPACE, dense("binary", bcells))
    ternary = TernaryStructure(SPACE, dense("ternary", tcells))
    A = AlgebraDef("A", SPACE, binary=binary, ternary=ternary)
    C = A.renamed(name)
    assert C.binary == binary and C.ternary == ternary
    assert (C == A) == (name == "A")
    assert C.renamed("A") == A and hash(C.renamed("A")) == hash(A)
    retyped_copy = AlgebraDef(name, SPACE, binary=BinaryStructure(SPACE, dense("binary", {
        at: retyped(v) for at, v in bcells.items()})), ternary=ternary)
    assert retyped_copy == C and hash(retyped_copy) == hash(C)


def same_as_dense(obj):
    """obj equals, and hashes like, the object the dense constructor builds
    from obj's own dense view."""
    if isinstance(obj, sb.GradedMap):
        again = sb.GradedMap(obj.space, obj.degree, obj.matrix)
    elif isinstance(obj, sb.BilinearForm):
        again = sb.BilinearForm(obj.space, obj.gram)
    else:
        again = type(obj)(obj.space, obj.table)
    assert again == obj and hash(again) == hash(obj)


MALCEVS = [A for A in POOL if A.ternary is None and sb.check_axioms(A, "malcev").passed]
LIES = [A for A in MALCEVS if sb.check_axioms(A, "lie").passed]


def test_builders_agree_with_the_dense_constructors():
    for A in POOL:
        for s in (A.binary, A.ternary):
            if s is not None:
                same_as_dense(s)
    for M in MALCEVS:
        same_as_dense(sb.malcev_to_bol(M).ternary)
    for L in LIES:
        same_as_dense(sb.lie_to_supertriple(L).ternary)
        same_as_dense(sb.killing_form(L))
    for B in (sb.malcev_to_bol(M) for M in MALCEVS):
        env = sb.enveloping(B)
        same_as_dense(env.lie.binary)
        same_as_dense(sb.killing_form(env.lie))
        same_as_dense(sb.killing_ricci(B, "direct"))
        same_as_dense(sb.killing_ricci(B, "restriction"))
        for pair in env.pairs.basis:
            same_as_dense(pair.operator)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("map0", "map1")), st.sampled_from(("map0", "map1")), st.data())
def test_map_builders_agree_with_the_dense_constructor(fkind, gkind, data):
    f = make(fkind, dense(fkind, data.draw(cells(fkind))))
    g = make(gkind, dense(gkind, data.draw(cells(gkind))))
    for h in (sb.graded_commutator(f, g), f.compose(g), f + f, 3 * g, -g):
        same_as_dense(h)
    pair = sb.PseudoDerivationPair(f, SPACE.zero())
    again = sb.PseudoDerivationPair.from_flat(SPACE, pair.flatten())
    # a zero pair comes back with degree 0
    assert again == pair or (f.is_zero() and again.degree == 0)
    same_as_dense(again.operator)


def _zero_64():
    labels = ["a%d" % i for i in range(40)], ["b%d" % i for i in range(24)]
    return sb.parse_algebra("name zero64\neven %s\nodd %s\n" % tuple(map(" ".join, labels)))


def test_no_dense_view_is_built():
    """The checks and constructions read only the sparse forms: none of
    them leaves a `table`, `matrix` or `gram` on the objects it used."""
    seen = []
    for ent in sb.catalog.entries():
        A = ent.algebra
        seen.append(A)
        for kind in sb.KINDS:
            try:
                sb.check_axioms(A, kind)
            except sb.StructureError:
                pass
        sb.center(A)
        sb.serialize_algebra(A)
        if sb.check_axioms(A, "malcev").passed and A.ternary is None:
            seen.append(sb.malcev_to_bol(A))
    for B in [A for A in seen if A.ternary is not None and sb.check_axioms(A, "bol").passed]:
        H = sb.ps_space(B)
        env = sb.enveloping(B)
        seen += [env.lie, sb.enveloping(B, H).lie]
        forms = [sb.killing_ricci(B, "direct"), sb.killing_ricci(B, "restriction")]
        for b in forms:
            sb.check_invariant(B, b)
        seen += [pair.operator for pair in H.basis + env.pairs.basis] + forms
    Z = _zero_64()
    for kind in sb.KINDS:
        sb.check_axioms(Z, kind)
    sb.center(Z)
    sb.serialize_algebra(Z)
    bol = sb.malcev_to_bol(Z)
    seen += [Z, bol, sb.killing_ricci(bol, "direct")]
    for obj in seen:
        parts = [obj.binary, obj.ternary] if isinstance(obj, AlgebraDef) else [obj]
        for part in parts:
            if part is not None:
                assert not {"table", "matrix", "gram"} & set(vars(part)), obj



def test_pair_solvers_build_no_dense_pair_row(monkeypatch):
    """ps_space, ips_space, companion_space and enveloping go from the rule
    tuples to the basis pairs in sparse rows: on the catalog Bol algebras
    and bol(osp(1|2)), the pair layer and the elimination flatten no pair,
    read none from a flat row, and build no dense row as long as a
    flattened pair (n^2 + n) or as the unknowns of a degree.  The rows the
    rules give for ps_space(bol(osp(1|2))) are pinned per degree: the rule
    tuples (u, v, ...) with u <= v only, of the triple rule's only those with
    u < v and u <= w (its table passes ternary Jacobi), each row once up to sign."""
    from superbol import envelope, linalg
    flattened, widths, rows = [], [], []
    flatten, from_flat = sb.PseudoDerivationPair.flatten, sb.PseudoDerivationPair.from_flat
    monkeypatch.setattr(sb.PseudoDerivationPair, "flatten",
                        lambda p: flattened.append(p) or flatten(p))
    monkeypatch.setattr(sb.PseudoDerivationPair, "from_flat", classmethod(
        lambda cls, space, coords: flattened.append(coords) or from_flat(space, coords)))
    dense, rref = envelope._dense, linalg.rref
    for module in (envelope, linalg):
        monkeypatch.setattr(module, "_dense", lambda e, n: widths.append(n) or dense(e, n))
        monkeypatch.setattr(module, "rref", lambda rs: widths.extend(map(len, rs)) or rref(rs),
                            raising=False)
    pair_rows = envelope._pair_rows

    def counted(B, r, *args):
        for row in pair_rows(B, r, *args):
            rows.append(r)
            yield row

    monkeypatch.setattr(envelope, "_pair_rows", counted)
    osp = sb.malcev_to_bol(_osp12())
    bols = [e.algebra for e in sb.catalog.entries() if e.kind == "bol"] + [osp]
    for B in bols:
        n, par = B.space.dim, B.space.parities
        unknowns = {sum(par[m] == (par[s] + r) % 2 for m in range(n) for s in range(n))
                    + par.count(r) for r in (0, 1)}
        widths.clear()
        rows.clear()
        H = sb.ps_space(B)
        if B is osp:
            read = (rows.count(0), rows.count(1))
        sb.ips_space(B)
        for pair in H.basis[:4]:
            sb.companion_space(B, pair.operator)
        sb.enveloping(B)
        sb.enveloping(B, H)
        assert widths and not set(widths) & ({n * n + n} | unknowns), B.name
    assert flattened == []
    # the reference's rows for ps_space(bol(osp(1|2))), each once up to sign
    assert read == tuple(len({max(row, tuple((k, -c) for k, c in row))
                              for row in slow_reference.pair_rows(osp, r)}) for r in (0, 1))
    assert read == (39, 54)


def test_pair_spaces_keep_their_brackets_sparse(monkeypatch):
    """A PairSpace holds the structure constants of H sparse, like every
    structure: after ps_space, ips_space, both envelopes and
    semisimplicity_report on the catalog Bol algebras and bol(osp(1|2)), no
    pair space they built holds the dense `brackets` view, and the view
    gives back exactly the stored nonzero coordinates at each stored (m, l).
    On the zero algebra with six even labels, whose PS has d = 42, far fewer
    than d^3 coefficients are stored."""
    from superbol.graded import _sparse
    built = []
    closed = sb.PairSpace._closed.__func__
    monkeypatch.setattr(sb.PairSpace, "_closed", classmethod(
        lambda cls, A, rows: built.append(closed(cls, A, rows)) or built[-1]))
    bols = [e.algebra for e in sb.catalog.entries() if e.kind == "bol"]
    for B in bols + [sb.malcev_to_bol(_osp12())]:
        H = sb.ps_space(B)
        sb.ips_space(B)
        sb.enveloping(B)
        sb.enveloping(B, H)
        sb.semisimplicity_report(B)
    assert len(built) >= 5 * len(bols) and any(H.dim > 1 for H in built)
    assert not any("brackets" in vars(H) for H in built)
    for H in built:
        assert all(c == _sparse(H.brackets[m][l]) for (m, l), c in H._brackets.items())
    H = sb.ps_space(sb.catalog.load("abelian_6_0"))
    d = H.dim
    assert d == 42 and sum(len(c) for c in H._brackets.values()) < d ** 2
