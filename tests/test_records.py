"""The package's value classes behave as dataclass(frozen=True) classes.

`graded.record` writes each record's methods itself, so that importing
the package does not import `dataclasses`.  Here `dataclasses` is the
oracle: every record class gets a `make_dataclass(..., frozen=True)`
twin with the same fields, in the order of the class's annotations, a
field marked `graded.hidden` being `field(compare=False, repr=False)`
there, and the two must agree on repr, ==, != and hash over
catalog-derived instances.
"""

import dataclasses
import itertools

import pytest

import superbol as sb
from superbol.catalog import CatalogEntry
from superbol.structures import AlgebraDef, _Structure

# the fields marked `hidden`, left out of ==, the hash and repr; every other field is in all three
HIDDEN = {"Subspace": {"pivots", "_common"}, "AffineSubspace": {"pivots", "_common"},
          "PairSpace": {"pivots", "_packs", "_common"}}

B = sb.catalog.load("L2_3_1_bol")
M = sb.catalog.load("L2_2_2_malcev")
BETA = sb.killing_ricci(B, "direct")
# the records that convert a dense argument in a constructor of their own
OWN_INIT = (sb.GradedMap, _Structure, sb.BilinearForm)


def _instances():
    """{record class: instances}: for each class equal objects built apart,
    unequal ones and, where a class has hidden fields, objects that differ
    in those only."""
    space = B.space
    fresh = sb.catalog.build("L2_3_1_bol").algebra
    failed = sb.check_axioms(M, "lie")
    env = sb.enveloping(B)
    H = sb.ips_space(B)
    pair = H.basis[0]
    sub = sb.span_reduce(space, [space.basis()[0], space.basis()[3]])
    affine = sb.solve_affine([[1, 1, 0], [0, 1, 1]], [1, 2])
    w = failed.witnesses[0]
    return {
        sb.SuperSpace: [space, sb.SuperSpace(space.parities, space.labels), M.space],
        sb.SuperVector: [space.basis()[0], space.vector((1, 0, 0, 0)), space.basis()[1],
                         M.space.basis()[0]],
        sb.GradedMap: [sb.GradedMap.identity(space), sb.GradedMap.from_rows(
            space, 0, [[int(i == j) for j in range(4)] for i in range(4)]),
            sb.GradedMap.zero(space), sb.GradedMap.zero(space, 1)],
        _Structure: [B.binary, fresh.binary, B.ternary, fresh.ternary,
                     sb.BinaryStructure(space, B.binary.table), M.binary],
        AlgebraDef: [B, fresh, B.renamed("other"), M, AlgebraDef("t", space, ternary=B.ternary)],
        sb.Witness: list(failed.witnesses[:2]) + [sb.Witness(w.axiom, w.at, w.defect)],
        sb.CheckReport: [failed, sb.check_axioms(sb.catalog.build("L2_2_2_malcev").algebra, "lie"),
                         sb.check_axioms(B, "bol")],
        sb.PairSpace: [H, sb.ips_space(B), sb.ps_space(B), sb.PairSpace(
            B, H.basis, H.pivots[::-1], H._packs[:-1] + (H._packs[-1][::-1],), ({}, {}))],
        sb.PseudoDerivationPair: [pair, sb.PseudoDerivationPair(pair.operator, pair.companion),
                                  H.basis[-1]],
        sb.EnvelopingLieSuperalgebra: [env, sb.enveloping(B),
                                      sb.enveloping(sb.catalog.load("L2_2_2_bol"))],
        sb.Subspace: [sub, sb.span_reduce(space, [space.basis()[3], space.basis()[0]]),
                      sb.Subspace(space, sub.basis, (), ({}, {})), sb.whole_space(space)],
        sb.AffineSubspace: [affine, sb.solve_affine([[2, 2, 0], [0, 1, 1]], [2, 2]),
                            sb.AffineSubspace(affine.point, affine.directions, (7,), ({}, {})),
                            sb.AffineSubspace.empty()],
        sb.BilinearForm: [BETA, sb.killing_ricci(B, "restriction"), sb.killing_form(env.lie)],
        sb.InvariantReport: [sb.check_invariant(B, BETA), sb.check_invariant(
            fresh, sb.killing_ricci(fresh, "direct")), sb.check_invariant(B, sb.BilinearForm(
                space, [[int(i == j) for j in range(4)] for i in range(4)]))],
        sb.SemisimplicityReport: [sb.semisimplicity_report(B), sb.semisimplicity_report(fresh),
                                  sb.semisimplicity_report(sb.catalog.load("L2_2_2_bol"))],
        CatalogEntry: [sb.catalog.entry("L2_3_1_bol"), sb.catalog.entry("L2_3_1_bol"),
                       sb.catalog.entry("aff2_lie")],
    }


INSTANCES = _instances()


def _twin_class(kind, cls):
    """A frozen dataclass named like kind, with the fields of its record class cls."""
    hidden = HIDDEN.get(cls.__name__, set())
    return dataclasses.make_dataclass(
        kind.__qualname__,
        [(f, object, dataclasses.field(compare=f not in hidden, repr=f not in hidden))
         for f in cls.__annotations__], frozen=True)


def _outcome(call):
    try:
        return "value", call()
    except TypeError as err:
        return "raises", type(err)


def test_every_record_class_has_instances():
    assert len(INSTANCES) == 16
    for cls, objs in INSTANCES.items():
        assert all(isinstance(obj, cls) for obj in objs), cls
        assert any(a == b and a is not b for a, b in itertools.combinations(objs, 2)), cls
        assert any(a != b for a, b in itertools.combinations(objs, 2)), cls


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_records_match_frozen_dataclasses(cls):
    objs = INSTANCES[cls]
    twins = {kind: _twin_class(kind, cls) for kind in {type(obj) for obj in objs}}
    names = tuple(cls.__annotations__)
    twin = {id(obj): twins[type(obj)](*(getattr(obj, f) for f in names)) for obj in objs}
    assert cls.__match_args__ == names
    for obj in objs:
        assert repr(obj) == repr(twin[id(obj)])
        assert _outcome(lambda: hash(obj)) == _outcome(lambda: hash(twin[id(obj)]))
        assert obj.__eq__(None) is NotImplemented and obj != None  # noqa: E711
    for a, b in itertools.product(objs, repeat=2):
        ta, tb = twin[id(a)], twin[id(b)]
        assert (a == b, a != b) == (ta == tb, ta != tb), (a, b)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    obj = INSTANCES[cls][0]
    # a name that is no field too, on subclasses as well, where a dataclass would allow it
    for name in tuple(cls.__annotations__) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_own_constructors_are_kept():
    for cls in OWN_INIT:
        assert "__init__" in vars(cls) and cls.__init__.__qualname__ == cls.__name__ + ".__init__"
    assert sb.GradedMap(B.space, 0, sb.GradedMap.identity(B.space).matrix) == \
        sb.GradedMap.identity(B.space)


@pytest.mark.parametrize("cls", [cls for cls in INSTANCES if cls not in OWN_INIT],
                         ids=lambda cls: cls.__name__)
def test_generated_init_takes_the_fields_in_order(cls):
    """Positional and keyword construction from an instance's fields gives an
    equal object, and one argument too many is a TypeError."""
    obj = INSTANCES[cls][0]
    values = {f: getattr(obj, f) for f in cls.__annotations__}
    for copy in (cls(*values.values()), cls(**values)):
        assert copy == obj and repr(copy) == repr(obj) and copy is not obj
    with pytest.raises(TypeError):
        cls(*values.values(), None)


def test_defaults_post_init_and_cached_properties():
    T = AlgebraDef("t", B.space, ternary=B.ternary)
    assert T.binary is None and AlgebraDef.binary is None
    with pytest.raises(sb.StructureError):
        AlgebraDef("none", B.space)
    with pytest.raises(sb.GradingError):
        sb.SuperSpace((0, 1), ("a",))
    # cached_property stores into the instance despite the frozen __setattr__
    assert B.binary.table is B.binary.table
    H = sb.ips_space(B)
    assert H.rows is H.rows and "rows" in vars(H)
