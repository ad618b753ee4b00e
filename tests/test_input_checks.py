"""Every input check of the library raises its own exception and message.

One row per check, each of them one that the rest of the suite never
reaches: a malformed space, vector, map, form, table, pair, file or key,
or two objects that live on different spaces.  The consistency checks
that guard the constructions themselves (an inner pair escaping a pair
space, an ideal envelope that is no ideal) are not input checks and have
no row; the Lie re-check of every envelope and the closure check of every
pair space run on each construction elsewhere.
"""

import functools
import sys

import pytest

import superbol as sb
from superbol.structures import AlgebraDef, BinaryStructure

SPACE = sb.catalog.build("L2_3_1_bol").algebra.space    # even e1 e2 e3, odd e4
OTHER = sb.SuperSpace.even_first(("a", "b"), ("c", "d"))
E1, E4 = SPACE.basis()[0], SPACE.basis()[3]
X = OTHER.basis()[0]
WIDE = sb.SuperSpace.even_first(("a", "b", "c"), ("d", "e"))
ID, ID_OTHER = sb.GradedMap.identity(SPACE), sb.GradedMap.identity(OTHER)
ZERO = ((0,) * 4,) * 4
PAIR = sb.SuperSpace.even_first(("a", "b"), ())
KNOWN = ", ".join(sb.catalog.keys())
LONG = "abelian_%s_0" % ("1" * 5000)    # int() of the 5000 digits would raise its own error
ONE_SIDED = AlgebraDef("x", PAIR, binary=BinaryStructure(PAIR, (((0, 0), (1, 0)),
                                                                 ((0, 0), (0, 0)))))


# the checked algebras are loaded at their first use inside a case, and kept
@functools.cache
def b():
    return sb.catalog.load("L2_3_1_bol")


@functools.cache
def lts():
    return sb.lie_to_supertriple(sb.catalog.load("aff2_lie"))    # no binary structure


CASES = [
    # graded
    ("space lengths", lambda: sb.SuperSpace((0, 1), ("a",)), sb.GradingError,
     "parities and labels must have equal length"),
    ("space parity", lambda: sb.SuperSpace((0, 2), ("a", "b")), sb.GradingError,
     "parities must be 0 or 1"),
    ("space labels", lambda: sb.SuperSpace((0, 0), ("a", "a")), sb.GradingError,
     "basis labels must be distinct"),
    ("unknown label", lambda: SPACE.index_of("zz"), KeyError, "unknown basis label 'zz'"),
    ("vector length", lambda: SPACE.vector((1, 2)), sb.GradingError,
     "expected 4 coordinates, got 2"),
    ("vector spaces", lambda: E1 + X, sb.GradingError, "vectors live in different spaces"),
    ("map shape", lambda: sb.GradedMap(SPACE, 0, ((1,),)), sb.GradingError,
     "matrix must be 4 x 4"),
    ("map degree", lambda: sb.GradedMap(SPACE, 2, ZERO), sb.GradingError,
     "degree must be 0 or 1"),
    ("map columns", lambda: sb.GradedMap.from_columns(SPACE, 0, [[0]]), sb.GradingError,
     "matrix must be 4 x 4"),
    ("map argument", lambda: ID(X), sb.GradingError, "vector lives in a different space"),
    ("compose spaces", lambda: ID.compose(ID_OTHER), sb.GradingError,
     "maps live on different spaces"),
    ("add degrees", lambda: ID + sb.GradedMap.zero(SPACE, 1), sb.GradingError,
     "maps must share space and degree to add"),
    ("commutator spaces", lambda: sb.graded_commutator(ID, ID_OTHER), sb.GradingError,
     "maps live on different spaces"),
    # linalg
    ("no equations", lambda: sb.solve_affine([], []), ValueError,
     "no equations: unknown count is undetermined"),
    ("affine length", lambda: sb.solve_affine([[1, 0]], [1]).contains((1,)), ValueError,
     "coordinate length mismatch"),
    ("subspace member", lambda: sb.whole_space(SPACE).contains(X), sb.GradingError,
     "vector lives in a different space"),
    ("subspace vector", lambda: sb.whole_space(SPACE).coordinates_of(X), sb.GradingError,
     "vector lives in a different space"),
    ("subspace sum", lambda: sb.whole_space(SPACE).sum_with(sb.whole_space(OTHER)),
     sb.GradingError, "subspaces of different spaces"),
    ("span vectors", lambda: sb.span_reduce(SPACE, [E1, X]), sb.GradingError,
     "vector lives in a different space"),
    # forms
    ("gram shape", lambda: sb.BilinearForm(SPACE, ((0,),)), sb.GradingError,
     "gram matrix must be 4 x 4"),
    ("form argument", lambda: sb.BilinearForm(SPACE, ZERO).evaluate(E1, X), sb.GradingError,
     "vector lives in a different space"),
    ("invariance form", lambda: sb.check_invariant(b(), sb.BilinearForm(OTHER, ZERO)),
     sb.GradingError, "form lives on a different space"),
    ("orthogonal subspace", lambda: sb.orthogonal(sb.BilinearForm(SPACE, ZERO),
                                                  sb.whole_space(OTHER)),
     sb.GradingError, "subspace lives on a different space"),
    # algfile and catalog
    ("file without labels", lambda: sb.parse_algebra("name x\neven\n"), sb.ParseError,
     "line 2, col 5: expected at least one label"),
    ("coefficient past int's digit limit", lambda: sb.parse_algebra(
        "even e1 e2\nbinary [e1,e2] = %s*e1\n" % ("1" * 5000)), sb.ParseError,
     "line 2, col 18: coefficient has more than %d digits" % sys.get_int_max_str_digits()),
    ("label outside the grammar", lambda: sb.serialize_algebra(
        AlgebraDef("x", sb.SuperSpace((0,), ("a-b",)),
                   binary=BinaryStructure.from_products(sb.SuperSpace((0,), ("a-b",)), {}))),
     ValueError, "label 'a-b' does not fit the file grammar"),
    ("label with a newline", lambda: sb.serialize_algebra(
        AlgebraDef("x", sb.SuperSpace((0,), ("a\n",)),
                   binary=BinaryStructure.from_products(sb.SuperSpace((0,), ("a\n",)), {}))),
     ValueError, "label 'a\\n' does not fit the file grammar"),
    ("empty name", lambda: sb.serialize_algebra(b().renamed("")), ValueError,
     "name '' does not fit the file grammar"),
    ("padded name", lambda: sb.serialize_algebra(b().renamed(" x")), ValueError,
     "name ' x' does not fit the file grammar"),
    ("table not skew", lambda: sb.serialize_algebra(ONE_SIDED), ValueError,
     "binary table is not super skew at [a,b], which the file grammar implies"),
    ("empty abelian key", lambda: sb.catalog.load("abelian_0_0"), ValueError,
     "abelian algebra needs at least one basis element"),
    ("abelian key with a leading zero", lambda: sb.catalog.build("abelian_01_1"), KeyError,
     "unknown catalog key 'abelian_01_1'; known: %s, abelian_m_n" % KNOWN),
    ("abelian key of padded zeros", lambda: sb.catalog.build("abelian_002_0"), KeyError,
     "unknown catalog key 'abelian_002_0'; known: %s, abelian_m_n" % KNOWN),
    ("abelian key with a non-ASCII digit", lambda: sb.catalog.build("abelian_\u0661_1"),
     KeyError, "unknown catalog key 'abelian_\u0661_1'; known: %s, abelian_m_n" % KNOWN),
    ("abelian key with a newline", lambda: sb.catalog.build("abelian_1_1\n"), KeyError,
     "unknown catalog key 'abelian_1_1\\n'; known: %s, abelian_m_n" % KNOWN),
    ("abelian key past int's digit limit", lambda: sb.catalog.build(LONG), ValueError,
     "%s has more than 64 generators; abelian_m_n allows at most 64" % LONG),
    # structures
    ("product length", lambda: BinaryStructure.from_products(SPACE, {(0, 1): (1,)}),
     sb.StructureError, "product [e1,e2]: expected 4 coordinates"),
    ("even square", lambda: BinaryStructure.from_products(SPACE, {(0, 0): (1, 0, 0, 0)}),
     sb.StructureError, "[e1,e1] must vanish by skew-symmetry"),
    ("contradicting mirror", lambda: BinaryStructure.from_products(
        SPACE, {(0, 1): (1, 0, 0, 0), (1, 0): (1, 0, 0, 0)}), sb.StructureError,
     "[e2,e1] contradicts [e1,e2] under skew-symmetry"),
    ("table shape", lambda: BinaryStructure(SPACE, ((),)), sb.StructureError,
     "binary table must be 4 x 4"),
    ("eval arity", lambda: b().binary.eval(E1), TypeError, "binary product takes 2 arguments"),
    ("product space", lambda: b().product(E1, X), sb.GradingError,
     "vector lives in a different space"),
    ("triple space", lambda: b().triple(E1, E1, WIDE.basis()[4]), sb.GradingError,
     "vector lives in a different space"),
    ("no structure", lambda: AlgebraDef("x", SPACE), sb.StructureError,
     "an algebra needs at least one structure"),
    ("structure space", lambda: AlgebraDef("x", OTHER, binary=b().binary), sb.StructureError,
     "structure lives on a different space"),
    ("classify space", lambda: sb.classify_subspace(b(), sb.whole_space(OTHER)),
     sb.GradingError, "V must be a subspace of A's space"),
    ("classify grading", lambda: sb.classify_subspace(b(), sb.span_reduce(SPACE, [E1 + E4])),
     sb.GradingError, "subspace is not graded"),
    ("odd morphism", lambda: sb.check_morphism(sb.GradedMap.zero(SPACE, 1), b(), b()),
     sb.GradingError, "a morphism must be even"),
    ("morphism domain", lambda: sb.check_morphism(ID_OTHER, b(), b()), sb.GradingError,
     "f is not defined on A's space"),
    ("morphism parities", lambda: sb.check_morphism(ID, b(), sb.catalog.load("L2_2_2_bol")),
     sb.GradingError, "A and B have different parity signatures"),
    ("morphism kinds", lambda: sb.check_morphism(ID, b(), AlgebraDef("b", SPACE, b().binary)),
     sb.StructureError, "A and B carry different structure kinds"),
    # envelope
    ("companion space", lambda: sb.PseudoDerivationPair(ID, X), sb.GradingError,
     "companion lives in a different space"),
    ("flat length", lambda: sb.PseudoDerivationPair.from_flat(SPACE, (0,) * 3),
     sb.GradingError, "flattened pair must have length 20"),
    ("flat degrees", lambda: sb.PseudoDerivationPair.from_flat(
        SPACE, (1,) + (0,) * 2 + (1,) + (0,) * 16), sb.GradingError,
     "flattened pair mixes degrees"),
    ("inner pair vectors", lambda: sb.inner_pair(b(), X, E1), sb.GradingError,
     "arguments live outside the algebra"),
    ("checked pair", lambda: sb.check_pseudo(b(), sb.PseudoDerivationPair(ID_OTHER, X)),
     sb.GradingError, "pair lives outside the algebra"),
    ("spanned pair", lambda: sb.PairSpace.from_pairs(b(), [sb.PseudoDerivationPair(ID_OTHER, X)]),
     sb.GradingError, "pair lives outside the algebra"),
    ("pairs without a product", lambda: sb.PairSpace.from_pairs(lts(), [sb.PseudoDerivationPair(
        sb.GradedMap.identity(lts().space), lts().space.zero())]), sb.StructureError,
     "lts(aff2_lie) has no binary structure"),
    ("bracketed pair", lambda: sb.pair_bracket(b(), *[sb.PseudoDerivationPair(ID_OTHER, X)] * 2),
     sb.GradingError, "pair lives outside the algebra"),
    ("companion operator", lambda: sb.companion_space(b(), ID_OTHER), sb.GradingError,
     "operator lives outside the algebra"),
    ("K space", lambda: sb.ips_space(b(), sb.whole_space(OTHER)), sb.GradingError,
     "K is not a subspace of B"),
    ("K grading", lambda: sb.ips_space(b(), sb.span_reduce(SPACE, [E1 + E4])), sb.GradingError,
     "K is not graded"),
    ("H algebra", lambda: sb.enveloping(b(), sb.ips_space(sb.catalog.load("L2_2_2_bol"))),
     sb.GradingError, "H was built over a different algebra"),
    ("pair space member", lambda: sb.ips_space(b()).contains(sb.PseudoDerivationPair(ID_OTHER, X)),
     sb.GradingError, "pair lives outside the algebra"),
    ("pair space coordinates", lambda: sb.ips_space(b()).coordinates_of(
        sb.PseudoDerivationPair(ID_OTHER, X)), sb.GradingError, "pair lives outside the algebra"),
    ("ideal envelope", lambda: sb.ideal_envelope(b(), sb.whole_space(SPACE),
                                                 sb.enveloping(sb.catalog.load("L2_2_2_bol"))),
     sb.GradingError, "env was built over a different algebra"),
    ("embedded vector", lambda: sb.enveloping(b()).embed_base(X), sb.GradingError,
     "vector lives outside the base algebra"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert err.value.args[0] == message


def test_no_pairs_need_no_product():
    """The product is looked up only to bracket a basis pair: no pairs, or
    only zero ones, give the zero-dimensional space on any algebra."""
    zero = sb.PseudoDerivationPair(sb.GradedMap.zero(lts().space), lts().space.zero())
    for pairs in ([], [zero]):
        H = sb.PairSpace.from_pairs(lts(), pairs)
        assert (H.dim, H.basis, H.brackets) == (0, (), ())
