from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import superbol as sb
from superbol.algfile import ParseError
from superbol.structures import AlgebraDef, BinaryStructure, TernaryStructure

L2_3_1_TEXT = """\
# four-dimensional specimen, one odd generator
name L2_3_1_bol
even e1 e2 e3
odd e4

binary [e1,e3] = e1
binary [e2,e3] = e1 + e2
binary [e3,e4] = e4
binary [e4,e4] = e1
ternary [e1,e3,e3] = e1
ternary [e2,e3,e3] = 2*e1 + e2
ternary [e3,e4,e3] = -e4
"""


def test_parse_matches_catalog():
    assert sb.parse_algebra(L2_3_1_TEXT) == sb.catalog.load("L2_3_1_bol")


def test_coefficient_spellings():
    base = "name t\neven e1 e2\nodd q\n"
    for value, coords in (
        ("2*e1", (2, 0, 0)),
        ("2 e1", (2, 0, 0)),
        ("2e1", (2, 0, 0)),
        ("1/2*e1", (Fraction(1, 2), 0, 0)),
        ("1 / 2 e1", (Fraction(1, 2), 0, 0)),
        ("e1 + e2 - 3*e1", (-2, 1, 0)),
        ("0", (0, 0, 0)),
    ):
        A = sb.parse_algebra(base + "binary [e1,e2] = %s\n" % value)
        assert A.binary.table[0][1] == coords, value
        assert A.ternary is None


def test_mirror_is_completed_with_sign():
    A = sb.parse_algebra("name t\neven e1 e2\nodd q\nbinary [q,q] = e1\nbinary [e1,e2] = e1\n")
    assert A.binary.table[1][0] == (-1, 0, 0)   # even-even flips
    assert A.binary.table[2][2] == (1, 0, 0)    # odd square survives


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nname t # trailing\neven e1   e2\n\n  # indented comment\n"
    A = sb.parse_algebra(text)
    assert A.name == "t"
    assert A.space.labels == ("e1", "e2")
    assert A.binary is not None and A.ternary is not None  # no products: both zero
    assert not any(any(r) for row in A.binary.table for r in row)


def test_no_products_equals_catalog_abelian():
    A = sb.parse_algebra("name abelian_2_1\neven e1 e2\nodd e3\n")
    assert A == sb.catalog.load("abelian_2_1")


def _err(text):
    with pytest.raises(ParseError) as info:
        sb.parse_algebra(text)
    return info.value


def test_undeclared_label_position():
    e = _err("name t\neven e1 e2\nbinary [e1,e2] = 3*zz\n")
    assert "undeclared label 'zz'" in e.message
    assert e.line == 3
    assert e.col == "name t\neven e1 e2\nbinary [e1,e2] = 3*zz\n".split("\n")[2].index("zz") + 1


def test_undeclared_label_in_head():
    e = _err("name t\neven e1\nbinary [e1,zz] = 0\n")
    assert "undeclared label 'zz'" in e.message and e.line == 3


def test_unknown_directive():
    e = _err("name t\nfrobnicate e1\n")
    assert "unknown directive 'frobnicate'" in e.message and e.line == 2


def test_duplicate_label_cites_first_declaration():
    e = _err("even e1 e2\nodd e1\n")
    assert "already declared on line 1" in e.message and e.line == 2


def test_contradictory_mirror_cites_earlier_line():
    e = _err("even e1 e2 e3\nbinary [e1,e2] = e3\nbinary [e2,e1] = e3\n")
    assert "contradicts the listing on line 2" in e.message and e.line == 3


def test_even_square_rejected():
    e = _err("even e1 e2\nbinary [e1,e1] = e2\n")
    assert "square of an even element" in e.message


def test_grading_violation():
    e = _err("even e1 e2\nodd q\nbinary [e1,e2] = q\n")
    assert "grading violation" in e.message and "parity 1, expected 0" in e.message


def test_missing_equals():
    e = _err("even e1 e2\nbinary [e1,e2] e1\n")
    assert "expected [a,b] = value" in e.message
    e = _err("even e1 e2 e3\nternary [e1,e2] = e3\n")
    assert "expected [a,b,c] = value" in e.message


def test_bad_term_and_missing_sign():
    assert "expected a term like 2*e1" in _err("even e1 e2\nbinary [e1,e2] = @\n").message
    assert "expected '+' or '-' between terms" in \
        _err("even e1 e2\nbinary [e1,e2] = e1 e2\n").message
    assert "empty product value" in _err("even e1 e2\nbinary [e1,e2] =\n").message


def test_duplicate_product():
    e = _err("even e1 e2\nbinary [e1,e2] = e1\nbinary [e1,e2] = e1\n")
    assert "product [e1,e2] listed twice" in e.message


def test_declarations_must_precede_products():
    e = _err("even e1 e2\nbinary [e1,e2] = 0\nodd q\n")
    assert "declarations must precede products" in e.message


def test_zero_denominator():
    text = "even e1 e2\nbinary [e1,e2] = e2 + 1/0*e1\n"
    e = _err(text)
    assert "zero denominator" in e.message
    assert e.line == 2
    assert e.col == text.split("\n")[1].index("1/0") + 1


def test_labels_are_capped_like_abelian_keys():
    assert sb.catalog.ABELIAN_MAX_DIM == 64
    even = " ".join("e%d" % i for i in range(40))
    odd = " ".join("f%d" % i for i in range(25))
    text = "name big\neven %s\nodd %s\n" % (even, odd)
    e = _err(text)
    assert e.message == "label 'f24' is one too many: at most 64 labels"
    assert (e.line, e.col) == (3, text.split("\n")[2].index("f24") + 1)
    # 64 labels parse, and labels count the same on one line
    assert sb.parse_algebra(text.replace(" f24", "")).space.dim == 64
    line = "even %s %s" % (even, odd)
    assert _err(line + "\n").col == line.index("f24") + 1


def test_no_labels():
    assert "no basis labels declared" in _err("name lonely\n").message


def test_duplicate_and_empty_name():
    assert "duplicate name declaration" in _err("name a\nname b\neven e1\n").message
    assert "empty name" in _err("name\neven e1\n").message


def test_invalid_label_token():
    e = _err("even 1abc\n")
    assert "invalid label" in e.message


def test_round_trip_catalog():
    for entry in sb.catalog.entries():
        text = sb.serialize_algebra(entry.algebra)
        assert sb.parse_algebra(text) == entry.algebra, entry.key


def test_round_trip_derived_structures():
    aff2 = sb.catalog.load("aff2_lie")
    for A in (sb.malcev_to_bol(aff2), sb.lie_to_supertriple(aff2)):
        assert sb.parse_algebra(sb.serialize_algebra(A)) == A
    T = sb.lie_to_supertriple(aff2)
    assert T.binary is None
    assert sb.parse_algebra(sb.serialize_algebra(T)).binary is None


def test_serialize_rejects_awkward_input():
    sp = sb.SuperSpace((0, 1, 0), ("a", "b", "c"))
    zero = BinaryStructure.from_products(sp, {})
    with pytest.raises(ValueError):
        sb.serialize_algebra(AlgebraDef("mixed", sp, binary=zero))
    good = sb.catalog.load("abelian_1_1")
    with pytest.raises(ValueError):
        sb.serialize_algebra(good.renamed("has # comment"))


# names and labels made of the characters the grammar treats specially
AWKWARD = st.text(st.sampled_from("ab1_ #\n\t"), max_size=4)


@settings(max_examples=200, deadline=None)
@given(AWKWARD, st.lists(AWKWARD, min_size=1, max_size=3, unique=True))
def test_what_serializes_reads_back(name, labels):
    """serialize_algebra either refuses a name or label or writes a file
    that parses back to the same algebra."""
    sp = sb.SuperSpace((0,) * len(labels), tuple(labels))
    A = AlgebraDef(name, sp, binary=BinaryStructure.from_products(sp, {}),
                   ternary=TernaryStructure.from_products(sp, {}))
    try:
        text = sb.serialize_algebra(A)
    except ValueError:
        return
    assert sb.parse_algebra(text) == A


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-1, 1), min_size=8, max_size=8))
def test_what_serializes_reads_back_table(values):
    """A table that is not super skew is refused; any other reads back.  (A
    file with no products defines both structures, so the zero table is left
    out.)"""
    assume(any(values))
    sp = sb.SuperSpace.even_first(("a", "b"), ())
    table = [[values[4 * i + 2 * j: 4 * i + 2 * j + 2] for j in range(2)] for i in range(2)]
    A = AlgebraDef("t", sp, binary=BinaryStructure(sp, table))
    try:
        text = sb.serialize_algebra(A)
    except ValueError:
        assert A.binary._skew_witnesses
        return
    assert sb.parse_algebra(text) == A
