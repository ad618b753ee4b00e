from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superbol as sb

SP32 = sb.SuperSpace.even_first(3, 2)


def test_even_first_layout():
    assert SP32.dim == 5
    assert SP32.even_dim == 3 and SP32.odd_dim == 2
    assert SP32.parities == (0, 0, 0, 1, 1)
    assert SP32.labels == ("e1", "e2", "e3", "e4", "e5")
    assert SP32.is_even_first()
    assert SP32.index_of("e4") == 3


def test_interleaved_space_not_even_first():
    sp = sb.SuperSpace((0, 1, 0), ("a", "b", "c"))
    assert not sp.is_even_first()
    assert sp.even_dim == 2 and sp.odd_dim == 1


def test_vector_arithmetic_and_str():
    sp = sb.SuperSpace.even_first(2, 1)
    e1, e2, e3 = sp.basis()
    v = 2 * e1 + e2 - e3
    assert str(v) == "2*e1 + e2 - e3"
    assert str(sp.zero()) == "0"
    assert str(-e1 - e2) == "-e1 - e2"
    assert str(Fraction(1, 3) * e2) == "1/3*e2"
    assert (v - v).is_zero()


def test_parity_of_vectors():
    sp = sb.SuperSpace.even_first(2, 1)
    e1, e2, e3 = sp.basis()
    assert (e1 + e2).parity == 0
    assert e3.parity == 1
    assert sp.zero().parity is None
    mixed = e1 + e3
    assert mixed.parity is None
    with pytest.raises(sb.GradingError):
        mixed.parity_or(0)
    assert sp.zero().parity_or(1) == 1


def test_rat_normalizes_integral_fractions():
    assert sb.rat(Fraction(4, 2)) == 2
    assert isinstance(sb.rat(Fraction(4, 2)), int)
    assert sb.rat(Fraction(1, 3)) == Fraction(1, 3)
    assert sb.sign(0) == 1 and sb.sign(1) == -1 and sb.sign(2) == 1


def test_graded_map_block_structure_enforced():
    sp = sb.SuperSpace.even_first(1, 1)
    # degree 0 map may not send even to odd
    with pytest.raises(sb.GradingError):
        sb.GradedMap.from_rows(sp, 0, ((1, 0), (1, 1)))
    f = sb.GradedMap.from_rows(sp, 1, ((0, 2), (3, 0)))
    assert f.degree == 1
    e1, e2 = sp.basis()
    assert f(e1) == 3 * e2
    assert f(e2) == 2 * e1


def test_supertrace_of_identity_counts_parity():
    assert sb.GradedMap.identity(sb.SuperSpace.even_first(2, 2)).supertrace == 0
    assert sb.GradedMap.identity(sb.SuperSpace.even_first(3, 1)).supertrace == 2
    # odd-degree maps have zero diagonal blocks
    f = sb.GradedMap.from_rows(sb.SuperSpace.even_first(1, 1), 1, ((0, 5), (7, 0)))
    assert f.supertrace == 0


def test_compose_adds_degrees():
    sp = sb.SuperSpace.even_first(1, 1)
    f = sb.GradedMap.from_rows(sp, 1, ((0, 1), (1, 0)))
    assert f.compose(f).degree == 0
    e1, e2 = sp.basis()
    assert f.compose(f)(e1) == e1


def test_inverse_round_trip():
    sp = sb.SuperSpace.even_first(2, 0)
    f = sb.GradedMap.from_rows(sp, 0, ((1, 2), (0, 1)))
    g = f.inverse()
    assert g.compose(f) == sb.GradedMap.identity(sp)
    assert f - g == sb.GradedMap.from_rows(sp, 0, ((0, 4), (0, 0)))
    assert g.compose(f) - sb.GradedMap.identity(sp) == 0 * f
    singular = sb.GradedMap.from_rows(sp, 0, ((1, 2), (2, 4)))
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_odd_commutator_is_anticommutator():
    sp = sb.SuperSpace.even_first(1, 1)
    f = sb.GradedMap.from_rows(sp, 1, ((0, 1), (1, 0)))
    g = sb.GradedMap.from_rows(sp, 1, ((0, 1), (-1, 0)))
    # [f,g] = fg + gf for two odd maps
    assert sb.graded_commutator(f, g) == f.compose(g) + g.compose(f)


def _block_cells(degree):
    n = SP32.dim
    return [(i, j) for i in range(n) for j in range(n)
            if SP32.parity(i) == (SP32.parity(j) + degree) % 2]


def _maps(degree):
    cells = _block_cells(degree)

    def build(vals):
        rows = [[0] * SP32.dim for _ in range(SP32.dim)]
        for (i, j), v in zip(cells, vals):
            rows[i][j] = v
        return sb.GradedMap.from_rows(SP32, degree, rows)

    return st.lists(st.integers(-4, 4), min_size=len(cells),
                    max_size=len(cells)).map(build)


@pytest.mark.parametrize("df,dg", [(0, 0), (0, 1), (1, 0), (1, 1)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_supertrace_kills_commutators(df, dg, data):
    """str([f,g]) = 0 for homogeneous f, g."""
    f = data.draw(_maps(df))
    g = data.draw(_maps(dg))
    assert sb.supertrace(sb.graded_commutator(f, g)) == 0


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_supertrace_is_conjugation_invariant(data):
    from hypothesis import assume
    f = data.draw(_maps(data.draw(st.sampled_from((0, 1)))))
    h = data.draw(_maps(0))
    try:
        hinv = h.inverse()
    except ZeroDivisionError:
        assume(False)
        return
    assert sb.supertrace(h.compose(f).compose(hinv)) == sb.supertrace(f)
