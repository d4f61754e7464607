from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from drgf.core import ArrayFormatError, IntersectionArray, format_array, parse_array


def test_parse_odd_graph_array():
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    assert arr.D == 4 and arr.k == 5
    assert arr.b == (5, 4, 4, 3) and arr.c == (1, 1, 2, 2)


def test_parse_whitespace_normalized():
    assert format_array(parse_array(" { 5 ,4, 4,3 ; 1,1 ,2,2 } ")) == "{5,4,4,3;1,1,2,2}"


def test_parse_smallest_array():
    arr = parse_array("{2;1}")
    assert arr.D == 1 and arr.k == 2 and arr.v == 3


@pytest.mark.parametrize("bad", [
    "",
    "{5,4;1}",            # length mismatch
    "{5,4;2,2}",          # c_1 != 1
    "{3,2,2,1;1,2,1,2}",  # a_2 = -1
    "{4,0;1,1}",          # b_i < 1
    "{4,3;1,0}",          # c_i < 1
    "{4,3;1,x}",
    "4,3;1,1",
    "{4;3;1}",
])
def test_parse_rejects(bad):
    with pytest.raises(ArrayFormatError):
        parse_array(bad)


def test_parser_accepts_infeasible_but_structurally_valid():
    # non-monotone c sequence is a feasibility matter, not a parse error
    arr = parse_array("{5,3,2,2;1,2,1,2}")
    assert arr.c == (1, 2, 1, 2)


def test_derive_odd_graph_o5():
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    assert arr.a == (0, 0, 0, 0, 3)
    assert arr.kseq == (1, 5, 20, 40, 60)
    assert arr.v == 126 == comb(9, 4)
    assert arr.k_integral
    assert (arr.t, arr.g) == (4, 9)


def test_derive_folded_9_cube():
    arr = parse_array("{9,8,7,6;1,2,3,4}")
    assert arr.a == (0, 0, 0, 0, 5)
    assert arr.kseq == (1, 9, 36, 84, 126)
    assert arr.v == 256 == 2 ** 9 // 2
    assert arr.g == 9


def test_derive_9_gon():
    arr = parse_array("{2,1,1,1;1,1,1,1}")
    assert arr.a == (0, 0, 0, 0, 1)
    assert arr.v == 9 and arr.g == 9


def test_derive_flags_non_integral_k():
    arr = parse_array("{5,3,2,2;1,2,1,2}")
    assert not arr.k_integral
    assert arr.v == Fraction(87, 2)


def test_odd_girth():
    assert parse_array("{5,4,4,3;1,1,2,2}").g == 9
    assert parse_array("{2,1;1,1}").g == 5
    assert parse_array("{3,2,1;1,2,3}").g is None  # 3-cube


def test_text_round_trip():
    arr = IntersectionArray((9, 8, 7, 6), (1, 2, 3, 4))
    assert parse_array(format_array(arr)) == arr
    assert format_array(arr) == "{9,8,7,6;1,2,3,4}"


@st.composite
def valid_arrays(draw):
    k = draw(st.integers(2, 12))
    D = draw(st.integers(1, 5))
    b, c = [k], []
    c_prev, b_prev = 1, k
    for level in range(1, D + 1):
        c_i = 1 if level == 1 else draw(st.integers(c_prev, k))
        if level == D:
            c.append(c_i)
            break
        a_i = draw(st.integers(0, max(0, k - c_i - 1)))
        b_i = k - c_i - a_i
        if b_i < 1 or b_i > b_prev:
            a_i = max(0, k - c_i - b_prev)
            b_i = k - c_i - a_i
            if b_i < 1:
                c.append(c_i)
                break
        c.append(c_i)
        b.append(b_i)
        c_prev, b_prev = c_i, b_i
    return IntersectionArray(tuple(b[:len(c)]), tuple(c))


@given(valid_arrays())
def test_array_properties(arr):
    # canonical text round-trips
    assert parse_array(format_array(arr)) == arr
    # vertex count is the exact rational sum of the k_i, computed once
    assert arr.v == sum(arr.kseq) and arr.v is arr.v
    # odd girth, when defined, is odd and at least 3
    g = arr.g
    assert g is None or (g % 2 == 1 and g >= 3)
    # the a_i are nonnegative with a_0 = 0
    assert arr.a[0] == 0 and min(arr.a) >= 0
