import json
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walshforge.boolfn import (TracePoly, eval_g, reduce_difference,
                               tracepoly_from_json, tracepoly_to_dict, truth_table)
from walshforge.field import FieldCtx
from walshforge.genus2 import count_points


def test_tracepoly_shape():
    g = TracePoly(a7=3, b=(0, 5, 7))
    assert g.s == 2
    assert g.exponents() == [7, 3, 5]  # zero b_0 drops the x^2 term
    assert TracePoly(a7=1).s == 0
    with pytest.raises(ValueError):
        TracePoly(a7=0)


@pytest.mark.parametrize("b", [{1: 5}, {"1": "0x5"}, "15", b"\x01\x05"])
def test_tracepoly_refuses_a_mapping_or_string_for_b(b):
    # a dict would be read as its keys: {1: 5} as b = (1,), another function
    with pytest.raises(ValueError, match="sequence of coefficients"):
        TracePoly(1, b)
    assert TracePoly(1, [0, 5]).b == (0, 5)


def test_eval_g_scalar(ctx5):
    g = TracePoly(a7=2, b=(1, 3))
    for x in (0, 1, 7, 31):
        want = ctx5.mul(2, ctx5.pow(x, 7))
        want ^= ctx5.mul(1, ctx5.pow(x, 2))  # 2^0+1
        want ^= ctx5.mul(3, ctx5.pow(x, 3))  # 2^1+1
        assert eval_g(ctx5, g, x) == want


def test_truth_table_x7_m3(ctx3):
    # x^7 = 1 for x != 0 in F_8 and Tr(1) = 1 for odd m
    assert list(truth_table(ctx3, TracePoly(a7=1))) == [0, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("m", [5, 7])
def test_truth_table_matches_scalar(m):
    ctx = FieldCtx(m)
    g = TracePoly(a7=3, b=(0, 2, 1))
    tt = truth_table(ctx, g)
    for x in range(ctx.q):
        assert int(tt[x]) == ctx.trace(eval_g(ctx, g, x))


@cache
def field(m):
    return FieldCtx(m)


@st.composite
def fields_and_g(draw):
    """(m, G) with m in 2..11 and s up to m-1; half the b_i are drawn as 0."""
    m = draw(st.integers(2, 11))
    q = 1 << m
    s = draw(st.integers(0, m - 1))
    coef = st.one_of(st.just(0), st.integers(1, q - 1))
    return m, TracePoly(a7=draw(st.integers(1, q - 1)),
                        b=tuple(draw(coef) for _ in range(s + 1)))


@settings(max_examples=60, deadline=None)
@given(fields_and_g())
# exponents e with gcd(e, q-1) > 1: x^3, x^7 and x^9 at m = 6, x^5 at m = 4
@example((6, TracePoly(a7=5, b=(0, 7, 0, 33))))
@example((4, TracePoly(a7=3, b=(1, 0, 9, 4))))
def test_truth_table_matches_trace_of_eval_g(case):
    m, g = case
    ctx = field(m)
    tt = truth_table(ctx, g)
    assert tt.dtype == np.uint8 and tt.shape == (ctx.q,)
    assert [int(bit) for bit in tt] == [ctx.trace(eval_g(ctx, g, x)) for x in range(ctx.q)]


@pytest.mark.parametrize("m", [13, 15, 17, 20])
def test_truth_table_matches_monomial_rows_at_large_m(m):
    # past the range eval_g can cover: the XOR of the oracle's trace rows
    ctx = field(m)
    q = ctx.q
    g = TracePoly(a7=q - 3, b=(1, 0, q // 3, 5))
    want = np.zeros(q, dtype=np.uint8)
    for coef, e in [(g.a7, 7)] + [(bi, (1 << i) + 1) for i, bi in enumerate(g.b)]:
        want ^= ctx.trace_bits(ctx.monomial_table(coef, e))
    np.testing.assert_array_equal(truth_table(ctx, g), want)


def test_reduce_difference_unit_example(ctx5):
    cv = reduce_difference(ctx5, TracePoly(a7=1), 1)
    assert (cv.a, cv.b, cv.c, cv.d) == (1, 0, 1, 1)


def test_reduce_difference_rejects_zero_shift(ctx5):
    with pytest.raises(ValueError):
        reduce_difference(ctx5, TracePoly(a7=1), 0)


@pytest.mark.parametrize("m", [5, 7, 9])
def test_reduced_curve_counts_difference_function(m):
    """The quintic's affine count must equal #{x : Tr(G(x+a)+G(x)) = 0} * 2;
    this is the trace-count equality that justifies the whole reduction."""
    ctx = FieldCtx(m)
    g = TracePoly(a7=2, b=(0, 3))
    for alpha in (1, 2, ctx.q - 1):
        cv = reduce_difference(ctx, g, alpha)
        zeros = sum(1 for x in range(ctx.q)
                    if ctx.trace(eval_g(ctx, g, x ^ alpha)
                                 ^ eval_g(ctx, g, x)) == 0)
        assert count_points(ctx, cv) - 1 == 2 * zeros


@given(st.integers(1, 31), st.lists(st.integers(0, 31), max_size=3))
def test_json_round_trip(a7, b):
    # () and (0,) denote the same G, so compare after padding to equal length
    g = TracePoly(a7=a7, b=tuple(b))
    g2 = tracepoly_from_json(json.dumps(tracepoly_to_dict(g)))
    width = max(len(g.b), len(g2.b))
    pad = lambda t: tuple(t) + (0,) * (width - len(t))
    assert g2.a7 == g.a7 and pad(g2.b) == pad(g.b)


def test_json_sparse_encoding():
    g = TracePoly(a7=5, b=(0, 0, 9))
    doc = tracepoly_to_dict(g)
    assert doc["a7"] == "0x5"
    assert doc["b"] == {"2": "0x9"}  # zero coefficients omitted
    assert doc["s"] == 2


@pytest.mark.parametrize("bad", [
    "[]", '{"b":{}}', '{"a7":"0x0"}', '{"a7":"0x1","b":{"5":"0x1"},"s":2}',
    '{"a7":"zz"}', "not json at all"])
def test_json_malformed_rejected(bad):
    with pytest.raises(ValueError):
        tracepoly_from_json(bad)
