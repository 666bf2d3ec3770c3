"""Whole-field array passes against their one-element scalar oracles.

Every batched route is compared with the scalar function it replaces on
every alpha (or every x, or every point) of small fields, for coefficient
sets drawn by Hypothesis.  The scalar functions stay the reference; the log
tables themselves are checked against the shift-xor product on the largest
fields the CLI accepts.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walshforge.autocorr as autocorr
import walshforge.field as field
import walshforge.genus2 as genus2
from walshforge.autocorr import x_alpha_all
from walshforge.auxcurve import count_n123, enumerate_points, gamma_of, s7_sum
from walshforge.boolfn import TracePoly, reduce_difference, reduce_difference_all, truth_table
from walshforge.classify7 import classify_all, classify_alpha, count_n0_n, eta_all, eta_of_alpha
from walshforge.field import FieldCtx
from walshforge.genus2 import (QuinticCurve, classify, classify_curves, count_points,
                               count_points_all)
from walshforge.spectrum import amplitude_counts, fwht, l4_fourth, linf, nonlinearity

from oracles import field_isomorphism, other_modulus, x_alpha_from_bits

CTX = {m: FieldCtx(m) for m in range(3, 12)}
CTX_13 = FieldCtx(13)
CTX_15 = FieldCtx(15)
SLOW = settings(max_examples=12, deadline=None)


@st.composite
def tracepolys(draw, m, max_s=2):
    """(m, G) with a7 != 0 and s <= max_s; zero b_i allowed."""
    q = 1 << m
    s = draw(st.integers(0, max_s))
    a7 = draw(st.integers(1, q - 1))
    return TracePoly(a7, tuple(draw(st.integers(0, q - 1)) for _ in range(s + 1)))


def g_on(m):
    return tracepolys(m).map(lambda g: (m, g))


ODD_SMALL = st.sampled_from([3, 5, 7, 9]).flatmap(g_on)


# -- field vector helpers ------------------------------------------------------

@pytest.mark.parametrize("m", [*range(2, 13), 17])
def test_vector_helpers_match_scalar(m):
    # every helper against the scalar operation it vectorizes; both read the
    # log tables, which test_tables_match_shift_xor_product checks
    ctx = FieldCtx(m)
    rng = np.random.default_rng(m)
    x = rng.integers(0, ctx.q, 200)
    y = rng.integers(0, ctx.q, 200)
    x[:3] = 0
    y[7] = 0
    assert ctx.vterm(x, y, 1).tolist() == [ctx.mul(int(a), int(b)) for a, b in zip(x, y)]
    for n in (0, 1, 3, 7, ctx.q - 1, ctx.q, 5 * ctx.q + 3):
        assert ctx.vterm(1, x, n).tolist() == [ctx.pow(int(a), n) for a in x]
        # an array coef with zeros in it, against mul of the scalar power
        assert ctx.vterm(y, x, n).tolist() == [ctx.mul(int(b), ctx.pow(int(a), n))
                                               for a, b in zip(x, y)]
    nz = x[x != 0]
    assert ctx.vterm(1, nz, -7).tolist() == [ctx.pow(int(a), -7) for a in nz]
    logs = ctx.vlog(nz)
    assert logs.min() >= 0 and logs.max() < ctx.q - 1
    assert ctx._exp[logs].tolist() == nz.tolist()
    with pytest.raises(ValueError, match="no discrete logarithm"):
        ctx.vlog(x)
    with pytest.raises(ZeroDivisionError):
        ctx.vterm(1, x, -1)
    with pytest.raises(ZeroDivisionError):
        ctx.vterm(1, x, (-1, 1))
    for num, den in ((1, 4), (7, 4), (5, 2), (3, 1), (0, 2)):
        assert ctx.vterm(1, x, (num, den)).tolist() == [ctx.pow(int(a), (num, den))
                                                       for a in x]
        assert ctx.vterm(y, x, (num, den)).tolist() == [
            ctx.mul(int(b), ctx.pow(int(a), (num, den))) for a, b in zip(x, y)]
    for coef, xs, n in ((y, x, 5), (y, x, (1, 2)), (3, x, 0), (0, x, 3),
                        (y[:len(nz)], nz, -7)):
        # Tr of the products against the scalar trace of the scalar products
        t = ctx.trace_bits(ctx.vterm(coef, xs, n))
        assert t.dtype == np.uint8
        assert t.tolist() == [ctx.trace(ctx.mul(int(c), ctx.pow(int(a), n)))
                              for c, a in zip(np.broadcast_to(coef, xs.shape), xs)]
    if m == 3:
        # 7/4 = 0 (mod q - 1 = 7), so x^(7/4) = 1 for x != 0, yet 0^(7/4) = 0
        assert ctx.vterm(1, [0, 1, 5], (7, 4)).tolist() == [0, 1, 1]
        assert ctx.vterm(1, [0, 1, 5], 7).tolist() == [0, 1, 1]
        assert ctx.vterm(1, [0, 5], 0).tolist() == [1, 1]
        # a list coef with a zero in it, like an array one
        assert ctx.vterm([0, 3, 0], [5, 5, 0], 2).tolist() == [0, ctx.mul(3, ctx.pow(5, 2)), 0]
        assert ctx.trace_bits(ctx.vterm([0, 3], [5, 5], 2)).tolist() == [
            0, ctx.trace(ctx.mul(3, ctx.pow(5, 2)))]
    if m % 2:
        assert ctx.vterm(1, x, (1, 3)).tolist() == [ctx.pow(int(a), (1, 3)) for a in x]
    else:
        with pytest.raises(ValueError, match="odd m"):
            ctx.vsolve_quartic(x)
    # shift_term: the same products over the shift axis alpha = 1..q-1, against
    # vterm on every shift and against mul and pow on the sampled ones
    alpha = np.arange(1, ctx.q, dtype=np.int64)
    sampled = np.unique(x[x != 0])
    exps = [0, 1, 3, 7, -1, -7, ctx.q - 1, 5 * ctx.q + 3,
            (1, 4), (7, 4), (5, 2), (-1, 2), (-3, 4), (0, 2)]
    if m % 2:
        exps += [(1, 3), (-7, 3)]
    for coef in (0, 1, ctx.q - 1, int(y[1]) | 1):
        for n in exps:
            got = ctx.shift_term(coef, n)
            assert got.dtype == np.int64 and got.tolist() == ctx.vterm(coef, alpha, n).tolist()
            assert got[sampled - 1].tolist() == [ctx.mul(coef, ctx.pow(int(a), n))
                                                 for a in sampled]


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 200])
def test_pack_bits_and_popcount(n):
    bits = np.random.default_rng(n).integers(0, 2, (3, n)).astype(np.uint8)
    words = field.pack_bits(bits)
    assert words.dtype == np.uint64 and words.shape == (3, -(-n // 64))
    for row, packed in zip(bits.tolist(), words.tolist()):
        assert packed == [sum(b << k for k, b in enumerate(row[j:j + 64]))
                          for j in range(0, n, 64)]
    assert field.popcount(words).tolist() == bits.sum(axis=1).tolist()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_vsolve_quartic_exhaustive(m):
    # for odd m, v^4 + v = c has a root exactly when Tr(c) = 0; of the two
    # roots v, v + 1 the solver returns the one of trace 0, the root the
    # pinned --selftest-negative reports print
    ctx = CTX[m]
    v, has_root = ctx.vsolve_quartic(np.arange(ctx.q))
    for c, vc, ok in zip(range(ctx.q), v.tolist(), has_root.tolist()):
        assert ok == (ctx.trace(c) == 0)
        if ok:
            assert ctx.pow(vc, 4) ^ vc == c
            assert ctx.trace(vc) == 0
        else:
            assert vc == 0


def test_vsolve_quartic_names_the_first_lost_root():
    ctx = FieldCtx(5)
    ctx.vsolve_quartic(0)  # builds the tables of the root map
    lo, hi = ctx._tables["quartic"]  # at m = 5, lo is read at the 3 low bits of c
    lo = lo.copy()
    lo[0b100] ^= 0b10  # x is outside GF(4), so v + x is never a root again
    ctx._tables["quartic"] = lo, hi
    first = min(c for c in range(ctx.q) if ctx.trace(c) == 0 and c & 0b111 == 0b100)
    with pytest.raises(AssertionError, match=rf"c={first:#x}$"):
        ctx.vsolve_quartic(np.arange(ctx.q))


def test_tables_built_with_the_context():
    ctx = FieldCtx(9)
    ctx.ensure_tables()  # no-op, nothing left to build
    assert all(ctx.mul(a, b) == ctx.mul_raw(a, b) for a in range(0, 512, 37)
               for b in range(0, 512, 41))
    with pytest.raises(ValueError):
        FieldCtx(21)  # above field.MAX_M = 20


@pytest.mark.parametrize("m", [17, 20])
def test_tables_match_shift_xor_product(m):
    ctx = FieldCtx(m)
    assert np.array_equal(np.sort(ctx._exp[:ctx.q - 1]), np.arange(1, ctx.q))
    rng = np.random.default_rng(m)
    x = rng.integers(0, ctx.q, 1000)
    y = rng.integers(0, ctx.q, 1000)
    x[:3] = 0
    y[7] = 0
    assert ctx.vterm(x, y, 1).tolist() == [ctx.mul_raw(int(a), int(b)) for a, b in zip(x, y)]
    x = x[:100]  # square-and-multiply in Python costs ~2m products per element
    for n in (0, 1, 3, 7, 1 << (m - 1), ctx.q - 2, ctx.q - 1, 5 * ctx.q + 3):
        assert ctx.vterm(1, x, n).tolist() == [ctx._pow_raw(int(a), n) for a in x]


# -- predictor -------------------------------------------------------------------

def assert_classify_all_matches(ctx, g):
    arr = classify_all(ctx, g)
    for alpha in range(1, ctx.q):
        ref, k = classify_alpha(ctx, g, alpha), alpha - 1
        assert (int(arr.predicted[k]), bool(arr.lambda_zero[k]), int(arr.ell[k]),
                int(arr.eta[k])) == (ref.predicted, ref.lambda_zero, ref.ell, ref.eta)
        assert int(arr.v[k]) == (-1 if ref.v is None else ref.v)
    return arr


@SLOW
@given(ODD_SMALL)
def test_classify_all_matches_scalar(mg):
    m, g = mg
    assert_classify_all_matches(CTX[m], g)


@settings(max_examples=3, deadline=None)
@given(g_on(11))
def test_classify_all_matches_scalar_m11(mg):
    m, g = mg
    assert_classify_all_matches(CTX[m], g)


@pytest.mark.parametrize("m,a7", [(5, 3), (7, 9), (9, 1)])
def test_classify_all_covers_lambda_zero_shifts(m, a7):
    # a7 = 1 at m = 9 (3 | m) has a seven-element degenerate fibre
    ctx = CTX[m]
    arr = assert_classify_all_matches(ctx, TracePoly(a7, (0, 1)))
    assert arr.lambda_zero.sum() in (1, 7)
    assert (arr.predicted[arr.lambda_zero] == 2 * ctx.q).all()
    assert (arr.v[arr.lambda_zero] == -1).all()


@SLOW
@given(ODD_SMALL)
def test_count_n0_n_reads_the_same_arrays(mg):
    m, g = mg
    ctx = CTX[m]
    preds = [classify_alpha(ctx, g, a).predicted for a in range(1, ctx.q)]
    counted = count_n0_n(ctx, g, classify_all(ctx, g))
    assert (counted["N0"], counted["N"], counted["Z"]) == (
        preds.count(2 * ctx.q), preds.count(8 * ctx.q), preds.count(0))


# -- geometric route -------------------------------------------------------------

@SLOW
@given(ODD_SMALL)
def test_genus2_route_matches_scalar(mg):
    m, g = mg
    ctx = CTX[m]
    a, b, c, d = reduce_difference_all(ctx, g)
    curves = classify_curves(ctx, a, b, c)
    counts = count_points_all(ctx, a, b, c, d)
    for alpha in range(1, ctx.q):
        cv, k = reduce_difference(ctx, g, alpha), alpha - 1
        assert (cv.a, cv.b, cv.c, cv.d) == (a[k], b[k], c[k], d[k])
        data = classify(ctx, cv)
        assert (data.w, data.V_equals_W) == (curves.w[k], curves.V_equals_W[k])
        r = int(curves.radius[k])
        assert data.predicted_counts == {ctx.q + 1 - r, ctx.q + 1 + r}
        assert count_points(ctx, cv) == counts[k]


@SLOW
@given(st.sampled_from([3, 4, 5, 6, 7, 9]).flatmap(
    lambda m: st.lists(st.tuples(st.integers(1, (1 << m) - 1),
                                 *[st.integers(0, (1 << m) - 1)] * 3),
                       min_size=1, max_size=40).map(lambda cs: (m, cs))))
def test_curve_arrays_match_scalar_on_arbitrary_curves(mcs):
    # not only shift curves: zero b or c, and even m, where w is even
    m, coefs = mcs
    ctx = CTX[m]
    a, b, c, d = (np.array(col, dtype=np.int64) for col in zip(*coefs))
    curves = classify_curves(ctx, a, b, c)
    counts = count_points_all(ctx, a, b, c, d)
    for k, cf in enumerate(coefs):
        cv = QuinticCurve(*cf)
        data = classify(ctx, cv)
        assert (data.w, data.V_equals_W) == (curves.w[k], curves.V_equals_W[k])
        assert count_points(ctx, cv) == counts[k]


def test_count_blocks_split_the_x_range(monkeypatch):
    # with caps below the 64 words of one X_alpha hi row and the q / 2 words of
    # one curve row each block holds one row, and the curves are counted a few
    # rows at a time
    ctx = CTX[7]
    g = TracePoly(5, (3, 0, 9))
    a, b, c, d = reduce_difference_all(ctx, g)
    full = count_points_all(ctx, a, b, c, d)
    bits = truth_table(ctx, g)
    table = x_alpha_all(ctx, bits)
    monkeypatch.setattr(field, "BATCH", 50)
    monkeypatch.setattr(genus2, "BATCH", 50)
    monkeypatch.setattr(autocorr, "TILE", 50)
    assert x_alpha_all(ctx, bits).tolist() == table.tolist()
    assert count_points_all(ctx, a, b, c, d).tolist() == full.tolist()


def assert_curves_match_classify(ctx, a, b, c) -> set:
    curves = classify_curves(ctx, a, b, c)
    seen = set()
    for k in range(len(a)):
        data = classify(ctx, QuinticCurve(int(a[k]), int(b[k]), int(c[k]), 0))
        assert (data.w, data.V_equals_W) == (curves.w[k], curves.V_equals_W[k])
        r = int(curves.radius[k])
        assert data.predicted_counts == {ctx.q + 1 - r, ctx.q + 1 + r}
        seen.add((data.w, data.V_equals_W))
    return seen


def random_curves(rng, q, n=200):
    """n curves with a != 0; b = 0 drops the b terms of E, c = 0 the c term of Q."""
    a = rng.integers(1, q, n)
    b, c = rng.integers(0, q, (2, n))
    b[:40] = 0
    c[20:60] = 0
    return a, b, c


@pytest.mark.parametrize("m,path", [*((m, "table") for m in (3, 5, 6, 7, 9, 10)),
                                    *((m, "direct") for m in (4, 8, 12))])
def test_curve_arrays_match_scalar_classify(m, path):
    # where 4 does not divide m, every curve is read from the table of its
    # normal form (1, u, c'); where it does, x^5 is no bijection and the curves
    # themselves are eliminated.  Every (w, Q vanishes on W) pair occurs; w = 0
    # makes W = {0}, on which Q always vanishes
    ctx = FieldCtx(m)
    a, b, c = random_curves(np.random.default_rng(m), ctx.q, 4000)
    seen = assert_curves_match_classify(ctx, a, b, c)
    assert ("genus2.radicals" in ctx._tables) == (path == "table")
    assert seen == {(w, v) for w in range(m % 2, 5, 2) for v in (True, False)} - {(0, False)}


def test_curve_blocks_match_scalar_classify(monkeypatch):
    # BATCH = 50 makes elimination blocks of 50 // m curves.  The contexts are
    # fresh, so that the radical table is built under the patch: at m = 7 its
    # q = 128 curves (1, u, 0) fill 18 blocks of 7 and a last block of 2; at
    # m = 8, where the curves themselves are eliminated, 200 random curves end
    # in a block of 2
    monkeypatch.setattr(genus2, "BATCH", 50)
    rng = np.random.default_rng(78)
    ctx = FieldCtx(7)
    assert ctx.q % (50 // 7) == 2
    a, b, c, _ = reduce_difference_all(ctx, TracePoly(5, (3, 0, 9)))
    seen = assert_curves_match_classify(ctx, a, b, c)
    seen |= assert_curves_match_classify(ctx, *random_curves(rng, ctx.q))
    assert seen == {(w, v) for w in (1, 3) for v in (True, False)}
    ctx = FieldCtx(8)
    a, b, c = random_curves(rng, ctx.q)
    assert len(a) % (50 // 8) == 2
    assert {w for w, _ in assert_curves_match_classify(ctx, a, b, c)} == {0, 2, 4}


def test_curves_with_zero_a_are_refused():
    # a = 0 is no quintic, as e_poly and QuinticCurve say; its logs do not exist
    ctx = CTX[7]
    with pytest.raises(ValueError, match="coefficient a of x\\^5 must be nonzero"):
        classify_curves(ctx, np.array([3, 0, 5]), np.array([1, 2, 0]), np.array([4, 4, 4]))


def test_batch_temporaries_stay_small():
    # a (q-1) x q array at m = 11 would be 32 MB of int64; a fresh context,
    # so that the peak includes building both genus2 tables
    ctx = FieldCtx(11)
    a, b, c, d = reduce_difference_all(ctx, TracePoly(0x155, (3, 0, 9)))
    tracemalloc.start()
    try:
        classify_curves(ctx, a, b, c)
        count_points_all(ctx, a, b, c, d)
        peak = tracemalloc.get_traced_memory()[1]
        base = tracemalloc.get_traced_memory()[0]
        pts = enumerate_points(ctx, 0x2b)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the points are one int64 array: 16 bytes per point, plus a header
    assert len(pts.points) > ctx.q // 2
    assert retained <= 24 * len(pts.points)


def test_x_alpha_temporaries_stay_small():
    # one (q, q) gather at m = 13 would be 64 MB even as uint8
    ctx = FieldCtx(13)
    bits = truth_table(ctx, TracePoly(0x155, (3, 0, 9)))
    tracemalloc.start()
    try:
        x_alpha_all(ctx, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_x_alpha_holds_one_block_buffer():
    # at m = 15 the in-word permutations, the counts and the tile are 8q bytes
    # each; a second tile-sized block buffer would add 8q more
    ctx = CTX_15
    bits = truth_table(ctx, TracePoly(0x155, (3, 0, 9)))
    tracemalloc.start()
    try:
        x_alpha_all(ctx, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * ctx.q


def test_c_spelling_disagreement_is_caught(monkeypatch):
    ctx = CTX[7]
    real_shift, real_term = ctx.shift_term, ctx.vterm

    def skewed_shift(coef, e):  # flips a bit of both square roots of b_1 terms,
        out = real_shift(coef, e)  # sqrt(b_1) * alpha^(1/2) on the shift axis ...
        return out ^ 1 if e == (1, 2) and coef == ctx.pow(6, (1, 2)) else out

    def skewed_term(coef, x, e):  # ... and (b_1 * alpha^3)^(1/2), a root of an array
        out = real_term(coef, x, e)
        return out ^ 1 if e == (1, 2) and coef == 1 else out

    monkeypatch.setattr(ctx, "shift_term", skewed_shift)
    monkeypatch.setattr(ctx, "vterm", skewed_term)
    with pytest.raises(AssertionError, match="c-term spellings disagree"):
        reduce_difference_all(ctx, TracePoly(3, (0, 6)))


# -- equivalence relabellings -----------------------------------------------------

@pytest.mark.parametrize("m", [7, 9, 11])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_routes_relabel_under_scaling_and_frobenius(m, data):
    # G_t(x) = G(t x) has coefficients (a7 t^7, b_i t^(2^i+1)), so its truth
    # table reads G's at t*x, and its X_alpha and predicted X_alpha read G's at
    # t*alpha.  Squaring every coefficient gives G' with G'(x^2) = G(x)^2, so
    # G' reads G's at x -> x^2 and alpha -> alpha^2.  The same holds for the
    # reduced curve of each shift (its point count and its radical w), and
    # what sums over every x or alpha does not move: the amplitude multiset
    # of the spectrum, linf and the aux curve's counts.
    ctx = CTX[m]
    g = data.draw(tracepolys(m))
    t = data.draw(st.integers(2, ctx.q - 1))
    x = np.arange(ctx.q, dtype=np.int64)

    def arrays(h):
        bits = truth_table(ctx, h)
        a, b, c, d = reduce_difference_all(ctx, h)
        per_shift = (classify_all(ctx, h).predicted, count_points_all(ctx, a, b, c, d),
                     classify_curves(ctx, a, b, c).w)
        return bits, x_alpha_all(ctx, bits), *(np.concatenate([[0], s]) for s in per_shift)

    def sums(h):
        counts = amplitude_counts(fwht(truth_table(ctx, h)))
        counted = count_n123(ctx, h, enumerate_points(ctx, gamma_of(ctx, h)),
                             classify_all(ctx, h).eta)
        return (counts.tolist(), linf(counts),
                [counted[k] for k in ("N1", "N2", "N3", "N_assembled")])

    scaled = TracePoly(ctx.mul(g.a7, ctx.pow(t, 7)),
                       tuple(ctx.mul(bi, ctx.pow(t, (1 << i) + 1)) for i, bi in enumerate(g.b)))
    squared = TracePoly(ctx.mul(g.a7, g.a7), tuple(ctx.mul(bi, bi) for bi in g.b))
    tx, x2 = ctx.vterm(t, x, 1), ctx.vterm(1, x, 2)
    for base, at_t, at_sq in zip(arrays(g), arrays(scaled), arrays(squared), strict=True):
        assert at_t.tolist() == base[tx].tolist()
        assert at_sq[x2].tolist() == base.tolist()
    assert sums(g) == sums(scaled) == sums(squared)


@pytest.mark.parametrize("m", range(5, 12))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_routes_relabel_under_a_change_of_modulus(m, data):
    # GF(2^m) under two moduli is one field: phi, built from a root of the
    # first modulus in the second field, sends G's truth table, X_alpha table
    # and per-shift arrays at x or alpha to those of phi(G) at phi(x) or
    # phi(alpha), and leaves the sums over the field alone.  A fault in the
    # log tables, the generator or the dual columns that is consistent inside
    # one field passes the scaling and Frobenius relabellings, but not this.
    ctx, other = CTX[m], FieldCtx(m, other_modulus(m))
    phi = field_isomorphism(ctx, other)
    g = data.draw(tracepolys(m))

    def arrays(field, h):
        bits = truth_table(field, h)
        a, b, c, d = reduce_difference_all(field, h)
        per_shift = [count_points_all(field, a, b, c, d), classify_curves(field, a, b, c).w]
        if m % 2:  # the predictor holds at odd m only
            per_shift.append(classify_all(field, h).predicted)
        return bits, x_alpha_all(field, bits), *(np.concatenate([[0], s]) for s in per_shift)

    def sums(field, h):
        counts = amplitude_counts(fwht(truth_table(field, h)))
        return counts.tolist(), linf(counts), nonlinearity(counts), l4_fourth(counts)

    h = TracePoly(int(phi[g.a7]), tuple(int(phi[bi]) for bi in g.b))
    for base, moved in zip(arrays(ctx, g), arrays(other, h), strict=True):
        assert moved[phi].tolist() == base.tolist()
    assert sums(ctx, g) == sums(other, h)


# -- packed popcount kernels -----------------------------------------------------

# Each field the packed passes branch on: q < 64 fills one partial word
# (m <= 5); q - 1 is odd, so the last word of a curve row is always partial,
# and at m = 6 it is the only word; where 3 or 5 divides q - 1 (even m) the
# x^3 or x^5 term reads gcd(e, q - 1) decimated trace sequences, and m = 4
# and m = 8 have both.
PACKED_M = [pytest.param(m, id=f"m{m}-{tag}") for m, tag in (
    (3, "q-below-64-partial-word"), (4, "q-below-64-partial-word-gcd3-gcd5"),
    (5, "q-below-64-partial-word"), (6, "partial-last-word-gcd3"), (7, "two-words"),
    (8, "even-gcd3-gcd5"), (9, "odd"), (10, "even-gcd3"), (11, "odd"))]


@pytest.mark.parametrize("m", PACKED_M)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_packed_x_alpha_matches_scalar_on_every_alpha(m, data):
    ctx = CTX[m]
    g = data.draw(tracepolys(m))
    bits = truth_table(ctx, g)
    table = x_alpha_all(ctx, bits)
    assert table[0] == 0
    assert table[1:].tolist() == [x_alpha_from_bits(bits, a) for a in range(1, ctx.q)]


# A hi row holds 64 * half words, half = q / 128: 256 at m = 9, 1024 at m = 11.
@pytest.mark.parametrize("m, rows", [
    pytest.param(9, 1, id="one-row-per-block"),
    # group h = 4 runs hi blocks [4, 7) and [7, 8): the last block partial,
    # its moved words XORed against those of the block before
    pytest.param(9, 3, id="partial-last-block"),
    pytest.param(9, 4, id="one-block-per-group"),
    pytest.param(11, 1, id="m11-one-row-per-block"),
    pytest.param(11, 3, id="m11-partial-last-block"),
    pytest.param(11, 16, id="m11-one-block-per-group")])
def test_x_alpha_blocks_of_whole_rows_match_scalar(monkeypatch, m, rows):
    ctx = CTX[m]
    g = TracePoly(0x155, (3, 0, 9))
    bits = truth_table(ctx, g)
    monkeypatch.setattr(autocorr, "TILE", rows * ctx.q // 2)
    table = x_alpha_all(ctx, bits)
    assert table[1:].tolist() == [x_alpha_from_bits(bits, a) for a in range(1, ctx.q)]


def sample_alphas(m, per_group, seed):
    """Every alpha < 64 and ``per_group`` alphas from each top-bit group of
    the word shift hi = alpha // 64."""
    rng = np.random.default_rng(seed)
    groups = m - 6  # hi < 2^(m - 6) has top bits t = 0 .. m - 7
    alphas = np.concatenate([np.arange(1, 64)] + [
        64 * rng.integers(1 << t, 2 << t, size=per_group) + rng.integers(0, 64, size=per_group)
        for t in range(groups)])
    assert {int(a // 64).bit_length() - 1 for a in alphas if a >= 64} == set(range(groups))
    return alphas


def assert_sampled_x_alpha_match_scalar(ctx, bits, alphas):
    table = x_alpha_all(ctx, bits)
    assert [int(table[a]) for a in alphas] == [x_alpha_from_bits(bits, int(a)) for a in alphas]


# At m = 13 a tile holds 8 hi rows and at m = 15 two, so the doubled
# half-counts run on every word-pairing group, in blocks of several rows.
ALPHAS = {13: sample_alphas(13, 57, 13), 15: sample_alphas(15, 24, 15)}


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_packed_x_alpha_matches_scalar_on_every_top_bit_block(data):
    for ctx in (CTX_13, CTX_15):
        bits = truth_table(ctx, data.draw(tracepolys(ctx.m)))
        assert_sampled_x_alpha_match_scalar(ctx, bits, ALPHAS[ctx.m])


@pytest.mark.slow
def test_packed_x_alpha_matches_scalar_at_the_largest_field():
    # at m = 17 a hi row (65536 words) is larger than a tile, so every block
    # is one row, and the group of top bit 10 runs 1024 of them
    ctx = FieldCtx(17)
    g = TracePoly(0x1f3, (0x3, 0x5, 0x9))
    assert_sampled_x_alpha_match_scalar(ctx, truth_table(ctx, g), sample_alphas(17, 12, 17))


@pytest.mark.parametrize("m", PACKED_M)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_packed_counts_match_scalar_on_arbitrary_curves(m, data):
    q = 1 << m
    el = st.integers(0, q - 1)
    coef = st.just(0) | el  # zero b and c rows are common
    cs = data.draw(st.lists(st.tuples(st.integers(1, q - 1), coef, coef, el),
                            min_size=1, max_size=30))
    a, b, c, d = (np.array(col, dtype=np.int64) for col in zip(*cs))
    counts = count_points_all(CTX[m], a, b, c, d)
    assert counts.tolist() == [count_points(CTX[m], QuinticCurve(*cf)) for cf in cs]


# -- auxiliary curve -------------------------------------------------------------

def scalar_points(ctx, gamma):
    pts = []
    for x in range(1, ctx.q):
        w = ctx.solve_artin_schreier(ctx.mul(gamma, ctx.pow(x, 7)))
        if w is None:
            continue
        if ctx.trace(w) == 1:
            w ^= 1
        v = ctx.solve_artin_schreier(w)
        pts += [(x, v), (x, v ^ 1)]
    return pts


def scalar_n123(ctx, g, pts):
    n1 = n2 = n3 = 0
    for x, v in pts:
        eta = eta_of_alpha(ctx, g, ctx.pow(x, ctx.q - 4))
        t1 = ctx.trace(ctx.mul(eta, ctx.pow(v, 3)))
        t2 = ctx.trace(ctx.mul(eta, ctx.pow(v, 2) ^ v))
        n1, n2, n3 = n1 + t1, n2 + t2, n3 + 1 - (t1 ^ t2)
    return n1, n2, n3


@SLOW
@given(ODD_SMALL)
def test_aux_curve_passes_match_scalar(mg):
    m, g = mg
    ctx = CTX[m]
    gamma = gamma_of(ctx, g)
    pts = enumerate_points(ctx, gamma)
    rows = [tuple(p) for p in pts.points.tolist()]
    assert rows == scalar_points(ctx, gamma)  # (x, v), (x, v^1) order kept
    assert s7_sum(ctx, gamma) == sum(1 - 2 * ctx.trace(ctx.mul(gamma, ctx.pow(x, 7)))
                                     for x in range(ctx.q))
    res = count_n123(ctx, g, pts, eta_all(ctx, g))
    assert (res["N1"], res["N2"], res["N3"]) == scalar_n123(ctx, g, rows)
