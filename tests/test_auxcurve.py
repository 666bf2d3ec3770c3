import numpy as np
import pytest

from walshforge.auxcurve import count_n123, enumerate_points, gamma_of, s7_sum
from walshforge.boolfn import TracePoly
from walshforge.classify7 import classify_all, count_n0_n, eta_all, eta_of_alpha
from walshforge.field import FieldCtx
from walshforge.rng import SplitRng

from oracles import f_on_curve, g_on_curve


def test_m3_reference_values(ctx3):
    # gamma=1: x^7=1 off zero, Tr(1)=1, so S7 = 1 - 7 = -6 and the curve has
    # no affine points: 0 + 3 = S7 + q + 1 = 3
    assert s7_sum(ctx3, 1) == -6
    pts = enumerate_points(ctx3, 1)
    assert len(pts.points) == 0
    assert pts.count_total == 3 == s7_sum(ctx3, 1) + 8 + 1


def brute_s7(ctx, gamma):
    return sum((-1) ** ctx.trace(ctx.mul(gamma, ctx.pow(x, 7)))
               for x in range(ctx.q))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_s7_matches_brute_sum(m):
    ctx = FieldCtx(m)
    rng = SplitRng(m)
    for gamma in {1 + rng.below(ctx.q - 1) for _ in range(8)}:
        assert s7_sum(ctx, gamma) == brute_s7(ctx, gamma)
        assert s7_sum(ctx, gamma) ** 2 <= 36 * ctx.q  # Weil strip


def test_gamma_of(ctx7):
    g = TracePoly(a7=5)
    gamma = gamma_of(ctx7, g)
    assert ctx7.pow(gamma, 3) == ctx7.inv(5)


@pytest.mark.parametrize("m", [5, 7, 9])
def test_count_identity_random_gamma(m):
    ctx = FieldCtx(m)
    rng = SplitRng(40 + m)
    for _ in range(6):
        gamma = 1 + rng.below(ctx.q - 1)
        pts = enumerate_points(ctx, gamma)
        assert pts.count_total == len(pts.points) + 3
        assert pts.count_total == s7_sum(ctx, gamma) + ctx.q + 1


def test_points_satisfy_equation_and_pair(ctx7):
    gamma = 3
    pts = enumerate_points(ctx7, gamma)
    assert pts.points.dtype == np.int64 and pts.points.shape == (len(pts.points), 2)
    rows = [tuple(p) for p in pts.points.tolist()]
    seen = set(rows)
    assert len(seen) == len(rows)
    for x, v in rows:
        assert x != 0
        lhs = ctx7.pow(v, 4) ^ v
        assert lhs == ctx7.mul(gamma, ctx7.pow(x, 7))
        assert (x, v ^ 1) in seen  # fibres come in v, v+1 pairs


def test_trace_identities_on_points(ctx7):
    """f and g are rational expressions in (x, v) whose traces equal
    Tr(eta * v^3) and Tr(eta * (v^2+v)) at alpha = x^{-3}; this is what lets
    point counts on one curve bound the shift statistics."""
    g = TracePoly(a7=3, b=(0, 6, 2))
    gamma = gamma_of(ctx7, g)
    for x, v in enumerate_points(ctx7, gamma).points.tolist():
        alpha = ctx7.pow(ctx7.inv(x), 3)
        eta = eta_of_alpha(ctx7, g, alpha)
        t1 = ctx7.trace(ctx7.mul(eta, ctx7.pow(v, 3)))
        t2 = ctx7.trace(ctx7.mul(eta, ctx7.mul(v, v) ^ v))
        assert ctx7.trace(f_on_curve(ctx7, g, x, v)) == t1
        assert ctx7.trace(g_on_curve(ctx7, g, x, v)) == t2


@pytest.mark.parametrize("m,s", [(7, 2), (7, 3), (9, 2), (9, 3)])
def test_bounds_hold(m, s):
    ctx = FieldCtx(m)
    rng = SplitRng(m * 10 + s)
    g = TracePoly(a7=1 + rng.below(ctx.q - 1),
                  b=tuple(rng.below(ctx.q) for _ in range(s)) + (1 + rng.below(ctx.q - 1),))
    assert g.s == s
    pts = enumerate_points(ctx, gamma_of(ctx, g))
    res = count_n123(ctx, g, pts, eta_all(ctx, g))
    hard = [c for c in res["bounds"] if c.hard]
    assert hard and all(c.passed for c in hard)


def test_bounds_skipped_below_s2(ctx5):
    g = TracePoly(a7=1)
    res = count_n123(ctx5, g, enumerate_points(ctx5, gamma_of(ctx5, g)), eta_all(ctx5, g))
    assert all(not c.hard for c in res["bounds"])
    assert any("s>=2" in c.note or "s>=2" in str(c.rhs) for c in res["bounds"])


@pytest.mark.parametrize("m", [5, 7])
def test_assembly_reproduces_predictor_count(m):
    ctx = FieldCtx(m)
    rng = SplitRng(777 + m)
    for _ in range(5):
        g = TracePoly(a7=1 + rng.below(ctx.q - 1),
                      b=tuple(rng.below(ctx.q) for _ in range(3)))
        pts = enumerate_points(ctx, gamma_of(ctx, g))
        shifts = classify_all(ctx, g)
        res = count_n123(ctx, g, pts, shifts.eta)
        assert res["N_assembled"] == count_n0_n(ctx, g, shifts)["N"]


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_n123_same_on_either_eta(m):
    # the CLI hands count_n123 classify_all's eta when the predictor ran, and
    # eta_all's otherwise: both must give the same counts, and the wrong length
    # is refused
    ctx = FieldCtx(m)
    rng = SplitRng(31 + m)
    for s in (0, 2):
        g = TracePoly(a7=1 + rng.below(ctx.q - 1),
                      b=tuple(rng.below(ctx.q) for _ in range(s + 1)))
        pts = enumerate_points(ctx, gamma_of(ctx, g))
        eta = eta_all(ctx, g)
        assert eta.tolist() == [eta_of_alpha(ctx, g, a) for a in range(1, ctx.q)]
        assert count_n123(ctx, g, pts, classify_all(ctx, g).eta) == count_n123(ctx, g, pts, eta)
        with pytest.raises(ValueError, match="one per shift"):
            count_n123(ctx, g, pts, eta[1:])


def test_even_m_rejected():
    with pytest.raises(ValueError):
        enumerate_points(FieldCtx(4), 1)
