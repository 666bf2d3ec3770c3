import pytest
from hypothesis import given, settings, strategies as st

from walshforge.autocorr import sigma_decomposition, x_alpha_all
from walshforge.boolfn import TracePoly, truth_table
from walshforge.classify7 import (check_linf_lower, check_linf_upper, check_sigma_bound,
                                  classify_all, classify_alpha, count_n0_n, eta_of_alpha,
                                  pair_zero_count)
from walshforge.field import FieldCtx
from walshforge.rng import SplitRng


def test_eta_unit_value(ctx5):
    assert eta_of_alpha(ctx5, TracePoly(a7=1), 1) == 1


@pytest.mark.parametrize("m", [5, 7, 9])
def test_eta_always_has_trace_one(m):
    # the Frobenius pairs in eta telescope, leaving Tr(1) = 1 for odd m
    ctx = FieldCtx(m)
    rng = SplitRng(m * 1000 + 1)
    for _ in range(60):
        g = TracePoly(a7=1 + rng.below(ctx.q - 1),
                      b=tuple(rng.below(ctx.q) for _ in range(3)))
        alpha = 1 + rng.below(ctx.q - 1)
        assert ctx.trace(eta_of_alpha(ctx, g, alpha)) == 1


@pytest.mark.parametrize("m,a7,bs", [(5, 1, ()), (5, 7, (3, 9)), (7, 1, ()),
                                     (7, 3, (0, 6, 2)), (9, 5, (1,))])
def test_predictor_matches_brute_force_exhaustive(m, a7, bs):
    ctx = FieldCtx(m)
    g = TracePoly(a7=a7, b=bs)
    table = x_alpha_all(ctx, truth_table(ctx, g))
    for alpha in range(1, ctx.q):
        assert classify_alpha(ctx, g, alpha).predicted == int(table[alpha])


def test_classification_fields(ctx5):
    # a7=1, b1=2 hits all three classes at m=5 (N0=16, N=6, Z=9)
    g = TracePoly(a7=1, b=(0, 2))
    seen = set()
    for alpha in range(1, 32):
        c = classify_alpha(ctx5, g, alpha)
        seen.add(c.predicted)
        if c.lambda_zero:
            # alpha^7 = a7^{-1} marks the degenerate fiber
            assert ctx5.pow(alpha, 7) == ctx5.pow(g.a7, -1)
            assert c.predicted == 2 * ctx5.q
        elif c.trace_ell == 1:
            assert c.predicted == 2 * ctx5.q
            assert c.v is None
        else:
            # quartic split: v^4 + v = ell
            lhs = ctx5.pow(c.v, 4) ^ c.v
            assert lhs == c.ell
            assert c.predicted in (0, 8 * ctx5.q)
    assert seen == {0, 64, 256}


def test_lambda_zero_fiber_size():
    # gcd(7, q-1) = 1 when 3 does not divide m: exactly one degenerate alpha;
    # when 3 | m the fiber is empty or has seven elements
    for m, sizes in ((5, {1}), (7, {1}), (9, {0, 7})):
        ctx = FieldCtx(m)
        for a7 in (1, 2, 5):
            g = TracePoly(a7=a7)
            n = sum(1 for alpha in range(1, ctx.q)
                    if classify_alpha(ctx, g, alpha).lambda_zero)
            assert n in sizes


def test_conjunction_invariant_under_v_shift(ctx7):
    """The 8q test reads Tr(eta v^3) and Tr(eta (v^2+v)); replacing v by v+1
    (the other root picked by the solver) must not change the verdict."""
    g = TracePoly(a7=3, b=(0, 6))
    for alpha in range(1, 128):
        c = classify_alpha(ctx7, g, alpha)
        if c.v is None:
            continue
        eta, v = c.eta, c.v
        for w in (v, v ^ 1):
            t1 = ctx7.trace(ctx7.mul(eta, ctx7.pow(w, 3)))
            t2 = ctx7.trace(ctx7.mul(eta, ctx7.mul(w, w) ^ w))
            verdict = 8 * ctx7.q if (t1 == 1 and t2 == 1) else 0
            assert verdict == c.predicted


def test_count_n0_n_matches_decomposition(ctx7):
    for a7, bs in ((1, ()), (11, (4, 2)), (100, (0, 0, 7))):
        g = TracePoly(a7=a7, b=bs)
        counted = count_n0_n(ctx7, g, classify_all(ctx7, g))
        measured = sigma_decomposition(x_alpha_all(ctx7, truth_table(ctx7, g)))
        assert (counted["N0"], counted["N"], counted["Z"]) == (
            measured["N0"], measured["N"], measured["Z"])


def test_sigma_bound_checker_passes_true_values(ctx9):
    from walshforge.spectrum import amplitude_counts, fwht, l4_fourth
    g = TracePoly(a7=2, b=(1, 1, 3))
    chk = check_sigma_bound(ctx9, g, l4_fourth(amplitude_counts(fwht(truth_table(ctx9, g)))))
    assert chk.passed and chk.name == "sigma_deviation_bound"


def test_sigma_bound_checker_rejects_flat_spectrum():
    # a perfectly flat (bent-like) sigma = q^2 is impossible here and must
    # violate the deviation bound once q > 2139
    ctx = FieldCtx(13)
    g = TracePoly(a7=1)
    chk = check_sigma_bound(ctx, g, ctx.q ** 2)
    assert not chk.passed


def test_linf_checkers(ctx5):
    lower = check_linf_lower(ctx5, TracePoly(a7=1), 8)
    assert all(c.passed for c in lower)
    assert any(c.name == "spectral_lower_bound" and c.hard for c in lower)
    assert check_linf_upper(ctx5, 8).passed
    assert not check_linf_upper(ctx5, 34).passed  # 34^2 = 1156 > 36*32


def test_linf_lower_window_hardness():
    # inside the window (m <= 11 + 2s) the bound is hard; outside it degrades
    # to a soft warning
    hard5 = check_linf_lower(FieldCtx(5), TracePoly(a7=1), 8)
    assert all(c.hard for c in hard5 if c.name == "spectral_lower_bound")
    soft13 = check_linf_lower(FieldCtx(13), TracePoly(a7=1), 2 ** 7)
    flags = [c.hard for c in soft13 if c.name == "spectral_lower_bound"]
    assert flags == [False]


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
def test_pair_zero_count_identity(pairs):
    n = len(pairs)
    n1 = sum(1 for t1, _ in pairs if t1)
    n2 = sum(1 for _, t2 in pairs if t2)
    n3 = sum(1 for t1, t2 in pairs if t1 == t2)
    both = sum(1 for t1, t2 in pairs if t1 and t2)
    assert pair_zero_count(n1, n2, n3, n) == both


def test_pair_zero_count_rejects_inconsistent():
    with pytest.raises(ValueError):
        pair_zero_count(1, 0, 0, 0)


def test_even_m_rejected(ctx5):
    with pytest.raises(ValueError):
        classify_alpha(FieldCtx(4), TracePoly(a7=1), 1)
