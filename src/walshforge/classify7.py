"""Per-shift trichotomy X_alpha in {0, 2q, 8q} predicted from trace tests.

For alpha != 0 put e = 1/(a7*alpha^7).  If alpha^7 = 1/a7 the reduced curve
degenerates (b-coefficient 0) and X_alpha = 2q.  Otherwise let
ell = e^(1/3).  If Tr(ell) = 1 then X_alpha = 2q.  If Tr(ell) = 0, solve
u^2 + u = ell with Tr(u) = 0 and v^2 + v = u (so v^4 + v = ell); then

    X_alpha = 8q  iff  Tr(eta*v^3) = 1 and Tr(eta*(v^2+v)) = 1,   else 0,

where eta is the invariant returned by :func:`eta_of_alpha`.  The prediction
is exercised against brute-force X_alpha over every alpha by the test suite;
no part of it is trusted by construction.

:func:`classify_all` runs the same steps as whole-field array passes over
every alpha at once; the per-alpha :func:`classify_alpha` is its test
oracle.  It finds v by the two half-trace steps above; :func:`classify_all`
takes the same trace-0 root from the closed form of ``FieldCtx.vsolve_quartic``.
Its monomials in alpha are ``FieldCtx.shift_term`` products over the shift
axis.  eta is computed once per G, by :func:`eta_all`; the auxiliary curve
reads the same array rather than evaluating eta again.

The module also carries the family's bound checkers (all verdicts in exact
integer arithmetic):

    sigma deviation      |sigma4 - 3q^2|  <= 185 * 2^(s-1) * q^(3/2)
    amplitude lower      linf >= sqrt(2q); refined by +2^ceil(m/3) once
                         m >= 15+2s
    amplitude upper      linf <= 6*sqrt(q)   (Weil bound on the curve count)
    count deviations     |N0 - q/2| <= 3*sqrt(q)+1,
                         |N - q/8| <= 23*2^(s-1)*sqrt(q)  (hard for q >= 32)

The sigma deviation and both amplitude-lower clauses hold at odd m only, and
are informational at even m: there the family has bent members (linf^2 = q,
sigma4 = q^2), which meet the nonlinearity bound 2^(m-1) - 2^(m/2-1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boolfn import TracePoly
from .field import FieldCtx
from .report import Check, compare, slack_bound


@dataclass
class AlphaClassification:
    alpha: int
    lambda_zero: bool
    ell: int
    trace_ell: int
    eta: int
    v: int | None
    predicted: int


def eta_of_alpha(ctx: FieldCtx, g: TracePoly, alpha: int) -> int:
    """1 + a7^(1/4)*alpha^(7/4) + a7^(1/2)*alpha^(7/2)
    + sum_i (b_i*alpha^(1+2^i))^(2^-i) + sum_i b_i*alpha^(1+2^i).

    Always has trace 1: the two a7 terms are Frobenius-square pairs, as is
    each b_i term pair, so everything except the leading 1 telescopes away
    under Tr.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    e = 1
    e ^= ctx.mul(ctx.pow(g.a7, (1, 4)), ctx.pow(alpha, (7, 4)))
    e ^= ctx.mul(ctx.pow(g.a7, (1, 2)), ctx.pow(alpha, (7, 2)))
    for i, bi in enumerate(g.b):
        if bi:
            t = ctx.mul(bi, ctx.pow(alpha, 1 + (1 << i)))
            e ^= ctx.pow(t, (1, 1 << i)) ^ t
    return e


def classify_alpha(ctx: FieldCtx, g: TracePoly, alpha: int) -> AlphaClassification:
    if ctx.m % 2 == 0:
        raise ValueError("trichotomy requires odd m")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    q = ctx.q
    eta = eta_of_alpha(ctx, g, alpha)
    if ctx.pow(alpha, 7) == ctx.pow(g.a7, -1):
        return AlphaClassification(alpha=alpha, lambda_zero=True, ell=1,
                                   trace_ell=1, eta=eta, v=None, predicted=2 * q)
    ell = ctx.pow(ctx.mul(ctx.pow(g.a7, -1), ctx.pow(alpha, -7)), (1, 3))
    if ctx.trace(ell) == 1:
        return AlphaClassification(alpha=alpha, lambda_zero=False, ell=ell,
                                   trace_ell=1, eta=eta, v=None, predicted=2 * q)
    u = ctx.solve_artin_schreier(ell)
    if u is None:
        raise AssertionError(f"no root of u^2+u=ell despite Tr(ell)=0, alpha={alpha:#x}")
    if ctx.trace(u) == 1:
        u ^= 1  # pick the trace-0 root; prediction is v-choice invariant anyway
    v = ctx.solve_artin_schreier(u)
    if v is None:
        raise AssertionError(f"no root of v^2+v=u despite Tr(u)=0, alpha={alpha:#x}")
    hit = (ctx.trace(ctx.mul(eta, ctx.pow(v, 3))) == 1
           and ctx.trace(ctx.mul(eta, ctx.pow(v, 2) ^ v)) == 1)
    return AlphaClassification(alpha=alpha, lambda_zero=False, ell=ell,
                               trace_ell=0, eta=eta, v=v,
                               predicted=8 * q if hit else 0)


@dataclass
class ShiftArrays:
    """:class:`AlphaClassification` fields as arrays; entry k is alpha = k + 1.
    ``v`` is -1 where the scalar classifier has ``v=None``."""
    predicted: np.ndarray
    lambda_zero: np.ndarray
    ell: np.ndarray
    eta: np.ndarray
    v: np.ndarray


def eta_all(ctx: FieldCtx, g: TracePoly) -> np.ndarray:
    """:func:`eta_of_alpha` for every alpha = 1..q-1 (entry k is alpha = k + 1).
    Computed once per G: :func:`classify_all` keeps it as ``eta``, and the
    auxiliary curve's ``count_n123`` reads it at alpha = x^(-3)."""
    e = ctx.shift_term(ctx.pow(g.a7, (1, 4)), (7, 4))
    e ^= 1
    e ^= ctx.shift_term(ctx.pow(g.a7, (1, 2)), (7, 2))
    for i, bi in enumerate(g.b):
        if bi:  # t^(2^-i) = b_i^(2^-i) * alpha^((1+2^i)/2^i)
            e ^= ctx.shift_term(ctx.pow(bi, (1, 1 << i)), (1 + (1 << i), 1 << i))
            e ^= ctx.shift_term(bi, 1 + (1 << i))
    return e


def classify_all(ctx: FieldCtx, g: TracePoly) -> ShiftArrays:
    """:func:`classify_alpha` for every alpha = 1..q-1 in one pass."""
    if ctx.m % 2 == 0:
        raise ValueError("trichotomy requires odd m")
    q = ctx.q
    eta = eta_all(ctx, g)
    lambda_zero = ctx.shift_term(1, 7) == ctx.pow(g.a7, -1)
    # on the lambda_zero fibre this is the cube root of 1, so ell = 1 there as
    # well, and Tr(1) = 1 (odd m) sends those shifts to the 2q branch below
    ell = ctx.shift_term(ctx.pow(g.a7, (-1, 3)), (-7, 3))
    v, split = ctx.vsolve_quartic(ell)  # split: Tr(ell) = 0
    t1 = ctx.trace_bits(ctx.vterm(eta, v, 3))
    t2 = ctx.trace_bits(ctx.vterm(eta, ctx.vsquare(v) ^ v, 1))
    predicted = np.where(split, np.where((t1 == 1) & (t2 == 1), 8 * q, 0), 2 * q)
    return ShiftArrays(predicted=predicted, lambda_zero=lambda_zero, ell=ell, eta=eta,
                       v=np.where(split, v, -1))


def count_n0_n(ctx: FieldCtx, g: TracePoly, shifts: ShiftArrays) -> dict:
    """Predicted counts over all alpha != 0 from ``shifts``, the
    :func:`classify_all` result for this G, plus deviation-bound checks."""
    q = ctx.q
    n0 = int(np.count_nonzero(shifts.predicted == 2 * q))
    n = int(np.count_nonzero(shifts.predicted == 8 * q))
    z = q - 1 - n0 - n
    bounds = [
        # |2*N0 - q| <= 6*sqrt(q) + 2
        slack_bound("n0_deviation_bound", abs(2 * n0 - q), 2, 36 * q),
        compare("n0_deviation_strict", (2 * n0 - q) ** 2, "<", 36 * q, hard=False,
                note="strict variant, informational"),
        # |8*N - q| <= 23*2^(s+2)*sqrt(q), contractual for q >= 32
        slack_bound("n_deviation_bound", abs(8 * n - q), 0,
                    529 * (1 << (2 * g.s + 4)) * q, hard=q >= 32,
                    note="" if q >= 32 else "informational below q=32"),
    ]
    return {"N0": n0, "N": n, "Z": z, "bounds_report": bounds}


# ---------------------------------------------------------------------------
# bound checkers over spectral quantities

EVEN_M_NOTE = "informational at even m, where the family has bent members"


def _odd_m_bound(ctx: FieldCtx, check: Check) -> Check:  # see the module docstring
    return check if ctx.m % 2 else replace(check, hard=False, note=EVEN_M_NOTE)


def check_sigma_bound(ctx: FieldCtx, g: TracePoly, sigma4: int) -> Check:
    """4*(sigma4 - 3q^2)^2 <= 185^2 * 2^(2s) * q^3, exact integers."""
    q = ctx.q
    return _odd_m_bound(ctx, compare("sigma_deviation_bound", 4 * (sigma4 - 3 * q * q) ** 2,
                                     "<=", 185 * 185 * (1 << (2 * g.s)) * q ** 3))


def check_linf_lower(ctx: FieldCtx, g: TracePoly, linf_value: int) -> list[Check]:
    """linf^2 >= 2q (hard inside the m <= 11+2s window, informational outside);
    refined clause linf >= sqrt(2q) + 2^ceil(m/3) once m >= 15+2s."""
    q = ctx.q
    window = 11 + 2 * g.s
    checks = [compare("spectral_lower_bound", linf_value ** 2, ">=", 2 * q, hard=ctx.m <= window,
                      note="" if ctx.m <= window else f"outside stated window m<=11+2s={window}")]
    if ctx.m >= 15 + 2 * g.s:
        step = 1 << (-(-ctx.m // 3))
        ok = linf_value > step and (linf_value - step) ** 2 >= 2 * q
        checks.append(Check(name="spectral_lower_bound_refined", lhs=linf_value,
                            rhs=f"sqrt({2 * q})+{step}", relation=">=", passed=ok))
    return [_odd_m_bound(ctx, c) for c in checks]


def check_linf_upper(ctx: FieldCtx, linf_value: int) -> Check:
    return compare("spectral_upper_bound", linf_value ** 2, "<=", 36 * ctx.q)


def pair_zero_count(n1: int, n2: int, n3: int, n: int) -> int:
    """#{both conditions hold} = (n1 + n2 + n3 - n) / 2 on a ground set of n.

    For bit functions phi, psi on the set: n1 = #{phi=1}, n2 = #{psi=1},
    n3 = #{phi=psi}; inclusion-exclusion gives the pair count.  An odd sum
    means the inputs are inconsistent.
    """
    t = n1 + n2 + n3 - n
    if t % 2:
        raise ValueError(f"inconsistent counts: n1+n2+n3-n = {t} is odd")
    return t // 2
