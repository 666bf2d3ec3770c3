"""The auxiliary curve  v + v^4 = gamma * x^7  with gamma = a7^(-1/3).

Under alpha = x^(-3) (a bijection of the nonzero field elements for odd m)
the fibre over x consists of the roots of v^4 + v = ell(alpha), so the curve
linearizes the trichotomy's second branch: each alpha with Tr(ell) = 0
contributes exactly the two points (x, v), (x, v+1).

Point-count bookkeeping: over the base field only (0,0), (0,1) and the place
at infinity exist besides the enumerated x != 0 points (the other two points
above x = 0 live in the quartic extension), hence

    #C(k) = len(points) + 3 = S7 + q + 1,
    S7 = sum_x (-1)^(Tr(gamma*x^7)).

N1, N2, N3 count the trace conditions Tr(eta*v^3) = 1, Tr(eta*(v^2+v)) = 1,
Tr(eta*(v^3+v^2+v)) = 0 over the enumerated points.  Each is tied to a
character sum along the curve, so it deviates from #C/2 by at most a
Bombieri-type multiple of sqrt(q); the checks keep the classical +-5 slack
(covering the excluded points with room to spare).  Inclusion-exclusion then
reassembles the number N of shifts with X_alpha = 8q:

    N = (N1 + N2 + N3 - len(points)) / 4.

The same trace conditions also arise from rational functions f, g pulled
along the curve; the test oracles in ``tests/oracles.py`` evaluate those
directly, so the equalities Tr(f) = Tr(eta*v^3), Tr(g) = Tr(eta*(v^2+v)) are
themselves tested rather than assumed.

``s7_sum``, ``enumerate_points`` and ``count_n123`` are whole-field array
passes over every x (or every point) at once; the points are one (n, 2)
int64 array of fibre pairs (x, v), (x, v+1).  eta is computed once per G
over every shift (``classify7.eta_all``, also ``classify_all``'s ``eta``),
and ``count_n123`` reads it at alpha = x^(-3), once per fibre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import TracePoly
from .classify7 import pair_zero_count
from .field import FieldCtx
from .report import Check, slack_bound


@dataclass
class AuxCurvePoints:
    points: np.ndarray             # (n, 2) int64 rows (x, v), (x, v^1); x != 0
    count_total: int               # #C(k), including (0,0), (0,1), infinity


def s7_sum(ctx: FieldCtx, gamma: int) -> int:
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    # sum over x of (-1)^Tr(gamma*x^7); x = 0 has trace 0
    return ctx.q - 2 * int(np.count_nonzero(ctx.trace_row([(gamma, 7)])))


def enumerate_points(ctx: FieldCtx, gamma: int) -> AuxCurvePoints:
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if ctx.m % 2 == 0:
        raise ValueError("point enumeration requires odd m")
    x = np.arange(1, ctx.q, dtype=np.int64)
    v, on_curve = ctx.vsolve_quartic(ctx.shift_term(gamma, 7))
    x, v = x[on_curve], v[on_curve]
    pts = np.stack([x, v, x, v ^ 1], axis=1).reshape(-1, 2)
    return AuxCurvePoints(points=pts, count_total=len(pts) + 3)


def gamma_of(ctx: FieldCtx, g: TracePoly) -> int:
    return ctx.pow(g.a7, (-1, 3))


def count_n123(ctx: FieldCtx, g: TracePoly, pts: AuxCurvePoints, eta: np.ndarray) -> dict:
    """Trace-condition counts over the enumerated points, bound checks, and
    the inclusion-exclusion reassembly of N.  ``eta`` is G's eta at every
    shift (``classify7.eta_all``; entry k is alpha = k + 1)."""
    q = ctx.q
    if len(eta) != q - 1:
        raise ValueError(f"eta has {len(eta)} entries, not one per shift ({q - 1})")
    x, v = pts.points.T
    eta = np.repeat(eta[ctx.vterm(1, x[::2], -3) - 1], 2)  # alpha = x^(-3)
    t1 = ctx.trace_bits(ctx.vterm(eta, v, 3))
    t2 = ctx.trace_bits(ctx.vterm(eta, ctx.vsquare(v) ^ v, 1))
    n1, n2 = int(np.count_nonzero(t1)), int(np.count_nonzero(t2))
    n3 = int(np.count_nonzero(t1 == t2))
    both = pair_zero_count(n1, n2, n3, len(pts.points))
    if both % 2:
        raise AssertionError("pair count must be even: points come in (v, v+1) pairs")
    bounds: list[Check] = []
    s = g.s
    if s >= 2:
        for tag, ni, amp in (("n1", n1, 21 * (1 << s) - 21),
                             ("n2", n2, 7 * ((1 << (s + 1)) - 1)),
                             ("n3", n3, 35 * (1 << s) - 70)):
            bounds.append(slack_bound(f"aux_{tag}_deviation_bound",
                                      abs(2 * ni - pts.count_total), 5,
                                      amp * amp * q))
    else:
        bounds.append(Check(name="aux_deviation_bounds", lhs="skipped", rhs="s>=2",
                            relation="requires", passed=True, hard=False,
                            note=f"bound constants are positive only for s >= 2; got s={s}"))
    return {"N1": n1, "N2": n2, "N3": n3, "bounds": bounds,
            "N_assembled": both // 2}
