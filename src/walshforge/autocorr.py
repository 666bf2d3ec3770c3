"""Directional autocorrelation sums X_alpha — the second route to sigma4.

X_alpha = (sum_x (-1)^(Tr(G(x) + G(x+alpha))))^2.  The sums here are computed
by direct gather over the truth table, never through the Walsh transform, so
that q^2 + sum_alpha X_alpha = l4_fourth(fwht(table)) stays a genuine
cross-check between two independent computation paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import TracePoly, truth_table
from .field import FieldCtx

X_ALPHA_MAX_M = 16  # the full table costs q^2 byte gathers


@dataclass
class XAlphaTable:
    q: int
    x: np.ndarray  # x[alpha] = X_alpha; x[0] unused (0)


def x_alpha_from_bits(bits: np.ndarray, alpha: int) -> int:
    q = len(bits)
    if not 0 < alpha < q:
        raise ValueError(f"alpha={alpha} outside 1..q-1")
    mism = int((bits ^ bits[np.arange(q) ^ alpha]).sum())
    return (q - 2 * mism) ** 2


def x_alpha(ctx: FieldCtx, g: TracePoly, alpha: int) -> int:
    return x_alpha_from_bits(truth_table(ctx, g), alpha)


def x_alpha_all(ctx: FieldCtx, g: TracePoly) -> XAlphaTable:
    """Full table over alpha != 0; O(q^2) gathers."""
    if ctx.m > X_ALPHA_MAX_M:
        raise ValueError(f"full X_alpha table infeasible beyond m={X_ALPHA_MAX_M}")
    bits = truth_table(ctx, g)
    q = ctx.q
    idx = np.arange(q)
    signed = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        signed[a] = q - 2 * int((bits ^ bits[idx ^ a]).sum())
    return XAlphaTable(q=q, x=signed * signed)


def sigma_autocorr(table: XAlphaTable) -> int:
    """q^2 + sum of X_alpha — must equal the spectral sigma4 exactly."""
    return table.q * table.q + int(table.x[1:].sum())


def sigma_decomposition(table: XAlphaTable) -> dict:
    """Counts N0 = #{X=2q}, N = #{X=8q}, Z = #{X=0}.

    Any entry outside {0, 2q, 8q} means an even m, a7 = 0, or a bug, and is
    reported with the offending alpha.
    """
    q = table.q
    x = table.x[1:]
    z, n0, n = (int(np.count_nonzero(x == v)) for v in (0, 2 * q, 8 * q))
    if z + n0 + n < q - 1:
        alpha = 1 + int(np.flatnonzero((x != 0) & (x != 2 * q) & (x != 8 * q))[0])
        raise ValueError(
            f"X_alpha={int(x[alpha - 1])} at alpha={alpha:#x} outside {{0, {2*q}, {8*q}}}: "
            "trichotomy violated (even m, a7 = 0, or implementation bug)")
    return {"N0": n0, "N": n, "Z": z}
