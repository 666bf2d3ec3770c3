"""Directional autocorrelation sums X_alpha — the second route to sigma4.

X_alpha = (sum_x (-1)^(Tr(G(x) + G(x+alpha))))^2.  The sums here are direct
counts over the truth table, never through the Walsh transform, so that
q^2 + sum_alpha X_alpha = l4_fourth(fwht(table)) stays a genuine cross-check
between two independent computation paths.

``x_alpha_all`` counts the mismatches of f(x) and f(x + alpha) for every
alpha on the truth table packed 64 x to a uint64 word.  With
alpha = 64*hi + lo, x -> x + alpha moves word j to word j ^ hi and permutes
the bits inside a word by k -> k ^ lo, so one table of the 64 in-word
permutations of the packed truth table (q words in all) turns every alpha
into an XOR and popcount over q/64 words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import TracePoly, truth_table
from .field import BATCH, FieldCtx, pack_bits, popcount

X_ALPHA_MAX_M = 17  # the full table costs q^2 / 64 word XOR-and-popcounts


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
    """Full table over alpha != 0; O(q^2 / 64) word operations."""
    if ctx.m > X_ALPHA_MAX_M:
        raise ValueError(f"full X_alpha table infeasible beyond m={X_ALPHA_MAX_M}")
    bits = truth_table(ctx, g)
    q = ctx.q
    lanes = min(q, 64)  # fields with q < 64 fill one partial word
    idx = np.arange(q)
    words = pack_bits(bits)
    perm = np.stack([pack_bits(bits[idx ^ lo]) for lo in range(lanes)])  # perm[lo] packs f(x+lo)
    # mism[hi, lo] = sum_j popcount(words[j ^ hi] ^ perm[lo][j]) for alpha = 64*hi + lo,
    # in blocks of (hi, lo, j) of at most BATCH words
    n_words = len(words)
    w = np.arange(n_words)
    lo_step = max(1, min(lanes, BATCH // n_words))
    hi_step = max(1, BATCH // (lo_step * n_words))
    mism = np.empty((n_words, lanes), dtype=np.int64)
    for hi in range(0, n_words, hi_step):
        moved = words[w[hi:hi + hi_step, None] ^ w][:, None, :]
        for lo in range(0, lanes, lo_step):
            mism[hi:hi + hi_step, lo:lo + lo_step] = popcount(moved ^ perm[lo:lo + lo_step])
    signed = q - 2 * mism.ravel()
    signed[0] = 0
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
