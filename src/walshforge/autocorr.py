"""Directional autocorrelation sums X_alpha — the second route to sigma4.

X_alpha = (sum_x (-1)^(Tr(G(x) + G(x+alpha))))^2.  The sums here are direct
counts over the truth table, never through the Walsh transform, so that
q^2 + sum_alpha X_alpha = l4_fourth(fwht(table)) stays a genuine cross-check
between two independent computation paths.  The table is an int64 array
indexed by alpha in [0, q), entry 0 set to 0.

``x_alpha_all`` counts the mismatches of f(x) and f(x + alpha) for every
alpha on the truth table packed 64 x to a uint64 word.  With
alpha = 64*hi + lo, x -> x + alpha moves word j to word j ^ hi and permutes
the bits inside a word by k -> k ^ lo, so one table of the 64 in-word
permutations of the packed truth table (q words in all) turns every alpha
into an XOR and popcount over q/64 words.  The table is built by
delta-swaps: the permutation for lo = 2^b + r is the one for r with bits
k and k ^ 2^b of every word exchanged, two masks and two shifts per word.

The summand f(x) + f(x + alpha) is the same at x and x + alpha, so every
pair of words {j, j ^ hi} contributes twice the same count.  For hi >= 1
only the words j whose bit t is clear, t the top bit of hi, are counted and
the sum doubled, which halves the sweep; exactly one word of each pair has
bit t clear.  The hi = 0 row (alpha < 64) pairs bits inside one word and is
counted in full.
"""

from __future__ import annotations

import numpy as np

from .boolfn import TracePoly, truth_table
from .field import BATCH, FieldCtx, pack_bits, popcount

X_ALPHA_MAX_M = 17  # the full table costs about q^2 / 128 word XOR-and-popcounts


def x_alpha_all(ctx: FieldCtx, g: TracePoly) -> np.ndarray:
    """The X_alpha table; about q^2 / 128 word operations, in blocks of whole
    64-lane hi rows of at most ``BATCH`` words, or one row if it holds more."""
    if ctx.m > X_ALPHA_MAX_M:
        raise ValueError(f"full X_alpha table infeasible beyond m={X_ALPHA_MAX_M}")
    q = ctx.q
    lanes = min(q, 64)  # fields with q < 64 fill one partial word
    words = pack_bits(truth_table(ctx, g))
    n_words = len(words)
    # perm[lo] packs f(x + lo); perm[s + r] is perm[r] delta-swapped by s = 2^b
    perm = np.empty((lanes, n_words), dtype=np.uint64)
    perm[0] = words
    for b in range(lanes.bit_length() - 1):
        s = 1 << b
        mask = (1 << 64) // ((1 << s) + 1)  # the bits k whose bit b is clear
        perm[s:2 * s] = ((perm[:s] & mask) << s) | ((perm[:s] >> s) & mask)
    # mism[hi, lo] = sum_j popcount(words[j ^ hi] ^ perm[lo][j]) for
    # alpha = 64*hi + lo; for hi in [h, 2h) only the words j with j & h = 0
    # are counted, and the count doubled
    mism = np.empty((n_words, lanes), dtype=np.int64)
    mism[0] = popcount(words ^ perm)
    w = np.arange(n_words)
    for h in (1 << t for t in range(n_words.bit_length() - 1)):
        j = w.reshape(-1, 2, h)[:, 0]
        perm_j = perm.reshape(lanes, -1, 2, h)[:, :, 0]
        step = max(1, BATCH // perm_j.size)  # hi rows per block
        for hi in range(h, 2 * h, step):
            moved = words[np.arange(hi, min(hi + step, 2 * h))[:, None, None] ^ j]
            diff = moved[:, None] ^ perm_j  # (hi, lo, *j.shape)
            mism[hi:hi + len(moved)] = 2 * popcount(diff.reshape(len(moved), lanes, -1))
    signed = q - 2 * mism.ravel()
    signed[0] = 0
    return signed * signed


def sigma_autocorr(table: np.ndarray) -> int:
    """q^2 + sum of X_alpha — must equal the spectral sigma4 exactly."""
    return len(table) ** 2 + int(table[1:].sum())


def sigma_decomposition(table: np.ndarray) -> dict:
    """Counts N0 = #{X=2q}, N = #{X=8q}, Z = #{X=0}.

    Any entry outside {0, 2q, 8q} means an even m, a7 = 0, or a bug, and is
    reported with the offending alpha.
    """
    q = len(table)
    x = table[1:]
    z, n0, n = (int(np.count_nonzero(x == v)) for v in (0, 2 * q, 8 * q))
    if z + n0 + n < q - 1:
        alpha = 1 + int(np.flatnonzero((x != 0) & (x != 2 * q) & (x != 8 * q))[0])
        raise ValueError(
            f"X_alpha={int(x[alpha - 1])} at alpha={alpha:#x} outside {{0, {2*q}, {8*q}}}: "
            "trichotomy violated (even m, a7 = 0, or implementation bug)")
    return {"N0": n0, "N": n, "Z": z}
