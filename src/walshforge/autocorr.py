"""Directional autocorrelation sums X_alpha — the second route to sigma4.

X_alpha = (sum_x (-1)^(Tr(G(x) + G(x+alpha))))^2.  The sums here are direct
counts over the truth table, never through the Walsh transform, so that

    q^2 + sum_alpha X_alpha = l4_fourth(amplitude_counts(fwht(table)))

stays a genuine cross-check between two independent computation paths.  The
input is f's truth table, the output an int64 array indexed by alpha in
[0, q), entry 0 set to 0.

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

The hi rows of one top bit t, h = 2^t <= hi < 2h, run in blocks of
``TILE`` words or fewer (one row if a row alone holds more), all in one
uint64 tile: block row i, lane lo, holds perm[lo][j] ^ words[j ^ (hi + i)]
over the counted words j.  The first block of each h fills the tile; each
later block XORs into it, in place, only the change of the moved words since
the previous block, as XOR is its own inverse.  The bit counts of a block go
to one uint8 buffer and are summed along each row in uint32, straight into
the int64 count rows; the closing arithmetic runs in place on the counts.
"""

from __future__ import annotations

import numpy as np

from .field import BATCH, FieldCtx, pack_bits, popcount

X_ALPHA_MAX_M = 19  # the full table costs about q^2 / 128 word XOR-and-popcounts
TILE = 4 * BATCH  # uint64 words of the block tile: 256 KB, which stays in L2
# (shift 2^b, the bits k whose bit b is clear) of the delta-swap b
_SWAPS = [(np.uint64(1 << b), np.uint64((1 << 64) // ((1 << (1 << b)) + 1))) for b in range(6)]


def x_alpha_all(ctx: FieldCtx, bits: np.ndarray) -> np.ndarray:
    """The X_alpha table of the truth table ``bits``, which it only reads; about
    q^2 / 128 word operations in blocks of whole 64-lane hi rows, each block
    counted in one in-place tile of at most ``TILE`` words, or one row if a
    row holds more."""
    if ctx.m > X_ALPHA_MAX_M:
        raise ValueError(f"full X_alpha table infeasible beyond m={X_ALPHA_MAX_M}")
    q = ctx.q
    lanes = min(q, 64)  # fields with q < 64 fill one partial word
    words = pack_bits(bits)
    n_words = len(words)
    # perm[lo] packs f(x + lo); perm[s + r] is perm[r] delta-swapped by s = 2^b
    perm = np.empty((lanes, n_words), dtype=np.uint64)
    perm[0] = words
    for s, mask in _SWAPS[:lanes.bit_length() - 1]:
        swapped = perm[s:2 * s]
        np.bitwise_and(perm[:s], mask, out=swapped)
        swapped <<= s
        swapped |= (perm[:s] >> s) & mask
    # mism[hi, lo] = sum_j popcount(words[j ^ hi] ^ perm[lo][j]) for
    # alpha = 64*hi + lo; for hi in [h, 2h) only the words j with j & h = 0
    # are counted, and the count doubled at the end
    mism = np.empty((n_words, lanes), dtype=np.int64)
    mism[0] = popcount(words ^ perm)
    half = (n_words + 1) // 2  # the words j with j & h = 0, for every h
    block = min(half, max(1, TILE // (lanes * half)))  # hi rows per block; h <= half
    tile_buf = np.empty(block * lanes * half, dtype=np.uint64)
    count_buf = np.empty(block * lanes * half, dtype=np.uint8)
    w = np.arange(n_words)
    for h in (1 << t for t in range(n_words.bit_length() - 1)):
        j = w.reshape(-1, 2, h)[:, 0].ravel()
        rows = min(h, block)  # every block of a group but its last is full
        tile, count = (buf[:rows * lanes * half].reshape(rows, lanes, half)
                       for buf in (tile_buf, count_buf))
        for hi in range(h, 2 * h, rows):
            r = min(rows, 2 * h - hi)
            moved = words[np.arange(hi, hi + r)[:, None, None] ^ j]  # broadcast over the lanes
            if hi == h:  # perm[lo][j] into the first row; "clip" (j is in range) buffers nothing
                np.take(perm, j, axis=1, out=tile[0], mode="clip")
                np.bitwise_xor(tile[0], moved[1:], out=tile[1:])
                tile[0] ^= moved[0]
            else:  # the change of the moved words since the previous block
                last[:r] ^= moved
                tile[:r] ^= last[:r]
            last = moved
            np.bitwise_count(tile[:r], out=count[:r])
            count[:r].sum(axis=-1, dtype=np.uint32, out=mism[hi:hi + r])
    # X_alpha = (q - 2 * mism)^2 in place, the hi >= 1 counts doubled
    mism[0] *= -2
    mism[1:] *= -4
    mism += q
    mism[0, 0] = 0
    np.multiply(mism, mism, out=mism)
    return mism.ravel()


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
