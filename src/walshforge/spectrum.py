"""Walsh transform of a truth table, and the norms read from its amplitude histogram.

The transform, a float32 array of length q = 2^m, pairs points with the
coordinate dot product: with chi(x) = (-1)^bits[x],

    spec[v] = sum_x chi(x) * (-1)^parity(v & x).

The trace pairing Tr(v*x) differs from parity(v & x) by a linear change of
basis that only permutes the index v, so every norm is the same under either
convention (asserted by a test, not assumed).

``fwht`` computes it as r <= ceil(m/5) float32 matrix products with cached
Sylvester factors of order at most 32, exact for q <= 2^24 (see its
docstring).  Each product runs in blocks, every sgemm of at most
``GEMM_MACS`` = 2^18 multiply-adds: OpenBLAS runs a gemm that small on the
calling thread (its rule is m*n*k <= SMP_THRESHOLD_MIN *
GEMM_MULTITHREAD_THRESHOLD = 65536 * 4), so the transform never wakes a BLAS
worker, whose busy-wait after each product would take a second CPU for no
gain.

Every norm depends on the spectrum only through its amplitude histogram
counts[k] = #{v : |spec[v]| = k}, k in 0..linf: linf is its last index, q
its sum, nl = q/2 - linf/2, and f is bent iff its one nonzero amplitude is
2^(m/2).  ``amplitude_counts`` takes it by sorting |spec| in place, and each
norm takes that int64 histogram and refuses a spectrum with ValueError.  The
sums that can pass int64 are Python ints over its few nonzero entries:

    sigma4 = l4_fourth(amplitude_counts(fwht(table))) = q^2 + sum_alpha X_alpha
"""

from __future__ import annotations

from functools import cache

import numpy as np


MAX_FACTOR_BITS = 5  # H_32 factors measured fastest at m = 13, 15 and 17
MAX_TABLE_LEN = 1 << 24  # float32 holds every integer of magnitude <= 2^24
GEMM_MACS = 1 << 18  # the largest sgemm OpenBLAS keeps on the calling thread


@cache
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester matrix, H[u, x] = (-1)^parity(u & x), float32,
    read-only since every call shares it."""
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


@cache
def _factor_bits(m: int) -> tuple[int, ...]:
    """Split m bits into the fewest blocks of at most MAX_FACTOR_BITS, as
    equal as possible, larger first: 15 -> (5, 5, 5), 17 -> (5, 4, 4, 4)."""
    r = max(1, -(-m // MAX_FACTOR_BITS))
    base, extra = divmod(m, r)
    return (base + 1,) * extra + (base,) * (r - extra)


def _sgemm(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y over stacked matrices, one sgemm of x.shape[-2] * x.shape[-1] *
    y.shape[-1] multiply-adds per pair: every product ``fwht`` makes."""
    return np.matmul(x, y, out=out)


def fwht(table: np.ndarray) -> np.ndarray:
    """Walsh transform of a 0/1 truth table as exact float32: a fresh
    C-contiguous array the caller owns (:func:`amplitude_counts` sorts it in
    place).

    The Walsh matrix of order q = 2^m is the Kronecker product of small
    Sylvester matrices H_{2^k1} x ... x H_{2^kr} with k1 + ... + kr = m and
    every k_i <= MAX_FACTOR_BITS, because (-1)^parity(v & x) factors over any
    split of the bits of v and x into blocks.  So the signs (-1)^bits[x] are
    viewed as a tensor of shape (2^k1, ..., 2^kr), high bits of x first, and
    each axis is multiplied by its cached float32 H: the last axis as
    ``(rows, 2^kr) @ H``, each leading axis as ``H @ (2^k, tail)`` for every
    index above it.

    Every sgemm does at most GEMM_MACS = 2^18 multiply-adds, the largest
    product OpenBLAS runs on the calling thread; a larger one wakes its worker
    threads, which then busy-wait for the next product, so the transform would
    take twice the CPU (one product per axis passes 2^18 from m = 14).  The
    last axis is stacked in blocks of at most 2^18 / 4^kr rows.  A leading
    axis whose tail passes 2^18 / 4^k columns is cut along its tail into
    blocks of that many columns, read through a transposed view and written
    through one into a buffer already in the final layout, so no copy
    follows; a shorter tail is one product per index above the axis, as it
    lands.

    The float32 result is exact.  After the axes multiplied so far cover K
    bits, every entry is an integer sum of 2^K signs, and each partial sum
    that sgemm forms while multiplying the next axis (k bits) is a sum of at
    most 2^k such entries times +-1: an integer of magnitude at most
    2^(K + k) <= 2^m.  Every integer of magnitude <= 2^24 is a float32, so for
    q <= 2^24 no rounding happens whatever the summation order, blocking or
    FMA use; longer tables are refused before any work.  Widen before squaring.
    """
    q = len(table)
    m = q.bit_length() - 1
    if q < 1 or (1 << m) != q:
        raise ValueError(f"table length {q} is not a power of two")
    if q > MAX_TABLE_LEN:
        raise ValueError(f"table length {q} above 2^24, where float32 sums stop being exact")
    ks = _factor_bits(m)
    a = table.astype(np.float32)
    a *= -2
    a += 1  # (-1)^bits
    k = ks[-1]
    a = _sgemm(a.reshape(-1, min(q >> k, GEMM_MACS >> 2 * k), 1 << k), _hadamard(k))
    lead, tail = 1, q
    for k in ks[:-1]:
        tail >>= k
        cols = GEMM_MACS >> 2 * k
        if tail <= cols:
            a = _sgemm(_hadamard(k), a.reshape(lead, 1 << k, tail))
        else:  # viewed as (lead, 2^k, blocks, cols); each block's product lands in place
            shape = (lead, 1 << k, tail // cols, cols)
            out = np.empty(shape, np.float32)
            _sgemm(_hadamard(k), a.reshape(shape).transpose(0, 2, 1, 3),
                   out.transpose(0, 2, 1, 3))
            a = out
        lead <<= k
    return a.reshape(q)


def amplitude_counts(spec: np.ndarray) -> np.ndarray:
    """The histogram ``np.bincount(np.abs(spec))``, with no int64 copy: |spec|
    is sorted in place, so ``spec`` then holds the sorted amplitudes, and each
    run of equal amplitudes (a few in this family) is one binary search."""
    a = np.abs(spec, out=spec)
    a.sort()
    counts = np.zeros(int(a[-1]) + 1 if a.size else 0, dtype=np.int64)
    start = 0
    while start < a.size:
        end = int(a.searchsorted(a[start], "right"))
        counts[int(a[start])] = end - start
        start = end
    return counts


def _histogram(counts: np.ndarray) -> np.ndarray:
    """``counts`` if it reads as an amplitude histogram, 1-d int64 with a
    nonzero last entry (at linf); a float32 or int32 spectrum is refused."""
    if not (isinstance(counts, np.ndarray) and counts.dtype == np.int64
            and counts.ndim == 1 and counts.size and counts[-1] > 0):
        raise ValueError("a spectral norm takes the int64 histogram of amplitude_counts, "
                         "not a spectrum")
    return counts


def linf(counts: np.ndarray) -> int:
    return len(_histogram(counts)) - 1


def _power_sum(counts: np.ndarray, p: int) -> int:
    """sum of |spec|^p in Python ints over the few distinct amplitudes, weighted
    by how often each occurs: exact at any size.  The nonzero amplitudes and
    their counts are read once, as Python ints."""
    amps = np.flatnonzero(_histogram(counts))
    return sum(k ** p * n for k, n in zip(amps.tolist(), counts[amps].tolist()))


def l4_fourth(counts: np.ndarray) -> int:
    """(1/q) * sum of spec^4, exact (the sum reaches q^4, past int64)."""
    total = _power_sum(counts, 4)
    q = int(counts.sum())
    if total % q:
        raise AssertionError("sum of fourth powers not divisible by q")
    return total // q


def nonlinearity(counts: np.ndarray) -> int:
    """2^(m-1) - linf/2."""
    lv = linf(counts)
    return int(counts.sum()) // 2 - lv // 2


def parseval_sum(counts: np.ndarray) -> int:
    """sum of spec^2, which Parseval fixes at q^2; exact, though amplitudes up
    to q reach q^3, past int64 from m = 21."""
    return _power_sum(counts, 2)


def parseval_ok(counts: np.ndarray) -> bool:
    return parseval_sum(counts) == int(counts.sum()) ** 2


def divisibility_check(counts: np.ndarray, d: int) -> dict:
    """Whether 2^ceil(m/d) divides the max amplitude.

    Per-value divisibility over the whole spectrum is reported as
    informational only (``all_values_divisible``); the contract is about the
    max amplitude.
    """
    if d < 1:
        raise ValueError("binary degree d must be >= 1")
    lv = linf(counts)
    q = int(counts.sum())
    divisor = 1 << (-(-(q.bit_length() - 1) // d))
    return {
        "divisor": divisor,
        "linf": lv,
        "divides": lv % divisor == 0,
        # every amplitude is a multiple iff those entries hold all q of them
        "all_values_divisible": int(counts[::divisor].sum()) == q,
    }
