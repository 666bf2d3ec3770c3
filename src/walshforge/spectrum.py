"""Walsh transform of a truth table, spectral norms, and their sanity checks.

The transform, an int32 array of length q = 2^m, pairs points with the
coordinate dot product: with chi(x) = (-1)^bits[x],

    spec[v] = sum_x chi(x) * (-1)^parity(v & x).

The trace pairing Tr(v*x) differs from parity(v & x) by a linear change of
basis that only permutes the index v, so every norm is the same under either
convention (asserted by a test, not assumed).
"""

from __future__ import annotations

import numpy as np


def _row_butterflies(a: np.ndarray) -> None:
    """Walsh butterflies, in place, over the row-index bits of a C-contiguous
    2-D array: each stage adds and subtracts whole runs of rows."""
    rows, width = a.shape
    h = 1
    while h < rows:
        pairs = a.reshape(-1, 2, h * width)
        left, right = pairs[:, 0], pairs[:, 1]
        left += right  # l + r
        right *= -2
        right += left  # l + r - 2r = l - r
        h *= 2


def fwht(table: np.ndarray) -> np.ndarray:
    """Butterfly transform of a 0/1 truth table, O(q log q): the int32 spectrum.

    Two passes over a 2-D int32 array of the signs (-1)^bits[x], so that every
    stage works on contiguous runs of at least 2^(m//2) elements.  The table
    is read transposed, as (2^(m//2), 2^(m - m//2)), and the butterflies run
    over its row bits (the low m//2 bits of x).  It is transposed back to
    (2^(m - m//2), 2^(m//2)) and the butterflies run over its row bits again
    (the high bits of x).  After k stages each entry is a signed sum of 2^k
    signs, and the ``-2 * right`` step doubles a sum of at most q/2, so no
    value passes q <= 2^20 and int32 is exact.  Widen before squaring.
    """
    q = len(table)
    m = q.bit_length() - 1
    if q < 1 or (1 << m) != q:
        raise ValueError(f"table length {q} is not a power of two")
    low = m // 2
    a = np.ascontiguousarray(table.reshape(1 << (m - low), 1 << low).T, dtype=np.int32)
    a *= -2
    a += 1
    _row_butterflies(a)
    a = np.ascontiguousarray(a.T)
    _row_butterflies(a)
    return a.reshape(q)


def linf(spec: np.ndarray) -> int:
    return int(np.abs(spec).max())


def l4_fourth(spec: np.ndarray) -> int:
    """(1/q) * sum of spec^4, exact.

    The sum can pass int64 (it reaches q^4), so it is taken in Python ints
    over the few distinct amplitudes, weighted by how often each occurs.
    """
    q = len(spec)
    counts = np.bincount(np.abs(spec))
    total = sum(int(k) ** 4 * int(counts[k]) for k in np.flatnonzero(counts))
    if total % q:
        raise AssertionError("sum of fourth powers not divisible by q")
    return total // q


def nonlinearity(spec: np.ndarray, lv: int | None = None) -> int:
    """2^(m-1) - linf/2; pass ``lv`` when ``linf(spec)`` is already known."""
    return len(spec) // 2 - (linf(spec) if lv is None else lv) // 2


def parseval_sum(spec: np.ndarray) -> int:
    """sum of spec^2, which Parseval fixes at q^2.

    |spec| <= q, so the sum is at most q^3: exact once widened to int64
    (through m = 20), where an int32 square would overflow from m = 16.
    """
    v = spec.astype(np.int64)
    return int(np.dot(v, v))


def parseval_ok(spec: np.ndarray) -> bool:
    return parseval_sum(spec) == len(spec) ** 2


def divisibility_check(spec: np.ndarray, d: int) -> dict:
    """Whether 2^ceil(m/d) divides the max amplitude.

    Per-value divisibility over the whole spectrum is reported as
    informational only (``all_values_divisible``); the contract is about the
    max amplitude.
    """
    if d < 1:
        raise ValueError("binary degree d must be >= 1")
    m = len(spec).bit_length() - 1
    divisor = 1 << (-(-m // d))
    lv = linf(spec)
    return {
        "divisor": divisor,
        "linf": lv,
        "divides": lv % divisor == 0,
        "all_values_divisible": bool((spec % divisor == 0).all()),
    }
