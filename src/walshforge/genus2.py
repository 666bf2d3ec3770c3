"""Supersingular genus-2 machinery for curves y^2 + y = a x^5 + b x^3 + c x + d.

The quadratic form Q(x) = Tr(x R(x)) with R = a x^4 + b x^2 + c^2 x has a
radical W equal to the kernel in the field of the linearized polynomial

    E_{a,b}(x) = a^4 x^16 + b^4 x^8 + b^2 x^2 + a x = x P(x) (1 + x^5 P(x)),
    P(x) = a^2 x^5 + b^2 x + a.

With w = dim W, the point count over GF(2^m) is 1 + q when Q does not vanish
on all of W, and 1 + q +- sqrt(2^w q) otherwise; w == m (mod 2).  For curves
in a = b normal form the Maisner-Nart criterion reads w off the trace of
ell = (1 + z^-4)^(1/3) at a root z of P; that second route to w, with the
rescaling to a = b form, is a test oracle in ``tests/oracles.py``.

``classify_curves`` and ``count_points_all`` do the radical, the predicted
counts and the point count for a whole array of curves at once; the
one-curve ``radical``, ``classify`` and ``count_points`` are their test
oracles (``count_points`` also counts the one curve of ``walshforge curve``).
``classify_curves`` builds the rows E(e_j) << m | e_j of a block of curves
from log a and log b, gathered once per block, and finds W by inserting them
one at a time into a basis kept by leading bit, one ``min(v, v ^ slot)`` per
step; Q is evaluated on the kernel rows alone.  Like ``e_poly`` it refuses
a = 0.
``count_points_all`` still counts every x, but 64 x to a uint64 word: over
x = g^i the trace of each monomial is a cyclic shift of a decimated
m-sequence read from the cached trace table, so a curve's row of traces is
an XOR of three packed word slices, counted by popcount.  It never calls
the radical classifier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import BATCH, FieldCtx, pack_bits, popcount


@dataclass(frozen=True)
class QuinticCurve:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("degenerate curve: coefficient a of x^5 must be nonzero")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("coefficients must be field elements (nonnegative bitmasks)")


@dataclass
class SymplecticData:
    w: int
    W_basis: list[int]
    Q_on_basis: list[int]
    V_equals_W: bool
    predicted_counts: set[int] | None = None


def q_form(ctx: FieldCtx, curve: QuinticCurve, x: int) -> int:
    """Tr(x * (a x^4 + b x^2 + c^2 x)); equals Tr(a x^5 + b x^3 + c x)."""
    r = ctx.mul(curve.a, ctx.pow(x, 4)) ^ ctx.mul(curve.b, ctx.pow(x, 2)) \
        ^ ctx.mul(ctx.mul(curve.c, curve.c), x)
    return ctx.trace(ctx.mul(x, r))


def e_poly(ctx: FieldCtx, a: int, b: int, x: int) -> int:
    if a == 0:
        raise ValueError("e_poly requires a != 0")
    return (ctx.mul(ctx.pow(a, 4), ctx.pow(x, 16))
            ^ ctx.mul(ctx.pow(b, 4), ctx.pow(x, 8))
            ^ ctx.mul(ctx.pow(b, 2), ctx.pow(x, 2))
            ^ ctx.mul(a, x))


def radical(ctx: FieldCtx, curve: QuinticCurve) -> SymplecticData:
    """Kernel of x -> E_{a,b}(x) as GF(2)-linear map, plus Q on a kernel basis."""
    piv: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j in range(ctx.m):
        v, comb = e_poly(ctx, curve.a, curve.b, 1 << j), 1 << j
        while v:
            h = v.bit_length() - 1
            if h not in piv:
                piv[h] = (v, comb)
                break
            pv, pc = piv[h]
            v ^= pv
            comb ^= pc
        else:
            kernel.append(comb)
    qb = [q_form(ctx, curve, e) for e in kernel]
    return SymplecticData(w=len(kernel), W_basis=kernel, Q_on_basis=qb,
                          V_equals_W=all(v == 0 for v in qb))


def classify(ctx: FieldCtx, curve: QuinticCurve) -> SymplecticData:
    """Radical data plus the set of point counts the classification allows."""
    data = radical(ctx, curve)
    if not data.V_equals_W:
        data.predicted_counts = {1 + ctx.q}
    else:
        r = math.isqrt((1 << data.w) * ctx.q)
        if r * r != (1 << data.w) * ctx.q:
            raise AssertionError(f"2^w*q not a square: w={data.w}, m={ctx.m}")
        data.predicted_counts = {1 + ctx.q - r, 1 + ctx.q + r}
    return data


def count_points(ctx: FieldCtx, curve: QuinticCurve) -> int:
    """1 + 2 * #{x : Tr(a x^5 + b x^3 + c x + d) = 0} by direct enumeration:
    two affine points over each such x, one point at infinity."""
    ones = int(np.count_nonzero(
        ctx.trace_row([(curve.a, 5), (curve.b, 3), (curve.c, 1)])))
    # a trace-1 d flips every x
    return 2 * (ctx.q - ones if ctx.trace(curve.d) == 0 else ones) + 1


@dataclass
class CurveArrays:
    """Per-curve :class:`SymplecticData` verdicts as arrays: the allowed
    counts are 1 + q +- radius (radius 0 when Q does not vanish on W)."""
    w: np.ndarray
    V_equals_W: np.ndarray
    radius: np.ndarray


def classify_curves(ctx: FieldCtx, a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> CurveArrays:
    """:func:`classify` for the curves (a[k], b[k], c[k], .) at once; every
    a[k] must be nonzero.

    The rows E(e_j) << m | e_j (e_j = 2^j; the low half tracks which basis
    combination a row is) of a block of curves are an (m, k) array.  Each
    term of E is one antilog gather at log(a) or log(b), read once per
    block, plus the log of e_j^16, e_j^8, e_j^2 or e_j; the b terms are
    masked where b = 0.  The rows are inserted one at a time into
    ``slots``: slots[h] is the basis row led by bit m+h, 0 while empty.  For
    h from m-1 down to 0, ``min(v, v ^ slots[h])`` clears bit m+h of v where
    it is set and the slot is filled; the reduced row then fills the slot of
    its leading bit.  Rows whose E half clears (they go to the scratch slot
    m) are a basis of W, and w counts them per curve.  Q is linear on W, so
    it vanishes on W iff it vanishes on that basis; Q(v) = Tr(a v^5) +
    Tr(b v^3) + Tr(c v), as Tr(c^2 v^2) = Tr(c v), is evaluated on the
    kernel rows alone.
    """
    if np.count_nonzero(a == 0):
        raise ValueError("degenerate curve: coefficient a of x^5 must be nonzero")
    m, n = ctx.m, ctx.q - 1
    basis = np.int64(1) << np.arange(m, dtype=np.int64)[:, None]
    l1 = ctx.vlog(basis)
    l16, l8, l2 = (l1 * e % n for e in (16, 8, 2))
    lead = np.full(ctx.q, m, dtype=np.int64)  # leading bit of an E half; 0 -> scratch slot m
    for h in range(m):
        lead[1 << h:2 << h] = h
    w = np.empty(len(a), dtype=np.int64)
    vanishes = np.empty(len(a), dtype=bool)
    step = max(1, BATCH // m)
    for lo in range(0, len(a), step):
        sl = slice(lo, lo + step)
        ak, bk, ck = a[sl], b[sl], c[sl]
        la, lb = ctx.vlog(ak), ctx.vlog(np.where(bk == 0, 1, bk))
        rows = ctx.vexp(lb * 4 % n + l8) ^ ctx.vexp(lb * 2 % n + l2)  # b^4 e^8 + b^2 e^2
        rows *= bk != 0
        rows ^= ctx.vexp(la * 4 % n + l16)
        rows ^= ctx.vexp(la + l1)
        rows <<= m
        rows |= basis
        slots = np.zeros((m + 1, len(ak)), dtype=np.int64)
        cols, flip = np.arange(len(ak)), np.empty(len(ak), dtype=np.int64)
        for row in rows:  # reduced in place
            for h in range(m - 1, -1, -1):
                np.bitwise_xor(row, slots[h], out=flip)
                np.minimum(row, flip, out=row)
            slots[lead[row >> m], cols] = row
        j, k = np.nonzero(rows < ctx.q)  # the kernel rows, and their curves
        v = rows[j, k]
        qv = (ctx.vtrace_term(ak[k], v, 5) ^ ctx.vtrace_term(bk[k], v, 3)
              ^ ctx.vtrace_term(ck[k], v, 1))
        w[sl] = np.bincount(k, minlength=len(ak))
        vanishes[sl] = np.bincount(k[qv == 1], minlength=len(ak)) == 0
    if np.count_nonzero((w[vanishes] + m) % 2):
        bad = int(w[vanishes][(w[vanishes] + m) % 2 == 1][0])
        raise AssertionError(f"2^w*q not a square: w={bad}, m={m}")
    radius = np.where(vanishes, np.int64(1) << ((w + m) // 2), 0)
    return CurveArrays(w=w, V_equals_W=vanishes, radius=radius)


def count_points_all(ctx: FieldCtx, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """:func:`count_points` for the curves (a[k], b[k], c[k], d[k]) at once,
    by direct enumeration of every x.

    Write x = g^i (i < q - 1) for the table generator g.  With l = log(coef)
    and k = gcd(e, q - 1), Tr(coef * x^e) = Tr(g^(l + e*i)) is the sequence
    u[i] = Tr(g^(r + e*i)), r = l mod k, read from a shift with
    e*shift = l - r (mod q - 1).  Each u is gathered from the context's
    cached trace table ``exp_trace`` of Tr(g^n), and its 64 windows starting
    at bits 0 .. 63 are packed at once, so the row of a term over all x != 0
    is one word slice, and a curve's row is the XOR of three slices.  The
    rows are gathered for blocks of curves of at most ``BATCH`` words and
    counted by popcount.  The offset tables hold 2 * 64 words per 64 x for
    each sequence, 8 MB at m = 17.
    """
    n = ctx.q - 1
    n_words = -(-n // 64)
    width = 2 * n_words - 1  # words in one offset table: room for a shift of up to n - 1
    i = np.arange(64 * (width + 1), dtype=np.int64)
    seqs = [np.zeros(len(i), dtype=np.uint8)]  # sequence 0: the row of a zero coefficient
    starts = []  # first word of each curve's a, b and c row in the flat tables
    for coef, e in ((a, 5), (b, 3), (c, 1)):
        k = math.gcd(e, n)
        logs = ctx.vlog(np.where(coef == 0, 1, coef))
        shift = (logs // k) * pow(e // k, -1, n // k) % (n // k)
        seq = np.where(coef == 0, 0, len(seqs) + logs % k)
        starts.append((seq * 64 + shift % 64) * width + shift // 64)
        seqs += [ctx.exp_trace[(r + e * i) % n] for r in range(k)]
    # word j of offset table o holds bits 64*j + o .. 64*j + o + 63 of its sequence
    tables = pack_bits(sliding_window_view(np.stack(seqs), 64 * width, axis=-1)[:, :64])
    # slices[s] is the n_words-word slice starting at word s of the flat tables
    slices = sliding_window_view(tables.reshape(-1), n_words)
    last = np.uint64((1 << (n % 64)) - 1)  # bits past i = q - 2 are padding
    ones = np.empty(len(a), dtype=np.int64)  # x != 0 with Tr(a x^5 + b x^3 + c x) = 1
    step = max(1, BATCH // n_words)
    for lo in range(0, len(a), step):
        rows = slices[starts[0][lo:lo + step]]
        for s in starts[1:]:
            rows ^= slices[s[lo:lo + step]]
        rows[:, -1] &= last
        ones[lo:lo + step] = popcount(rows)
    # x = 0 contributes Tr(d); a trace-1 d flips every other x
    zeros = np.where(ctx.trace_bits(d) == 0, n - ones + 1, ones)
    return 2 * zeros + 1


# ---------------------------------------------------------------------------
# JSON form: {"a":"0x..","b":"0x..","c":"0x..","d":"0x.."}

def curve_to_dict(curve: QuinticCurve) -> dict:
    return {k: hex(getattr(curve, k)) for k in ("a", "b", "c", "d")}


def curve_from_json(text: str) -> QuinticCurve:
    try:
        obj = json.loads(text)
        return QuinticCurve(*(int(obj[k], 16) for k in ("a", "b", "c", "d")))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed curve JSON: {exc}") from exc
