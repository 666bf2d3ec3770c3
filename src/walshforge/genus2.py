"""Supersingular genus-2 machinery for curves y^2 + y = a x^5 + b x^3 + c x + d.

The quadratic form Q(x) = Tr(x R(x)) with R = a x^4 + b x^2 + c^2 x has a
radical W (van der Geer and van der Vlugt, Compositio Math. 84, 1992, treat
these forms) equal to the kernel in the field of the linearized polynomial

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
Scaling x by lam maps one radical onto another: Q_{a,b,c}(lam x) =
Q_{a lam^5, b lam^3, c lam}(x), so w and whether Q vanishes on W do not
change.  When gcd(5, q - 1) = 1, that is when 4 does not divide m,
lam = a^(-1/5) brings every curve to the normal form (1, u, c'), and
``classify_curves`` reads its radical from one table over u, built once per
context: w, the ``dual`` masks of a kernel basis of E_{1,u} and Q_{1,u,0} on
that basis; Q_{1,u,c'} = Q_{1,u,0} + Tr(c' x) then vanishes on W iff
parity(dual(v) & c') = Q_{1,u,0}(v) on every basis vector v.  When 4 | m,
x^5 is not a bijection, and the curves themselves are eliminated.  One
elimination finds every radical, the table's and the 4 | m curves': it
builds the rows E(e_j) << m | e_j of a block of curves from log a and
log b, gathered once per block, and inserts them one at a time into a basis
kept by leading bit, one ``min(v, v ^ slot)`` per step.  Like ``e_poly``
``classify_curves`` refuses a = 0.
``count_points_all`` still counts every x, but 64 x to a uint64 word: over
x = g^i the trace of each monomial is a cyclic shift of a decimated
m-sequence Tr(g^n), packed once per context with the first word of every
coefficient's row of each term, so a curve's row of traces is an XOR of
three packed word slices, counted by popcount.  Its starts are read at the
raw (a, b, c), with no normal form: it never calls the radical classifier,
so the count stays independent of it.  Both tables are entries of the
context's one store, ``FieldCtx.table``: ``"genus2.radicals"`` is (w, dual,
q0) and ``"genus2.sequences"`` is (tables, starts).
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


def _kernel_basis(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, v): every vector v of a basis of the kernel of E_{a[k], b[k]}, in
    order of k; every a[k] must be nonzero.  This elimination is the one
    code that finds a radical.

    The rows E(e_j) << m | e_j (e_j = 2^j; the low half tracks which basis
    combination a row is) of a block of curves are an (m, k) array.  Each
    term of E is one antilog gather at log(a) or log(b), read once per
    block, plus the log of e_j^16, e_j^8, e_j^2 or e_j; the b terms are
    masked where b = 0.  The rows are inserted one at a time into
    ``slots``: slots[h] is the basis row led by bit m+h, 0 while empty.  For
    h from m-1 down to 0, ``min(v, v ^ slots[h])`` clears bit m+h of v where
    it is set and the slot is filled; the reduced row then fills the slot of
    its leading bit.  Rows whose E half clears (they go to the scratch slot
    m) are the basis of the kernel.
    """
    m, n = ctx.m, ctx.q - 1
    basis = np.int64(1) << np.arange(m, dtype=np.int64)[:, None]
    l1 = ctx.vlog(basis)
    l16, l8, l2 = (l1 * e % n for e in (16, 8, 2))
    lead = np.full(ctx.q, m, dtype=np.int64)  # leading bit of an E half; 0 -> scratch slot m
    for h in range(m):
        lead[1 << h:2 << h] = h
    ks, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    step = max(1, BATCH // m)
    for lo in range(0, len(a), step):
        ak, bk = a[lo:lo + step], b[lo:lo + step]
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
        k, j = np.nonzero(rows.T < ctx.q)  # the kernel rows, by curve
        ks.append(k + lo)
        vs.append(rows[j, k])
    return np.concatenate(ks), np.concatenate(vs)


def _radical_table(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, dual, q0) of the curves (1, u, 0) for every u in [0, q): w[u] = dim W
    (uint8); dual[i, u] = dual(v_i), the uint32 mask with Tr(v_i y) =
    parity(dual(v_i) & y), for the kernel basis v_0 .. v_(w-1) of E_{1,u};
    q0[i, u] = Q_{1,u,0}(v_i) (uint8).  E has degree 16, so w <= 4; the
    entries past w are 0.  About 21 bytes per element."""
    k, v = _kernel_basis(ctx, np.ones(ctx.q, dtype=np.int64), np.arange(ctx.q, dtype=np.int64))
    w = np.bincount(k, minlength=ctx.q)  # curve k is (1, u = k, 0)
    i = np.arange(len(k)) - (np.cumsum(w) - w)[k]  # v's place in its curve's basis
    dual = np.zeros((4, ctx.q), dtype=np.uint32)
    dual[i, k] = ctx.dual(v)
    q0 = np.zeros((4, ctx.q), dtype=np.uint8)
    q0[i, k] = ctx.trace_bits(ctx.vterm(1, v, 5) ^ ctx.vterm(k, v, 3))
    return w.astype(np.uint8), dual, q0


def classify_curves(ctx: FieldCtx, a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> CurveArrays:
    """:func:`classify` for the curves (a[k], b[k], c[k], .) at once; every
    a[k] must be nonzero.

    Q_{a,b,c}(lam x) = Q_{a lam^5, b lam^3, c lam}(x), so x -> lam x maps the
    radical of the second form onto that of the first, and w and whether Q
    vanishes on W are the same for both.  When gcd(5, q - 1) = 1 (4 does not
    divide m), lam = a^(-1/5) brings every curve to the normal form
    (1, u, c') with u = b lam^3 and c' = c lam, and the radical is read from
    the context's table of the curves (1, u, 0) (:func:`_radical_table`,
    built once per context): w = w[u], and Q = Q_{1,u,0} + Tr(c' x) vanishes
    on W iff parity(dual[i, u] & c') = q0[i, u] for every i.  When 4 | m,
    x^5 is not a bijection, and :func:`_kernel_basis` runs on the curves
    themselves: Q is linear on W, so it vanishes on W iff it vanishes on the
    kernel basis, where Q(v) = Tr(a v^5 + b v^3 + c v), as Tr(c^2 v^2) =
    Tr(c v), is one trace of the sum of the three products.
    """
    if np.count_nonzero(a == 0):
        raise ValueError("degenerate curve: coefficient a of x^5 must be nonzero")
    m = ctx.m
    if m % 4:
        w_u, dual, q0 = ctx.table("genus2.radicals", _radical_table)
        u = ctx.vterm(b, a, (-3, 5))
        cl = ctx.vterm(c, a, (-1, 5)).astype(np.uint32)
        w = w_u[u].astype(np.int64)
        odd = np.bitwise_count(np.take(dual, u, axis=1) & cl)  # Tr(c' v_i) per row i
        odd &= 1
        vanishes = ~np.logical_or.reduce(odd != np.take(q0, u, axis=1))
    else:
        k, v = _kernel_basis(ctx, a, b)
        qv = ctx.trace_bits(ctx.vterm(a[k], v, 5) ^ ctx.vterm(b[k], v, 3)
                            ^ ctx.vterm(c[k], v, 1))
        w = np.bincount(k, minlength=len(a))
        vanishes = np.bincount(k[qv == 1], minlength=len(a)) == 0
    if np.count_nonzero((w[vanishes] + m) % 2):
        bad = int(w[vanishes][(w[vanishes] + m) % 2 == 1][0])
        raise AssertionError(f"2^w*q not a square: w={bad}, m={m}")
    radius = np.where(vanishes, np.int64(1) << ((w + m) // 2), 0)
    return CurveArrays(w=w, V_equals_W=vanishes, radius=radius)


_TERMS = (5, 3, 1)  # the exponents of Q's terms, in the order of the sequence tables


def _sequence_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """(tables, starts) of :func:`count_points_all`.  ``tables`` is the packed
    offset tables, flat: sequence 0 is zero, then for each e in ``_TERMS`` the
    k = gcd(e, q - 1) sequences Tr(g^(r + e*i)), r < k.  Word j of offset table
    o of a sequence holds its bits 64*j + o .. 64*j + o + 63; each sequence has
    64 tables of 2*ceil((q-1)/64) - 1 words (8.4 MB in all at m = 17, where
    every gcd is 1).  starts[t, coef] (int32) is the first word of the row of
    Tr(coef * g^(e*i)), e the t-th of ``_TERMS``: with l = log(coef), sequence
    r = l mod k from the shift with e*shift = l - r (mod q - 1); 0 reads zero."""
    n = ctx.q - 1
    width = 2 * -(-n // 64) - 1  # words in one offset table: room for a shift of up to n - 1
    i = np.arange(64 * (width + 1), dtype=np.int64)
    tr = ctx.trace_bits(ctx.vexp(np.arange(n)))  # Tr(g^n)
    seqs = [np.zeros(len(i), dtype=np.uint8)]
    for e in _TERMS:
        seqs += [tr[(r + e * i) % n] for r in range(math.gcd(e, n))]
    tables = pack_bits(sliding_window_view(np.stack(seqs), 64 * width, axis=-1)[:, :64])
    del i, tr, seqs  # the starts need none of them: free them first
    logs = ctx.vlog(np.arange(1, ctx.q))
    starts = np.zeros((len(_TERMS), ctx.q), dtype=np.int32)
    first = 1  # the first sequence of the term
    for t, e in enumerate(_TERMS):
        k = math.gcd(e, n)
        shift = (logs // k) * pow(e // k, -1, n // k) % (n // k)
        starts[t, 1:] = ((first + logs % k) * 64 + shift % 64) * width + shift // 64
        first += k
    return tables.reshape(-1), starts


def count_points_all(ctx: FieldCtx, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """:func:`count_points` for the curves (a[k], b[k], c[k], d[k]) at once,
    by direct enumeration of every x.

    Write x = g^i (i < q - 1) for the table generator g.  Tr(coef * x^e) over
    every i is a shift of a decimated m-sequence, and the 64 windows of each
    such sequence starting at bits 0 .. 63 are packed once per context, with
    the first word of every coefficient's row (:func:`_sequence_tables`).  So
    the row of a term over all x != 0 is one word slice, and a curve's row is
    the XOR of three slices.  The rows are gathered for blocks of curves of
    at most ``BATCH`` words and counted by popcount.
    """
    n = ctx.q - 1
    n_words = -(-n // 64)
    tables, starts = ctx.table("genus2.sequences", _sequence_tables)
    # slices[s] is the n_words-word slice starting at word s of the flat tables
    slices = sliding_window_view(tables, n_words)
    last = np.uint64((1 << (n % 64)) - 1)  # bits past i = q - 2 are padding
    ones = np.empty(len(a), dtype=np.int64)  # x != 0 with Tr(a x^5 + b x^3 + c x) = 1
    sa, sb, sc = starts[0, a], starts[1, b], starts[2, c]  # each curve's first words
    step = max(1, BATCH // n_words)
    for lo in range(0, len(a), step):
        rows = slices[sa[lo:lo + step]]
        rows ^= slices[sb[lo:lo + step]]
        rows ^= slices[sc[lo:lo + step]]
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
