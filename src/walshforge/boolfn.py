"""The coefficient family G = a7*x^7 + sum_i b_i*x^(2^i+1) and its truth tables.

``Tr(G(x))`` is a Boolean function of binary degree 3 (the exponent 7 has
three binary digits; the 2^i+1 exponents have two).  ``reduce_difference``
rewrites the directional difference G(x+alpha) + G(x) into quintic curve form
a x^5 + b x^3 + c x + d preserving the trace-zero count, which ties every
autocorrelation sum to a genus-2 point count; ``reduce_difference_all`` does
it for every alpha at once, as arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import FieldCtx, MAX_M
from .genus2 import QuinticCurve


@dataclass(frozen=True)
class TracePoly:
    """a7 != 0 plus quadratic-part coefficients b[0..s] (zeros = absent)."""
    a7: int
    b: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if self.a7 == 0:
            raise ValueError("a7 must be nonzero")
        object.__setattr__(self, "b", tuple(self.b))
        if self.a7 < 0 or any(bi < 0 for bi in self.b):
            raise ValueError("coefficients must be field elements (nonnegative bitmasks)")

    @property
    def s(self) -> int:
        return max(len(self.b) - 1, 0)

    def exponents(self) -> list[int]:
        return [7] + [(1 << i) + 1 for i, bi in enumerate(self.b) if bi]


def eval_g(ctx: FieldCtx, g: TracePoly, x: int) -> int:
    v = ctx.mul(g.a7, ctx.pow(x, 7))
    for i, bi in enumerate(g.b):
        if bi:
            v ^= ctx.mul(bi, ctx.pow(x, (1 << i) + 1))
    return v


def truth_table(ctx: FieldCtx, g: TracePoly) -> np.ndarray:
    """bits[x] = Tr(G(x)) over all x in [0, q), as uint8: one
    :meth:`FieldCtx.trace_row`, the parity of the XOR of dual(coef) & x^e
    over G's monomials, read from the context's cached power arrays."""
    return ctx.trace_row([(g.a7, 7)] + [(bi, (1 << i) + 1) for i, bi in enumerate(g.b)])


def reduce_difference(ctx: FieldCtx, g: TracePoly, alpha: int) -> QuinticCurve:
    """Quintic-form coefficients of G(x+alpha) + G(x).

    a = a7*alpha^2
    b = a7*alpha^4 + (a7*alpha)^(1/2)
    c = a7*alpha^6 + a7^(1/4)*alpha^(3/4) + a7^(1/2)*alpha^(5/2)
        + sum_i (b_i*alpha)^(2^-i) + sum_i b_i*alpha^(2^i)
    d = G(alpha)

    The c-sum admits an equivalent telescoped spelling,
    (b_i*alpha^(1+2^i))^(2^-i) = (b_i*alpha)^(2^-i) * alpha; both are computed
    and compared so a disagreement cannot pass silently.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    a7 = g.a7
    a = ctx.mul(a7, ctx.pow(alpha, 2))
    b = ctx.mul(a7, ctx.pow(alpha, 4)) ^ ctx.sqrt(ctx.mul(a7, alpha))
    c = (ctx.mul(a7, ctx.pow(alpha, 6))
         ^ ctx.mul(ctx.frac_pow(a7, 1, 4), ctx.frac_pow(alpha, 3, 4))
         ^ ctx.mul(ctx.frac_pow(a7, 1, 2), ctx.frac_pow(alpha, 5, 2)))
    csum = csum_alt = 0
    for i, bi in enumerate(g.b):
        if bi:
            csum ^= ctx.frac_pow(ctx.mul(bi, alpha), 1, 1 << i)
            csum ^= ctx.mul(bi, ctx.pow(alpha, 1 << i))
            term = ctx.mul(bi, ctx.pow(alpha, 1 + (1 << i)))
            csum_alt ^= ctx.frac_pow(term, 1, 1 << i) ^ term
    if ctx.mul(csum, alpha) != csum_alt:
        raise AssertionError(
            f"c-term spellings disagree at alpha={alpha:#x}: "
            f"{csum:#x}*alpha vs {csum_alt:#x}")
    return QuinticCurve(a=a, b=b, c=c ^ csum, d=eval_g(ctx, g, alpha))


def reduce_difference_all(ctx: FieldCtx, g: TracePoly) -> tuple[np.ndarray, ...]:
    """:func:`reduce_difference` for every alpha = 1..q-1: arrays a, b, c, d
    (entry k is alpha = k + 1), with the same two c-term spellings compared."""
    a7 = g.a7
    a = ctx.shift_term(a7, 2)
    b = ctx.shift_term(a7, 4) ^ ctx.shift_term(ctx.sqrt(a7), (1, 2))
    c = (ctx.shift_term(a7, 6)
         ^ ctx.shift_term(ctx.frac_pow(a7, 1, 4), (3, 4))
         ^ ctx.shift_term(ctx.frac_pow(a7, 1, 2), (5, 2)))
    d = ctx.shift_term(a7, 7)
    csum = csum_alt = np.zeros(ctx.q - 1, dtype=np.int64)
    for i, bi in enumerate(g.b):
        if bi:
            csum = csum ^ ctx.shift_term(ctx.frac_pow(bi, 1, 1 << i), (1, 1 << i))
            csum ^= ctx.shift_term(bi, 1 << i)
            term = ctx.shift_term(bi, 1 + (1 << i))
            csum_alt = csum_alt ^ ctx.vterm(1, term, (1, 1 << i)) ^ term
            d ^= term
    bad = ctx.vterm(csum, np.arange(1, ctx.q, dtype=np.int64), 1) != csum_alt
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise AssertionError(
            f"c-term spellings disagree at alpha={k + 1:#x}: "
            f"{int(csum[k]):#x}*alpha vs {int(csum_alt[k]):#x}")
    return a, b, c ^ csum, d


# ---------------------------------------------------------------------------
# JSON form: {"a7": "0x..", "b": {"0": "0x..", "2": "0x.."}, "s": n}

def tracepoly_to_dict(g: TracePoly) -> dict:
    return {"a7": hex(g.a7), "b": {str(i): hex(bi) for i, bi in enumerate(g.b) if bi},
            "s": g.s}


def tracepoly_from_json(text: str) -> TracePoly:
    try:
        obj = json.loads(text)
        a7 = int(obj["a7"], 16)
        bmap = {int(k): int(v, 16) for k, v in obj.get("b", {}).items()}
        s = int(obj.get("s", max(bmap) if bmap else 0))
        if not 0 <= s < MAX_M:
            raise ValueError(f"s={s} outside 0..{MAX_M - 1}")
        if any(i < 0 or i > s for i in bmap):
            raise ValueError(f"b index outside 0..s={s}")
        return TracePoly(a7, tuple(bmap.get(i, 0) for i in range(s + 1)))
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed G JSON: {exc}") from exc
