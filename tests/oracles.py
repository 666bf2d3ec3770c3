"""From-scratch scalar oracles that only the tests call.

Each function computes, one element or one shift at a time, a quantity that
the package computes for whole arrays or along another route; the tests
compare the two.  None of them is part of the ``walshforge`` API.

* ``x_alpha_from_bits``: one X_alpha straight off the unpacked truth table,
  the reference of ``autocorr.x_alpha_all``.
* ``f_on_curve`` / ``g_on_curve``: the rational functions on the auxiliary
  curve whose traces equal the trace conditions that ``auxcurve.count_n123``
  counts.
* ``p_poly``, ``normalize_ab`` and ``maisner_nart_w``: the Maisner-Nart route
  to the radical dimension w of a genus-2 curve in a = b normal form, checked
  against the kernel dimension of ``genus2.radical``.
* ``mixed_corpus``: a corpus cycling through several quadratic-part sizes.
* ``other_modulus`` and ``field_isomorphism``: a second modulus of GF(2^m)
  and the map between the two fields, built from shift-xor products alone,
  which every route's result must follow.
"""

from __future__ import annotations

import numpy as np

from walshforge.auxcurve import gamma_of
from walshforge.boolfn import TracePoly
from walshforge.corpus import sample_tracepoly
from walshforge.field import FieldCtx, is_irreducible
from walshforge.genus2 import QuinticCurve
from walshforge.rng import SplitRng, derive_seed


def x_alpha_from_bits(bits: np.ndarray, alpha: int) -> int:
    q = len(bits)
    if not 0 < alpha < q:
        raise ValueError(f"alpha={alpha} outside 1..q-1")
    mism = int((bits ^ bits[np.arange(q) ^ alpha]).sum())
    return (q - 2 * mism) ** 2


def f_on_curve(ctx: FieldCtx, g: TracePoly, x: int, v: int) -> int:
    """v^3 + sum_i (v^(3*2^i)+v^3)*b_i*x^(-3-3*2^i) + (v^6+v^12)*a7*x^(-21)."""
    out = ctx.pow(v, 3)
    for i, bi in enumerate(g.b):
        if bi:
            out ^= ctx.mul(ctx.pow(v, 3 << i) ^ ctx.pow(v, 3),
                           ctx.mul(bi, ctx.pow(x, -(3 + 3 * (1 << i)))))
    out ^= ctx.mul(ctx.pow(v, 6) ^ ctx.pow(v, 12), ctx.mul(g.a7, ctx.pow(x, -21)))
    return out


def g_on_curve(ctx: FieldCtx, g: TracePoly, x: int, v: int) -> int:
    """a7*gamma^2*x^(-7) + sum_i b_i*x^(-3(1+2^i))*(v^(2^(i+1))+v^(2^i)+v^2+v)."""
    gamma = gamma_of(ctx, g)
    out = ctx.mul(ctx.mul(g.a7, ctx.pow(gamma, 2)), ctx.pow(x, -7))
    for i, bi in enumerate(g.b):
        if bi:
            vb = ctx.pow(v, 1 << (i + 1)) ^ ctx.pow(v, 1 << i) ^ ctx.pow(v, 2) ^ v
            out ^= ctx.mul(ctx.mul(bi, ctx.pow(x, -(3 * (1 + (1 << i))))), vb)
    return out


def p_poly(ctx: FieldCtx, a: int, b: int, x: int) -> int:
    """P(x) = a^2 x^5 + b^2 x + a, with E_{a,b}(x) = x P(x) (1 + x^5 P(x))."""
    return ctx.mul(ctx.pow(a, 2), ctx.pow(x, 5)) ^ ctx.mul(ctx.pow(b, 2), x) ^ a


def normalize_ab(ctx: FieldCtx, curve: QuinticCurve) -> tuple[QuinticCurve, int]:
    """Rescale x -> lam*x with lam = sqrt(b/a), giving an a = b curve.

    Returns (normalized curve, lam).  The substitution is a bijection of the
    field, so affine point counts and w are preserved.  Requires b != 0.
    """
    if curve.b == 0:
        raise ValueError("normalize_ab needs b != 0 (b = 0 is already the degenerate branch)")
    lam = ctx.pow(ctx.mul(curve.b, ctx.pow(curve.a, -1)), (1, 2))
    nc = QuinticCurve(
        a=ctx.mul(curve.a, ctx.pow(lam, 5)),
        b=ctx.mul(curve.b, ctx.pow(lam, 3)),
        c=ctx.mul(curve.c, lam),
        d=curve.d,
    )
    if nc.a != nc.b:
        raise AssertionError("normalization failed to reach a = b form")
    return nc, lam


def maisner_nart_w(ctx: FieldCtx, curve: QuinticCurve, z: int) -> dict:
    """w from a P-root z: w = 3 iff Tr(ell) = 0 with ell^3 = 1 + z^-4.

    Two accepted shapes: a = b != 0 (normal form), or b = 0 where
    P = a^2 x^5 + a has the single root z = (1/a)^(1/5) and w = 1, ell = 1.
    """
    if ctx.m % 2 == 0:
        raise ValueError("maisner_nart_w requires odd m")
    if p_poly(ctx, curve.a, curve.b, z) != 0:
        raise ValueError(f"z={z:#x} is not a root of P for this curve")
    if curve.b == 0:
        return {"w": 1, "ell": 1}
    if curve.a != curve.b:
        raise ValueError("curve must be in a = b normal form (see normalize_ab) or have b = 0")
    ell = ctx.pow(1 ^ ctx.pow(z, -4), (1, 3))
    return {"w": 3 if ctx.trace(ell) == 0 else 1, "ell": ell}


def mixed_corpus(q: int, count: int, s_values: tuple[int, ...], seed: int) -> list[TracePoly]:
    """Cycle through s_values so every declared size is represented."""
    return [sample_tracepoly(SplitRng(derive_seed(seed, q, s_values[i % len(s_values)], i)),
                             q, s_values[i % len(s_values)])
            for i in range(count)]


def other_modulus(m: int) -> int:
    """The largest irreducible degree-m bitmask (``default_modulus`` is the least)."""
    return next(f for f in range((2 << m) - 1, 1 << m, -2) if is_irreducible(f))


def field_isomorphism(ctx1: FieldCtx, ctx2: FieldCtx) -> np.ndarray:
    """phi[x] for every x of ctx1's field: the isomorphism onto ctx2's field
    (same m, another modulus) sending x = sum of x_k X^k to sum of x_k z^k,
    z the least root of ctx1's modulus among ctx2's elements.  Found and
    built by shift-xor products alone, so it reads neither context's tables."""
    def modulus_at(z: int) -> int:  # Horner, in ctx2
        v = 0
        for k in range(ctx1.m, -1, -1):
            v = ctx2.mul_raw(v, z) ^ (ctx1.modulus >> k & 1)
        return v

    z = next(z for z in range(2, ctx2.q) if modulus_at(z) == 0)
    x, zk = np.arange(ctx1.q), 1
    phi = np.zeros(ctx1.q, dtype=np.int64)
    for k in range(ctx1.m):
        phi ^= np.where(x >> k & 1, zk, 0)
        zk = ctx2.mul_raw(zk, z)
    return phi
