"""Exact arithmetic in GF(2^m) with plain-int bitmask elements.

An element is an integer in [0, 2^m) read as a polynomial over GF(2) in the
power basis, reduced modulo an explicit degree-m irreducible ``modulus``
bitmask.  Everything here is deterministic and pure; a :class:`FieldCtx` is
immutable after construction, apart from its one store (``table``) of
arrays fixed by (m, modulus), and safe to share across workers.  Its tables
are read-only arrays, so no caller can corrupt a shared context.  The CLI
shares one context per process: every command at the same (m, modulus)
reuses its tables, and a command at another field replaces it.

Multiplication is shift-xor reduction at heart.  Every context builds
log/antilog tables from it when it is constructed (24 MB of int64 at
m = 20); they back the scalar ``mul`` and ``pow`` and the whole-field vector
helpers (``shift_term``, ``vterm``, ``vlog``, ``vexp``, ``monomial_table``),
which act elementwise on int64 arrays of elements (a negative element raises
ValueError, one >= q IndexError).  Every power, scalar or array, reads its
exponent by one rule: an int e mod q-1, or a pair (num, den) as num * den^-1
mod q-1 for den > 0 coprime to q-1 (ValueError otherwise); so ``pow(x, -1)``
is the inverse and ``pow(x, (1, k))`` the k-th root.  0^e follows the sign of
e (of num): negative raises ZeroDivisionError, 0 gives 1, positive gives 0.
``vterm(coef, x, e)`` is one gather at log(coef) + (e*log(x) mod (q-1)).
``shift_term(coef, e)`` is the same product over the shift axis
alpha = 1..q-1, whose logs are the table's own ``_log[1:]``: no log gather,
no zero mask.  Every scalar-coefficient monomial of a per-shift route is a
``shift_term``; ``vterm`` takes arrays of other elements.  Tests cross-check
the tables against the shift-xor product ``mul_raw``.

A map that is GF(2)-linear in c is read from two tables built from its m
basis images: map(c) = lo[c & (2^k - 1)] ^ hi[c >> k], k = ceil(m/2), at
most 2 x 1024 int64 entries at m = 20.  ``vsquare`` is x -> x^2 read this
way.  For odd m, ``vsolve_quartic`` finds the trace-0 root of v^4 + v = c in
closed form, v = sum of c^(4^i) over odd i in [1, m-2], from the tables of
that map, and checks each root with v^4 read from the separate tables of
x -> x^4.  The reads go in ``BATCH`` blocks, so no whole-field index array
is made.

Tr is GF(2)-linear, and it is read by two rules.  ``trace_bits(vals)`` is
Tr of every element of an array: the parity of popcount(v & trace_mask).
``trace_row(terms)`` is Tr(sum of coef * x^e) for every x, with no gather:
for each c one mask ``dual(c)`` has Tr(c*y) = parity(dual(c) & y) for every
y, and ``dual`` is linear in c too, read from the tables of the map that
sends x^j to its column mask dual(x^j), for an int or an array.  So the row
is the parity of XOR(dual(coef) & x^e): T ANDs and T-1 XORs over contiguous
uint32 power arrays x^e, then one popcount.  Truth tables, the auxiliary
curve's S7 sum and the one-curve point count are such rows.
``trace_bits(monomial_table(...))`` is its test oracle.

One store, ``table(name, build)``, keeps every array a context derives
from the field alone, built on first use, read-only and kept for the life of
the context: the uint32 power arrays ``"x^e"`` of ``trace_row``, one per
exponent used (4 MB each at m = 20); the (lo, hi) tables ``"square"``,
``"fourth"``, ``"quartic"`` and ``"dual"`` of the linear maps; genus2's
``"genus2.radicals"`` and ``"genus2.sequences"``; not the log tables.

The two O(q^2) direct sums (the X_alpha table and the genus-2 point counts)
count over bit rows packed 64 to a uint64 word: ``pack_bits`` packs them and
``popcount`` counts their set bits.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

# Largest field any context accepts: every route holds whole-field int64
# arrays, whose share of peak RSS grows about 4x per +2 in m (README gives
# figures), and the Parseval sum is exact in int64 through m = 20.  The
# cached power arrays of trace_row are uint32, which holds every element
# while MAX_M <= 32.
MAX_M = 20
# elements in a 2-D temporary of a batched whole-field pass; an x_alpha_all
# block holds at least one whole 64-lane row, q / 2 words, more from m = 15
BATCH = 8192


def pack_bits(bits) -> np.ndarray:
    """0/1 values along the last axis packed into uint64 words: bit k of word
    j is ``bits[..., 64*j + k]``, and a partial last word is zero-padded."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((*packed.shape[:-1], pad), dtype=np.uint8)], axis=-1)
    return packed.view("<u8").astype(np.uint64, copy=False)


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits in each row of uint64 words (the last axis)."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


# ---------------------------------------------------------------------------
# polynomial-over-GF(2) helpers on bare ints (no field context needed)

def _pm_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _pm_mulmod(a: int, b: int, f: int) -> int:
    deg = f.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= f
    return r


def _pm_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pm_mod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _x_pow_2k(f: int, k: int) -> int:
    # x^(2^k) mod f, by k squarings of x
    r = 0b10
    for _ in range(k):
        r = _pm_mulmod(r, r, f)
    return r


def is_irreducible(f: int) -> bool:
    """Rabin test for a GF(2)[x] polynomial given as a bitmask."""
    m = f.bit_length() - 1
    if m < 1 or not f & 1:
        return m == 1 and f == 0b10  # x itself is the only non-odd irreducible
    if _x_pow_2k(f, m) != 0b10:
        return False
    for p in _prime_factors(m):
        if _pm_gcd(_x_pow_2k(f, m // p) ^ 0b10, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """Smallest irreducible degree-m bitmask (lexicographic by integer value)."""
    if not 2 <= m <= MAX_M:
        raise ValueError(f"m={m} out of supported range [2, {MAX_M}]")
    for cand in range((1 << m) + 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m}")  # unreachable


# ---------------------------------------------------------------------------

# name -> the basis images map(x^j), j < m, of each GF(2)-linear map FieldCtx reads
_LINEAR_MAPS = {
    "square": lambda ctx: ctx._power_images(2),
    "fourth": lambda ctx: ctx._power_images(4),
    "quartic": lambda ctx: np.bitwise_xor.reduce(  # c -> sum of c^(4^i), odd i in [1, m-2]
        [ctx._power_images(4 ** i) for i in range(1, ctx.m - 1, 2)]),
    "dual": lambda ctx: ctx._dual_cols,
}


def _least_element(x: np.ndarray) -> int | None:
    """min(x), None if empty; ValueError for a negative x, which would read a table's end."""
    low = int(x.min()) if x.size else None
    if low is not None and low < 0:
        raise ValueError(f"element {low} is negative")
    return low


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a context's tables are shared by every caller."""
    a.setflags(write=False)
    return a


class FieldCtx:
    """Immutable description of GF(2^m): m, modulus bitmask, trace data."""

    def __init__(self, m: int, modulus: int | None = None):
        if not 2 <= m <= MAX_M:
            raise ValueError(f"m={m} out of supported range [2, {MAX_M}]")
        if modulus is None:
            modulus = default_modulus(m)
        if modulus <= 0:  # the GF(2)[x] arithmetic never ends on a negative int
            raise ValueError(f"modulus {modulus:#x} is not a positive bitmask")
        if modulus.bit_length() != m + 1:
            raise ValueError(f"modulus {modulus:#x} does not have degree {m}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        # bit i of dual(x^j) is Tr(x^(i+j)): the traces t[k] = Tr(x^k), k < 2m-1,
        # each the Frobenius sum x^k + x^2k + ... + x^(2^(m-1) k) by squarings
        t, p = [], 1
        for _ in range(2 * m - 1):
            tr, y = 0, p
            for _ in range(m):
                tr ^= y
                y = self.mul_raw(y, y)
            if tr not in (0, 1):
                raise AssertionError(f"trace of x^{len(t)} not in GF(2): {tr:#x}")
            t.append(tr)
            p <<= 1
            if p >> m:
                p ^= modulus
        self._dual_cols = [sum(t[i + j] << i for i in range(m)) for j in range(m)]
        self._trace_mask = self._dual_cols[0]  # dual(1): trace(x) = parity(x & mask)
        self._build_tables()
        self._tables: dict[str, tuple] = {}  # name -> read-only arrays, see table()

    def __repr__(self):
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self):
        return hash((self.m, self.modulus))

    # -- scalar operations --------------------------------------------------

    def mul_raw(self, x: int, y: int) -> int:
        """Carryless product reduced by the modulus (shift-xor)."""
        return _pm_mulmod(x, y, self.modulus)

    def mul(self, x: int, y: int) -> int:
        if x <= 0 or y <= 0:  # a negative element would read the log table from its end
            if x < 0 or y < 0:
                raise ValueError(f"element {min(x, y)} is negative")
            return 0
        return int(self._exp[self._log[x] + self._log[y]])

    def pow(self, x: int, e) -> int:
        """x^e, e an int or a (num, den) pair, by the one rule of :meth:`_exponent`;
        0^e follows the sign of e (of num for a pair), as in :meth:`vterm`."""
        n, num = self._exponent(e)
        if x <= 0:
            if x < 0:
                raise ValueError(f"element {x} is negative")
            if num < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 1 if num == 0 else 0
        return int(self._exp[int(self._log[x]) * n % (self.q - 1)])

    def _pow_raw(self, x: int, n: int) -> int:
        """x^n, n >= 0, by shift-xor square-and-multiply: used before the tables exist."""
        r = 1
        while n:
            if n & 1:
                r = self.mul_raw(r, x)
            x = self.mul_raw(x, x)
            n >>= 1
        return r

    def trace(self, x: int) -> int:
        return (x & self._trace_mask).bit_count() & 1

    def half_trace(self, c: int) -> int:
        """sum of c^(4^i) for i = 0..(m-1)/2; for odd m solves h^2+h = c when Tr(c)=0."""
        if self.m % 2 == 0:
            raise ValueError("half-trace solver requires odd m")
        h, t = 0, c
        for _ in range((self.m + 1) // 2):
            h ^= t
            t = self.pow(t, 4)
        return h

    def solve_artin_schreier(self, c: int) -> int | None:
        """A root u of u^2 + u = c, or None when Tr(c) = 1 (no root in the field)."""
        if self.trace(c) == 1:
            return None
        u = self.half_trace(c)
        if self.mul(u, u) ^ u != c:
            raise AssertionError(f"half-trace failed for c={c:#x}")  # m even or bad ctx
        return u

    # -- log/antilog tables ---------------------------------------------------

    def ensure_tables(self) -> None:
        """No-op, kept for existing callers: every context builds its tables
        when constructed."""

    def _build_tables(self) -> None:
        # powers of a generator by doubling: exp[n:2n] = exp[:n] * g^n
        n_el = self.q - 1
        g = self._find_generator()
        exp = np.ones(1, dtype=np.int64)
        gn = g
        while len(exp) < n_el:
            exp = np.concatenate([exp, self._vmul_raw(exp, gn)])
            gn = self.mul_raw(gn, gn)
        exp = exp[:n_el]
        if self.mul_raw(int(exp[-1]), g) != 1:
            raise AssertionError("generator order mismatch")
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(n_el)
        log[0] = -self.q  # poison: any use of log[0] lands far out of range
        self._exp = _frozen(np.concatenate([exp, exp]))  # doubled: exp[i+j] needs no reduction
        self._log = _frozen(log)

    def table(self, name: str, build) -> tuple:
        """The arrays ``build(self)`` returns, made read-only, built the first
        time ``name`` is asked for and kept on the context: the one cache of
        arrays derived from the field alone (the module docstring lists its
        entries), built once however many functions the context serves."""
        arrays = self._tables.get(name)
        if arrays is None:
            arrays = self._tables[name] = tuple(_frozen(a) for a in build(self))
        return arrays

    def _find_generator(self) -> int:
        n = self.q - 1
        ps = _prime_factors(n)
        for g in range(2, self.q):
            if all(self._pow_raw(g, n // p) != 1 for p in ps):
                return g
        raise AssertionError("no generator found")  # unreachable for a field

    # -- whole-field vector helpers ---------------------------------------------
    # Arguments are int64 arrays of field elements (or ints, broadcast).

    def _vmul_raw(self, x, y) -> np.ndarray:
        """Elementwise shift-xor product; the tables are built from it."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.int64),
                                   np.asarray(y, dtype=np.int64))
        r = np.zeros(x.shape, dtype=np.int64)
        for _ in range(self.m):
            r ^= x * (y & 1)
            y = y >> 1
            x = x << 1
            x ^= (x >> self.m) * self.modulus  # bit m is the only overflow
        return r

    def _exponent(self, e) -> tuple[int, int]:
        """The one exponent rule of every power, with the sign 0^e follows: (e mod
        (q-1), e) for an int e, (num * den^-1 mod (q-1), num) for a pair (num, den)."""
        n = self.q - 1
        if not isinstance(e, tuple):
            return e % n, e
        num, den = e
        if den <= 0 or gcd(den, n) != 1:
            raise ValueError(f"denominator {den} not invertible modulo q-1={n}")
        return num * pow(den, -1, n) % n, num

    def shift_term(self, coef: int, e) -> np.ndarray:
        """coef * alpha^e for every shift alpha = 1..q-1 (entry k is alpha = k + 1),
        e an int or a (num, den) pair: one gather at log(coef) + (e*log(alpha)
        mod (q-1)), where log(alpha) is the table's own ``_log[1:]``.  No alpha
        is 0, so no zero mask is needed; a zero coef gives zeros."""
        n = self.q - 1
        if not coef:
            return np.zeros(n, dtype=np.int64)
        idx = self._log[1:] * self._exponent(e)[0]
        idx %= n
        idx += self._log[coef]
        return self._exp[idx]

    def vterm(self, coef, x, e) -> np.ndarray:
        """coef * x^e elementwise for an array x, coef an int or an array of x's
        shape and e an int or a (num, den) pair: one gather from the doubled
        antilog table; x^0 = 1 also for x = 0, 0^(num/den) follows num."""
        n, num = self._exponent(e)
        x = np.asarray(x, dtype=np.int64)
        if _least_element(x) == 0 and num < 0:  # min(x) is 0 exactly where some x is
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        keep = x != 0 if num else True
        coef = np.asarray(coef, dtype=np.int64)
        if coef.ndim or coef == 0:
            keep = keep & (coef != 0)
        idx = self._log[x] * n  # updated in place: two whole arrays at most
        idx %= self.q - 1
        idx += self._log[coef]
        out = self._exp[idx]
        out *= keep  # a multiply, not a masked store: no branch per element
        return out

    def vlog(self, x) -> np.ndarray:
        """Discrete logs, in [0, q-1), of nonzero x to the table generator."""
        x = np.asarray(x, dtype=np.int64)
        if _least_element(x) == 0:
            raise ValueError("0 has no discrete logarithm")
        return self._log[x]

    def vexp(self, n) -> np.ndarray:
        """g^n for int64 n in [0, 2(q-1)), read from the doubled antilog table,
        so a sum of two :meth:`vlog` values needs no reduction."""
        return self._exp[n]

    # -- GF(2)-linear maps by two table reads -----------------------------------

    def _linear_tables(self, images) -> tuple[np.ndarray, np.ndarray]:
        """The (lo, hi) tables of the GF(2)-linear map that sends x^j to
        images[j]: map(c) = lo[c & (2^k - 1)] ^ hi[c >> k], k = ceil(m/2), so
        at most 2 x 1024 entries at m = 20."""
        tables = []
        for part in np.split(np.asarray(images, dtype=np.int64), [(self.m + 1) // 2]):
            t = np.zeros(1, dtype=np.int64)
            for image in part:  # t[i] is the XOR of the images of the set bits of i
                t = np.concatenate([t, t ^ image])
            tables.append(t)
        return tables[0], tables[1]

    def _linear(self, name: str, x):
        """The linear map ``name`` at an int x (an int) or at every element of an
        array x, two reads from its ``table`` entry ``name``; more than ``BATCH``
        elements are read in blocks, so no whole-array index temporary is made."""
        lo, hi = self.table(name, lambda ctx: ctx._linear_tables(_LINEAR_MAPS[name](ctx)))
        k = len(lo).bit_length() - 1
        if isinstance(x, (int, np.integer)):
            if x < 0:
                raise ValueError(f"element {x} is negative")
            return int(lo[x & (len(lo) - 1)] ^ hi[x >> k])
        x = np.asarray(x, dtype=np.int64)
        _least_element(x)
        if x.size <= BATCH:
            out = lo[x & (len(lo) - 1)]
            out ^= hi[x >> k]
            return out
        out = np.empty(x.shape, dtype=np.int64)
        flat_out, flat_x = out.reshape(-1), x.reshape(-1)  # a 1-D strided x stays a view
        for s in range(0, len(flat_x), BATCH):
            block = flat_x[s:s + BATCH]
            np.bitwise_xor(lo[block & (len(lo) - 1)], hi[block >> k], out=flat_out[s:s + BATCH])
        return out

    def _power_images(self, e: int) -> np.ndarray:
        """(x^j)^e for j < m: the basis images of x -> x^e, which is GF(2)-linear
        for e a power of 2."""
        return self.vterm(1, np.int64(1) << np.arange(self.m), e)

    def vsquare(self, x) -> np.ndarray:
        """x^2 for every element of x; squaring is GF(2)-linear, so this is two
        table reads per element and no log gather."""
        return self._linear("square", x)

    def vsolve_quartic(self, c) -> tuple[np.ndarray, np.ndarray]:
        """(v, has_root): v^4 + v = c where Tr(c) = 0, and v = 0 elsewhere.  For odd
        m, v = sum of c^(4^i) over odd i in [1, m-2] has v^4 + v = c + Tr(c), and
        Tr(v) = 0 where Tr(c) = 0 (the other root is v + 1).  The map is
        GF(2)-linear, read from its two tables; the root check reads v^4 from the
        separate tables of x -> x^4."""
        if self.m % 2 == 0:
            raise ValueError("quartic solver requires odd m")
        c = np.asarray(c, dtype=np.int64)
        has_root = self.trace_bits(c) == 0
        v = self._linear("quartic", c)
        v *= has_root
        flat_c, flat_v, flat_root = c.reshape(-1), v.reshape(-1), has_root.reshape(-1)
        for s in range(0, len(flat_v), BATCH):
            check = self._linear("fourth", flat_v[s:s + BATCH])
            check ^= flat_v[s:s + BATCH]
            lost = (check != flat_c[s:s + BATCH]) & flat_root[s:s + BATCH]
            if np.count_nonzero(lost):
                first = int(flat_c[s:s + BATCH][lost][0])
                raise AssertionError(f"no root of v^4+v=c despite Tr(c)=0, c={first:#x}")
        return v, has_root

    def monomial_table(self, coef: int, e: int) -> np.ndarray:
        """Array over all x in [0,q) of coef * x^e  (e >= 1): the oracle of
        :meth:`trace_row`, reached only from tests and perfbench's tracer."""
        if e < 1:
            raise ValueError("monomial exponent must be >= 1")
        return self.vterm(coef, np.arange(self.q), e)

    def dual(self, c):
        """The mask d with Tr(c*y) = parity(d & y) for every y, for an int c (an
        int) or for every element of an array c; dual(1) is the trace mask.
        Linear in c: two reads from the tables of the map x^j -> dual(x^j)."""
        return self._linear("dual", c)

    def _power(self, e: int) -> np.ndarray:
        """uint32 x^e for x in [0, q)  (e >= 1), the ``table`` entry "x^e", built
        by :meth:`vterm` in blocks: no whole-field index array adds to peak memory."""
        def build(ctx):
            pw = np.empty(ctx.q, dtype=np.uint32)
            for lo in range(0, ctx.q, BATCH):
                pw[lo:lo + BATCH] = ctx.vterm(1, np.arange(lo, min(lo + BATCH, ctx.q)), e)
            return (pw,)
        return self.table(f"x^{e}", build)[0]

    def trace_row(self, terms) -> np.ndarray:
        """uint8 bits Tr(sum of coef * x^e) over all x in [0, q), for (coef, e)
        pairs with e >= 1: the parity of XOR(dual(coef) & x^e), with no gather.
        The row is a fresh array, so callers may write into it."""
        acc = tmp = None
        for coef, e in terms:
            if e < 1:
                raise ValueError("monomial exponent must be >= 1")
            if not coef:
                continue
            d = np.uint32(self.dual(int(coef)))
            if acc is None:
                acc = np.bitwise_and(self._power(e), d)
            else:
                tmp = np.bitwise_and(self._power(e), d, out=tmp)
                acc ^= tmp
        if acc is None:
            return np.zeros(self.q, dtype=np.uint8)
        bits = np.bitwise_count(acc)
        bits &= 1
        return bits

    def trace_bits(self, vals) -> np.ndarray:
        """Tr of every element of ``vals`` as uint8 0/1, the truth-table dtype:
        the parity of popcount(v & trace_mask)."""
        return np.bitwise_count(np.asarray(vals, dtype=np.int64) & self._trace_mask) & 1
