"""Exact arithmetic in GF(2^m) with plain-int bitmask elements.

An element is an integer in [0, 2^m) read as a polynomial over GF(2) in the
power basis, reduced modulo an explicit degree-m irreducible ``modulus``
bitmask.  Everything here is deterministic and pure; a :class:`FieldCtx` is
immutable after construction, apart from caches of values fixed by
(m, modulus), and safe to share across workers.  Its tables are read-only
arrays, so no caller can corrupt a shared context.  The CLI shares one
context per process: every command at the same (m, modulus) reuses its
tables, and a command at another field replaces it.

Multiplication is shift-xor reduction at heart.  Every context builds
log/antilog tables from it when it is constructed (24 MB of int64 at
m = 20); they back the scalar ``mul`` and ``pow`` and the whole-field vector
helpers (``shift_term``, ``vterm``, ``vtrace_term``, ``vlog``, ``vexp``,
``vsolve_quartic``, ``trace_bits``, ``monomial_table``), which act
elementwise on int64 arrays of elements.  ``vterm(coef, x, e)`` is one
gather from the doubled antilog table at log(coef) + (e*log(x) mod (q-1)),
e an int or a (num, den) fraction; ``vtrace_term`` reads Tr at the same
index.  ``shift_term(coef, e)`` is the same product over the shift axis
alpha = 1..q-1, whose logs are the table's own ``_log[1:]``: no log gather,
no zero mask.  Every scalar-coefficient monomial of a per-shift route is a
``shift_term``; ``vterm`` takes arrays of other elements.  Tests cross-check
the tables against the shift-xor product ``mul_raw``.

For odd m, ``vsolve_quartic`` finds the trace-0 root of v^4 + v = c in
closed form: v = sum of c^(4^i) over odd i in [1, m-2], GF(2)-linear in c.

Trace rows take a gather-free path.  Tr is GF(2)-linear, so for each c one
mask ``dual(c)`` has Tr(c*y) = parity(dual(c) & y) for every y; ``dual`` is
linear in c too, the XOR of the column masks dual(x^j) over the set bits j
of c.  ``trace_row(terms)`` gives the bits Tr(sum of coef * x^e) for every
x as the parity of XOR(dual(coef) & x^e): T ANDs and T-1 XORs over
contiguous uint32 power arrays x^e, then one popcount.  Truth tables, the
auxiliary curve's S7 sum and the one-curve point count are such rows.  Each
power array is built the first time its exponent is used and stays cached on
the context (4 MB per exponent at m = 20).  ``monomial_table`` and
``trace_bits`` are its test oracle.  ``exp_trace``, the trace table of
``Tr(g^n)`` for n in [0, 2(q-1)), is built on first use; ``vtrace_term`` and
the genus-2 point counts gather from it.

The two O(q^2) direct sums (the X_alpha table and the genus-2 point counts)
count over bit rows packed 64 to a uint64 word: ``pack_bits`` packs them and
``popcount`` counts their set bits.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
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
        # Tr is GF(2)-linear: precompute the mask with bit i = Tr(2^i), so that
        # trace(x) = parity(popcount(x & mask)).
        mask = 0
        for i in range(m):
            e = 1 << i
            t = 0
            for _ in range(m):
                t ^= e
                e = self.mul_raw(e, e)
            if t not in (0, 1):
                raise AssertionError(f"trace of basis element not in GF(2): {t:#x}")
            mask |= t << i
        self._trace_mask = mask
        # bit i of dual(x^j) is Tr(x^(i+j)): the traces t[k] = Tr(x^k), k < 2m-1
        t, p = [], 1
        for _ in range(2 * m - 1):
            t.append((p & mask).bit_count() & 1)
            p <<= 1
            if p >> m:
                p ^= modulus
        self._dual_cols = [sum(t[i + j] << i for i in range(m)) for j in range(m)]
        self._build_tables()
        self._powers: dict[int, np.ndarray] = {}  # e -> uint32 x^e for x in [0, q)

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
        if x == 0 or y == 0:
            return 0
        return int(self._exp[self._log[x] + self._log[y]])

    def pow(self, x: int, n: int) -> int:
        if x == 0:
            if n < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 1 if n == 0 else 0
        return int(self._exp[(int(self._log[x]) * n) % (self.q - 1)])

    def _pow_raw(self, x: int, n: int) -> int:
        """Square-and-multiply on shift-xor products."""
        if x == 0:
            if n < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 1 if n == 0 else 0
        n %= self.q - 1
        r, b = 1, x
        while n:
            if n & 1:
                r = self.mul_raw(r, b)
            b = self.mul_raw(b, b)
            n >>= 1
        return r

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(x, self.q - 2)

    def trace(self, x: int) -> int:
        return (x & self._trace_mask).bit_count() & 1

    def sqrt(self, x: int) -> int:
        # squaring is a field automorphism, so the root is unique
        return self.pow(x, 1 << (self.m - 1))

    def kth_root(self, x: int, k: int) -> int:
        if gcd(k, self.q - 1) != 1:
            raise ValueError(f"k={k} not coprime to q-1={self.q - 1}; k-th root not unique")
        return self.pow(x, pow(k, -1, self.q - 1))

    def _frac_exponent(self, num: int, den: int) -> int:
        if den <= 0 or gcd(den, self.q - 1) != 1:
            raise ValueError(f"denominator {den} not invertible modulo q-1={self.q - 1}")
        return (num * pow(den, -1, self.q - 1)) % (self.q - 1)

    def frac_pow(self, x: int, num: int, den: int) -> int:
        """x^(num/den) via the inverse of den modulo q-1."""
        e = self._frac_exponent(num, den)
        if x == 0:
            if num < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 1 if num == 0 else 0
        return self.pow(x, e)

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

    def _term_index(self, coef, x, e):
        """(idx, zero): coef * x^e is ``_exp[idx]`` where ``zero`` is False,
        idx = log(coef) + (e*log(x) mod (q-1)) < 2(q-1), and 0 where it is True.
        ``e`` is an int or a (num, den) pair; 0^(num/den) follows num."""
        n = self.q - 1
        num, e = (e[0], self._frac_exponent(*e)) if isinstance(e, tuple) else (e, e % n)
        x = np.asarray(x, dtype=np.int64)
        zero = x == 0 if num else False  # x^0 = 1, also for x = 0
        if num < 0 and np.count_nonzero(zero):
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        coef = np.asarray(coef, dtype=np.int64)
        if coef.ndim or coef == 0:
            zero = zero | (coef == 0)
        return self._log[x] * e % n + self._log[coef], zero

    def shift_term(self, coef: int, e) -> np.ndarray:
        """coef * alpha^e for every shift alpha = 1..q-1 (entry k is alpha = k + 1),
        e an int or a (num, den) pair: one gather at log(coef) + (e*log(alpha)
        mod (q-1)), where log(alpha) is the table's own ``_log[1:]``.  No alpha
        is 0, so no zero mask is needed; a zero coef gives zeros."""
        n = self.q - 1
        if not coef:
            return np.zeros(n, dtype=np.int64)
        idx = self._log[1:] * (self._frac_exponent(*e) if isinstance(e, tuple) else e % n)
        idx %= n
        idx += self._log[coef]
        return self._exp[idx]

    def vterm(self, coef, x, e) -> np.ndarray:
        """coef * x^e elementwise, one gather from the doubled antilog table."""
        idx, zero = self._term_index(coef, x, e)
        return np.where(zero, 0, self._exp[idx])

    def vtrace_term(self, coef, x, e) -> np.ndarray:
        """Tr(coef * x^e) elementwise as uint8, read from ``exp_trace`` at the
        index of :meth:`vterm`."""
        idx, zero = self._term_index(coef, x, e)
        return np.where(zero, np.uint8(0), self.exp_trace[idx])

    def vlog(self, x) -> np.ndarray:
        """Discrete logs, in [0, q-1), of nonzero x to the table generator."""
        x = np.asarray(x, dtype=np.int64)
        if np.count_nonzero(x == 0):
            raise ValueError("0 has no discrete logarithm")
        return self._log[x]

    def vexp(self, n) -> np.ndarray:
        """g^n for int64 n in [0, 2(q-1)), read from the doubled antilog table,
        so a sum of two :meth:`vlog` values needs no reduction."""
        return self._exp[n]

    @cached_property
    def _quartic_basis(self) -> list[int]:
        basis = np.int64(1) << np.arange(self.m, dtype=np.int64)
        return np.bitwise_xor.reduce(
            [self.vterm(1, basis, 4 ** i) for i in range(1, self.m - 1, 2)]).tolist()

    def vsolve_quartic(self, c) -> tuple[np.ndarray, np.ndarray]:
        """(v, has_root): v^4 + v = c where Tr(c) = 0, and v = 0 elsewhere.  For odd
        m, v = sum of c^(4^i) over odd i in [1, m-2] has v^4 + v = c + Tr(c), and
        Tr(v) = 0 where Tr(c) = 0 (the other root is v + 1).  The map is
        GF(2)-linear: an XOR of the basis images picked out by the bits of c."""
        if self.m % 2 == 0:
            raise ValueError("quartic solver requires odd m")
        c = np.asarray(c, dtype=np.int64)
        has_root = self.vtrace(c) == 0
        v = np.zeros(c.shape, dtype=np.int64)
        for j, vj in enumerate(self._quartic_basis):
            v ^= ((c >> j) & 1) * vj
        v = np.where(has_root, v, 0)
        lost = has_root & ((self.vterm(1, v, 4) ^ v) != c)
        if np.count_nonzero(lost):
            raise AssertionError(f"no root of v^4+v=c despite Tr(c)=0, c={int(c[lost][0]):#x}")
        return v, has_root

    def monomial_table(self, coef: int, e: int) -> np.ndarray:
        """Array over all x in [0,q) of coef * x^e  (e >= 1): the oracle of
        :meth:`trace_row`, reached only from tests and perfbench's tracer."""
        if e < 1:
            raise ValueError("monomial exponent must be >= 1")
        q = self.q
        if coef == 0:
            return np.zeros(q, dtype=np.int64)
        # one gather: log(coef * x^e) = log(coef) + e*log(x)
        out = np.zeros(q, dtype=np.int64)
        out[1:] = self._exp[(int(self._log[coef]) + e * self._log[1:]) % (q - 1)]
        return out

    @cached_property
    def exp_trace(self) -> np.ndarray:
        """Tr(g^n) as uint8 for n in [0, 2(q-1)): the traces of the doubled
        antilog table, so an offset index below 2(q-1) needs no reduction."""
        half = self.trace_bits(self._exp[:self.q - 1])
        return _frozen(np.concatenate([half, half]))

    def dual(self, c: int) -> int:
        """The mask d with Tr(c*y) = parity(d & y) for every y; dual(1) is the
        trace mask.  Linear in c: the XOR of dual(x^j) over the set bits j."""
        d = 0
        for j, col in enumerate(self._dual_cols):
            if c >> j & 1:
                d ^= col
        return d

    def _power(self, e: int) -> np.ndarray:
        """uint32 x^e for x in [0, q)  (e >= 1), built the first time e is used,
        in blocks, so that no whole-field index array adds to peak memory."""
        pw = self._powers.get(e)
        if pw is None:
            n = self.q - 1
            pw = np.empty(self.q, dtype=np.uint32)
            for lo in range(0, self.q, BATCH):
                idx = self._log[lo:lo + BATCH] * (e % n)
                idx %= n
                pw[lo:lo + BATCH] = self._exp[idx]
            pw[0] = 0  # 0^e = 0; log(0) is a poison value
            pw = self._powers[e] = _frozen(pw)
        return pw

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

    def vtrace(self, vals) -> np.ndarray:
        """Vector trace: parity of popcount(v & trace_mask), as int64 0/1."""
        t = np.asarray(vals, dtype=np.int64) & self._trace_mask
        for k in (16, 8, 4, 2, 1):
            t ^= t >> k
        return t & 1

    def trace_bits(self, vals: np.ndarray) -> np.ndarray:
        """:meth:`vtrace` as uint8, the truth-table dtype."""
        return self.vtrace(vals).astype(np.uint8)
