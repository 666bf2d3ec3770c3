import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import walshforge.cli as cli
import walshforge.genus2 as genus2
from walshforge.field import _LINEAR_MAPS, BATCH, FieldCtx, default_modulus, is_irreducible

# second irreducible quintic besides the default 0x25, for independence tests
ALT_MOD_5 = 0x29


def brute_mul(a, b, modulus, m):
    """Schoolbook carryless multiply followed by long division."""
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            acc ^= a << i
    for i in range(2 * m - 2, m - 1, -1):
        if (acc >> i) & 1:
            acc ^= modulus << (i - m)
    return acc


def test_default_moduli_table():
    assert {m: default_modulus(m) for m in (2, 3, 5, 8, 16)} == {
        2: 0x7, 3: 0xB, 5: 0x25, 8: 0x11B, 16: 0x1002B}
    for m in range(2, 17):
        assert is_irreducible(default_modulus(m))


def test_known_products(ctx3):
    # x * x^2 = x^3 = x + 1 mod x^3+x+1
    assert ctx3.mul(0b010, 0b100) == 0b011
    assert ctx3.mul(0, 0b101) == 0
    assert ctx3.mul(1, 0b110) == 0b110


def test_trace_values(ctx3):
    assert ctx3.trace(0b010) == 0
    assert ctx3.trace(1) == 1  # Tr(1) = m mod 2
    assert sum(ctx3.trace(x) for x in range(8)) == 4  # balanced


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(3, 0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)
    with pytest.raises(ValueError):
        FieldCtx(3, 0x25)  # wrong degree


@given(st.integers(0, 31), st.integers(0, 31))
def test_mul_matches_brute(a, b):
    ctx = FieldCtx(5)
    assert ctx.mul(a, b) == brute_mul(a, b, ctx.modulus, 5)


@given(st.integers(0, 511), st.integers(0, 511))
def test_table_and_raw_mul_agree(a, b):
    ctx = FieldCtx(9)
    assert ctx.mul(a, b) == ctx.mul_raw(a, b)


@given(st.integers(1, 127), st.integers(-3, 400))
def test_pow_matches_repeated_mul(x, n):
    ctx = FieldCtx(7)
    expected = 1
    for _ in range(n % 127):
        expected = ctx.mul(expected, x)
    assert ctx.pow(x, n) == expected


# One exponent rule for every power: a (num, den) pair is num * den^-1 mod q-1,
# so y = x^(num/den) has y^den = x^num, read back by the int-exponent pow that
# test_pow_matches_repeated_mul checks.  2^9 - 1 = 511 = 7 * 73 has cube and
# fifth roots; 2^5 - 1 = 31 has seventh roots.
@pytest.mark.parametrize("m,num,den", [
    pytest.param(11, -1, 1, id="inverse"), pytest.param(13, 1, 2, id="square-root"),
    pytest.param(9, 1, 3, id="cube-root"), pytest.param(9, 1, 5, id="fifth-root"),
    pytest.param(5, 1, 7, id="seventh-root"), pytest.param(9, 3, 4, id="three-quarters")])
@given(x=st.integers(1, 8191))
def test_pow_of_a_fraction_undoes_by_int_powers(m, num, den, x):
    ctx = FieldCtx(m)
    x = x % (ctx.q - 1) + 1
    y = ctx.pow(x, (num, den))
    if den == 1:
        assert y == ctx.pow(x, num)
    if num < 0:
        assert ctx.mul(ctx.pow(y, den), ctx.pow(x, -num)) == 1
    else:
        assert ctx.pow(y, den) == ctx.pow(x, num)


def test_pow_refuses_a_denominator_not_invertible():
    ctx = FieldCtx(9)  # 7 divides q - 1 = 511: seventh roots are not unique
    for den in (7, 0, -1):
        for power in (lambda e: ctx.pow(2, e), lambda e: ctx.vterm(1, [2], e),
                      lambda e: ctx.shift_term(1, e)):
            with pytest.raises(ValueError, match=f"denominator {den} not invertible"):
                power((1, den))
    with pytest.raises(ValueError, match="not invertible"):
        ctx.pow(0, (1, 7))  # the exponent is read before the zero base


def test_pow_of_zero_follows_the_sign_of_the_exponent(ctx5):
    for e, want in ((0, 1), ((0, 3), 1), (5, 0), (ctx5.q - 1, 0), ((1, 2), 0), ((3, 4), 0)):
        assert ctx5.pow(0, e) == want == ctx5.vterm(1, [0], e)[0], e
    for e in (-1, -31, (-1, 3), (-3, 4)):
        with pytest.raises(ZeroDivisionError):
            ctx5.pow(0, e)
        with pytest.raises(ZeroDivisionError):
            ctx5.vterm(1, [0], e)


@given(st.integers(0, 127), st.integers(0, 127))
def test_trace_additive(x, y):
    ctx = FieldCtx(7)
    assert ctx.trace(x ^ y) == ctx.trace(x) ^ ctx.trace(y)


@given(st.integers(0, 127))
def test_trace_frobenius_invariant(x):
    ctx = FieldCtx(7)
    assert ctx.trace(ctx.mul(x, x)) == ctx.trace(x)


def test_trace_against_power_sum(ctx5):
    # Tr(x) = sum of conjugates x^(2^i), reduced to F_2
    for x in range(32):
        acc = 0
        for i in range(5):
            acc ^= ctx5.pow(x, 2 ** i)
        assert acc in (0, 1)
        assert ctx5.trace(x) == acc


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_solve_artin_schreier_exhaustive(m):
    ctx = FieldCtx(m)
    for c in range(ctx.q):
        y = ctx.solve_artin_schreier(c)
        if ctx.trace(c):
            assert y is None
        else:
            assert ctx.mul(y, y) ^ y == c


@given(st.integers(0, 127))
def test_half_trace_solves(x):
    ctx = FieldCtx(7)
    ht = ctx.half_trace(x)
    # y^2 + y = x + Tr(x): half-trace solves the trace-0 part
    want = x if ctx.trace(x) == 0 else x ^ 1
    assert ctx.mul(ht, ht) ^ ht in (x, x ^ 1)
    assert want in (x, x ^ 1)


def test_two_moduli_independent_results():
    """Field-element labels differ between representations but structural
    quantities (trace distribution, multiplicative order) must agree."""
    c1, c2 = FieldCtx(5, 0x25), FieldCtx(5, ALT_MOD_5)
    assert sum(c1.trace(x) for x in range(32)) == sum(c2.trace(x) for x in range(32)) == 16
    for ctx in (c1, c2):
        # x generates a group of order dividing 31 (prime), so any x != 0,1 generates
        orders = {x: next(n for n in range(1, 32) if ctx.pow(x, n) == 1)
                  for x in range(2, 32)}
        assert set(orders.values()) == {31}


def test_monomial_table_matches_scalar():
    # every coef and every x; e = q - 1 at m = 2 (e = 3) and m = 3 (e = 7) gives
    # x^e = 1 for every x but 0
    for m in range(2, 9):
        ctx = FieldCtx(m)
        for e in (1, 3, 5, 7):
            pw = [ctx.pow(x, e) for x in range(ctx.q)]
            for coef in range(ctx.q):
                tab = ctx.monomial_table(coef, e)
                assert tab.tolist() == [ctx.mul(coef, p) for p in pw], (m, e, coef)


def test_trace_bits_matches_scalar():
    # every element through m = 12; at m = 17 and 20, 0, 1, q-1 and random
    # samples, the first of them also against the sum of their conjugates
    for m in [*range(2, 13), 17, 20]:
        ctx = FieldCtx(m)
        if m <= 12:
            vals = np.arange(ctx.q, dtype=np.int64)
        else:
            rng = np.random.default_rng(m)
            vals = np.concatenate([[0, 1, ctx.q - 1], rng.integers(0, ctx.q, 200)])
            for v in vals[:20].tolist():
                acc, conj = 0, v
                for _ in range(m):
                    acc ^= conj
                    conj = brute_mul(conj, conj, ctx.modulus, m)
                assert acc == ctx.trace(v)
        bits = ctx.trace_bits(vals)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [ctx.trace(v) for v in vals.tolist()], m


@cache
def field(m):
    return FieldCtx(m)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, (1 << m) - 1), st.integers(1, 2 << m))))
@example((6, 5, 9))  # gcd(e, q-1) = 9: x -> x^9 is 9-to-1 on the units
@example((4, 1, 5))  # gcd(e, q-1) = 5
@example((3, 3, 7))  # e = q-1: x^e = 1 for every x != 0
@example((5, 0, 3))  # coef = 0
def test_trace_row_matches_trace_bits_of_monomial_table(case):
    m, coef, e = case
    ctx = field(m)
    got = ctx.trace_row([(coef, e)])
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, ctx.trace_bits(ctx.monomial_table(coef, e)))
    assert ctx.trace_row([(coef, e)]) is not got  # callers may XOR into it


def test_trace_row_rejects_exponent_zero(ctx5):
    with pytest.raises(ValueError):
        ctx5.trace_row([(1, 0)])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
@example((4, 0))  # c = 0: the zero mask
@example((4, 1))  # c = 1 at even m, where Tr(1) = 0
@example((7, 1))
def test_dual_mask_gives_the_trace_of_every_product(case):
    m, c = case
    ctx = field(m)
    d = ctx.dual(c)
    if c == 1:
        assert d == ctx._trace_mask
    y = np.arange(ctx.q, dtype=np.int64)
    parity = np.bitwise_count(y & d) & 1
    np.testing.assert_array_equal(parity, ctx.trace_bits(ctx.monomial_table(c, 1)))
    # an array of elements gives the scalar mask of each
    assert ctx.dual(y).tolist() == [ctx.dual(x) for x in range(ctx.q)]


def test_element_reads_refuse_elements_outside_the_field():
    # a negative element would index a table from its end and read a wrong
    # value; one >= q reads past it.  Arrays longer than BATCH are read in
    # blocks, and the refusal holds whichever block the element is in.
    ctx = FieldCtx(9)
    reads = {"vsquare": ctx.vsquare, "dual": ctx.dual, "vterm": lambda x: ctx.vterm(1, x, 3),
             "vlog": ctx.vlog}
    for name, read in reads.items():
        for bad, error in ((-1, ValueError), (ctx.q, IndexError)):
            for x in ([1, bad], np.r_[np.ones(BATCH, dtype=np.int64), bad]):
                with pytest.raises(error):
                    read(np.asarray(x))
            if name in ("vsquare", "dual"):  # the int form of a linear map
                with pytest.raises(error):
                    read(bad)
    assert ctx.vsquare(np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("op, args", [("pow", (-1, 3)), ("mul", (-3, 1)), ("pow", (-2, (1, 2)))])
def test_scalar_ops_refuse_a_negative_element(op, args):
    # each read the log table from its end: 307, 509 and 480 at m = 9
    with pytest.raises(ValueError, match="negative"):
        getattr(FieldCtx(9), op)(*args)


def test_trace_row_allocates_little_and_caches_one_array_per_exponent():
    ctx = FieldCtx(15)
    terms = [(0x1f3, 7), (3, 2), (0, 3), (9, 5)]  # a zero coef builds no power array
    ctx.trace_row(terms)  # warm: x^7, x^2 and x^5 are built once, here
    powers = ["x^2", "x^5", "x^7"]
    assert sorted(ctx._tables) == ["dual", *powers]  # and the tables of dual
    for name in powers:
        (pw,) = ctx._tables[name]
        assert pw.dtype == np.uint32 and pw.shape == (ctx.q,)
    tracemalloc.start()
    try:
        ctx.trace_row(terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an accumulator and a reused temporary (4q bytes each), then the uint8 row
    assert peak <= 10 * ctx.q
    assert sorted(ctx._tables) == ["dual", *powers]


@pytest.mark.parametrize("m", range(2, 10))
def test_vsquare_is_mul_of_x_by_itself(m):
    ctx = FieldCtx(m)
    assert ctx.vsquare(np.arange(ctx.q)).tolist() == [ctx.mul(x, x) for x in range(ctx.q)]


def test_vsolve_quartic_allocates_little():
    ctx = FieldCtx(15)
    c = np.arange(ctx.q, dtype=np.int64)
    ctx.vsolve_quartic(c)  # warm: the solution and x^4 tables are built here
    tracemalloc.start()
    try:
        v, has_root = ctx.vsolve_quartic(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # v (8q bytes), has_root (q) and the int64 temporaries of one BATCH block
    # (6q at m = 15): the root check runs block by block, on no second whole array
    assert peak <= 20 * ctx.q
    assert np.count_nonzero(has_root) == ctx.q // 2


def test_even_degree_fields_supported():
    ctx = FieldCtx(4)
    assert ctx.q == 16
    assert ctx.trace(1) == 0  # m even


def test_tables_are_read_only(capsys):
    # the CLI shares one context between commands: no caller may write into it
    ctx = FieldCtx(5)
    g2_tables = (*ctx.table("genus2.radicals", genus2._radical_table),
                 *ctx.table("genus2.sequences", genus2._sequence_tables))
    assert ctx.table("genus2.radicals", None)[0] is g2_tables[0]  # built once
    for table in (ctx._exp, ctx._log, ctx._power(3), *g2_tables):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    # every array a verify derives from the field sits in the one store,
    # ``table``: power arrays, linear maps, radicals, sequences and starts
    cli._field.cache_clear()  # no entry left by an earlier command
    assert cli.main(["verify", "--m", "9", "--count", "2", "--s", "2"]) == 0
    capsys.readouterr()
    ctx = cli._field(9, default_modulus(9))
    assert {"x^7", "dual", "square", "fourth", "quartic",
            "genus2.radicals", "genus2.sequences"} <= set(ctx._tables)
    assert all(name.startswith(("x^", "genus2.")) or name in _LINEAR_MAPS
               for name in ctx._tables)
    assert len(ctx._tables["genus2.sequences"]) == 2  # tables and starts
    for arrays in ctx._tables.values():
        for table in arrays:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[1] = 0
    # no other array cache: the log tables are built with the context
    caches = {k for k, v in vars(ctx).items() if isinstance(v, (np.ndarray, dict, tuple))}
    assert caches == {"_exp", "_log", "_tables"}
