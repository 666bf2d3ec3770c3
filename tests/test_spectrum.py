import glob
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshforge.boolfn import TracePoly, truth_table
from walshforge.field import FieldCtx
import walshforge.spectrum as spectrum
from walshforge.spectrum import (amplitude_counts, divisibility_check, fwht, l4_fourth, linf,
                                 nonlinearity, parseval_ok, parseval_sum)


def walsh_double_sum(table, v):
    """O(q^2) definition, kept deliberately naive as the oracle."""
    total = 0
    for x, bit in enumerate(table):
        total += (-1) ** (int(bit) ^ (bin(v & x).count("1") & 1))
    return total


def fwht_stages(table):
    """Stage-by-stage int64 butterfly over the whole table (h = 1, 2, 4, ...),
    kept as the reference for the Hadamard-factor matmul transform."""
    q = len(table)
    a = (1 - 2 * table.astype(np.int64)).reshape(1, q)
    h = 1
    while h < q:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        h *= 2
    return a.reshape(q)


def assert_int32_spectrum(spec, q):
    assert isinstance(spec, np.ndarray) and spec.dtype == np.int32 and spec.shape == (q,)
    assert spec.flags.c_contiguous


@given(st.integers(0, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_fwht_matches_stage_by_stage_reference(m, seed, density):
    # m = 0 is one factor H_1; m <= 5 one factor; 6..10 two; 11..12 three
    table = (np.random.default_rng(seed).random(1 << m) < density).astype(np.uint8)
    spec = fwht(table)
    assert_int32_spectrum(spec, 1 << m)
    np.testing.assert_array_equal(spec, fwht_stages(table))


@pytest.mark.parametrize("m", range(13, 21))
def test_fwht_matches_reference_at_every_large_split(m):
    # every factor split above the Hypothesis range: [5,4,4] .. [5,5,5,5]
    table = (np.random.default_rng(m).random(1 << m) < 0.5).astype(np.uint8)
    spec = fwht(table)
    assert_int32_spectrum(spec, 1 << m)
    np.testing.assert_array_equal(spec, fwht_stages(table))


@pytest.mark.parametrize("m", range(21))
def test_fwht_of_constant_tables(m):
    # spec[0] = +-q is the largest value any sum reaches
    q = 1 << m
    for bit, sign in ((0, 1), (1, -1)):
        spec = fwht(np.full(q, bit, dtype=np.uint8))
        assert_int32_spectrum(spec, q)
        assert int(spec[0]) == sign * q
        assert not spec[1:].any()


def test_fwht_refuses_tables_past_float32_exactness(monkeypatch):
    def no_work(*args):
        raise AssertionError("transform work started")

    monkeypatch.setattr(spectrum, "_factor_bits", no_work)
    monkeypatch.setattr(spectrum, "_hadamard", no_work)
    with pytest.raises(ValueError, match="2\\^24"):
        fwht(np.zeros(1 << 25, np.uint8))


def test_every_product_stays_below_the_blas_threading_threshold(monkeypatch):
    # OpenBLAS runs an sgemm of m*n*k <= 2^18 on the calling thread; every
    # product fwht makes goes through _sgemm, and together they do the whole
    # transform: q * 2^k multiply-adds for each factor H_{2^k}
    products = []

    def recording(x, y, out=None):
        products.append((x.shape, y.shape))
        return np.matmul(x, y, out=out)

    monkeypatch.setattr(spectrum, "_sgemm", recording)
    for m in range(21):
        products.clear()
        table = (np.random.default_rng(m).random(1 << m) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(fwht(table), fwht_stages(table))
        total = 0
        for xs, ys in products:
            macs = xs[-2] * xs[-1] * ys[-1]
            assert macs <= 2**18, (m, xs, ys)
            total += macs * int(np.prod(np.broadcast_shapes(xs[:-2], ys[:-2])))
        assert total == sum((1 << m) << k for k in spectrum._factor_bits(m))


def _other_thread_ticks() -> dict[str, int]:
    """utime + stime of every thread of this process but the calling one."""
    me = str(threading.get_native_id())
    ticks = {}
    for path in glob.glob("/proc/self/task/*/stat"):
        tid = path.split("/")[-2]
        try:
            with open(path) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended between glob and open
            continue
        if tid != me:
            ticks[tid] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not glob.glob("/proc/self/task/*/stat"), reason="needs Linux's /proc")
def test_fwht_leaves_every_other_thread_idle():
    # a product past OpenBLAS's threading threshold would hand half its work
    # to the worker threads, which then busy-wait: they would gain ticks here
    tables = [(np.random.default_rng(m).random(1 << m) < 0.5).astype(np.uint8)
              for m in range(15, 21)]
    for table in tables:  # warm: the Hadamard factors, the allocator
        fwht(table)
    before = _other_thread_ticks()
    for _ in range(20):  # let a worker woken before this test go back to sleep
        time.sleep(0.25)
        before, settled = _other_thread_ticks(), before
        if before == settled:
            break
    for _ in range(3):
        for table in tables:
            fwht(table)
    after = _other_thread_ticks()
    assert {tid: n - before.get(tid, 0) for tid, n in after.items() if n != before.get(tid, 0)} == {}


def test_factor_splits():
    assert spectrum._factor_bits(0) == (0,)
    assert spectrum._factor_bits(5) == (5,)
    assert spectrum._factor_bits(6) == (3, 3)
    assert spectrum._factor_bits(15) == (5, 5, 5)
    assert spectrum._factor_bits(17) == (5, 4, 4, 4)
    assert spectrum._factor_bits(20) == (5, 5, 5, 5)
    for m in range(25):
        ks = spectrum._factor_bits(m)
        assert sum(ks) == m and max(ks) <= 5 and max(ks) - min(ks) <= 1


def test_fwht_is_exact_at_the_largest_field():
    # spec[0] = q = 2^20; its square and fourth power overflow int32 and int64
    spec = fwht(np.zeros(1 << 20, dtype=np.uint8))
    assert int(spec[0]) == 2**20
    assert parseval_sum(spec) == 2**40
    assert l4_fourth(spec) == 2**60
    counts = amplitude_counts(spec)
    assert parseval_sum(spec, counts) == 2**40 and l4_fourth(spec, counts) == 2**60


def test_parseval_sum_is_exact_past_int64():
    # not a spectrum: |spec| = q = 2^21 at every point, the q^3 = 2^63 worst
    # case, which an int64 dot product wraps to a negative number
    spec = np.full(1 << 21, -(1 << 21), dtype=np.int32)
    assert parseval_sum(spec) == 2**63


def test_tr_x3_m3_spectrum(ctx3):
    tt = np.array([ctx3.trace(ctx3.pow(x, 3)) for x in range(8)], dtype=np.uint8)
    spec = fwht(tt)
    assert linf(spec) == 4
    assert nonlinearity(spec) == 2
    assert l4_fourth(spec) == 128
    assert sorted(set(abs(int(v)) for v in spec)) == [0, 4]


@given(st.binary(min_size=16, max_size=16))
def test_fwht_matches_double_sum(blob):
    table = np.frombuffer(blob, dtype=np.uint8) & 1
    spec = fwht(table)
    for v in range(16):
        assert int(spec[v]) == walsh_double_sum(table, v)


@given(st.binary(min_size=32, max_size=32))
def test_parseval(blob):
    table = np.frombuffer(blob, dtype=np.uint8) & 1
    spec = fwht(table)
    assert parseval_ok(spec)
    assert int((spec.astype(np.int64) ** 2).sum()) == 1024


def affine_distance_nl(table, m):
    # min Hamming distance to all 2^(m+1) affine functions
    best = 1 << m
    for v in range(1 << m):
        for c in (0, 1):
            d = sum(1 for x, bit in enumerate(table)
                    if int(bit) != (bin(v & x).count("1") & 1) ^ c)
            best = min(best, d)
    return best


@pytest.mark.parametrize("m", [3, 5, 7])
def test_nonlinearity_matches_affine_scan(m):
    ctx = FieldCtx(m)
    g = TracePoly(a7=1, b=(3,) if m > 3 else ())
    tt = truth_table(ctx, g)
    spec = fwht(tt)
    assert nonlinearity(spec) == affine_distance_nl(tt, m)
    assert nonlinearity(spec, linf(spec)) == nonlinearity(spec)


def test_l4_bounds_on_corpus(ctx7):
    for a7 in (1, 2, 77, 126):
        spec = fwht(truth_table(ctx7, TracePoly(a7=a7, b=(5,))))
        s4 = l4_fourth(spec)
        q = ctx7.q
        assert s4 <= q * linf(spec) ** 2  # Cauchy-Schwarz via Parseval
        assert s4 > q * q  # strict for odd m: no bent functions exist


def test_m5_x7_value_multiset(ctx5):
    spec = fwht(truth_table(ctx5, TracePoly(a7=1)))
    vals = sorted(int(v) for v in spec)
    assert vals.count(0) == 16
    assert sorted(set(abs(v) for v in vals)) == [0, 8]
    # trace pairing: f(x) and f(x^2) have permuted spectra, so the multiset
    # of absolute values is invariant under squaring the input
    tt_sq = np.array([ctx5.trace(ctx5.pow(ctx5.mul(x, x), 7)) for x in range(32)],
                     dtype=np.uint8)
    vals_sq = sorted(abs(int(v)) for v in fwht(tt_sq))
    assert vals_sq == sorted(abs(v) for v in vals)


def test_divisibility_check(ctx9):
    spec = fwht(truth_table(ctx9, TracePoly(a7=1)))
    rep = divisibility_check(spec, 3)
    assert rep["divisor"] == 2 ** 3  # ceil(9/3)
    assert rep["divides"]
    assert rep["all_values_divisible"]


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht(np.zeros(12, dtype=np.uint8))


def test_int64_headroom_is_documented():
    # sum of fourth powers fits int64 through m=15; the implementation
    # must switch to Python ints past that, so l4_fourth never overflows
    q = 1 << 15
    assert q ** 4 < 2 ** 63
    assert (1 << 16) ** 4 >= 2 ** 63
