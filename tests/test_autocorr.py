from collections import Counter

import numpy as np
import pytest

from walshforge.autocorr import sigma_autocorr, sigma_decomposition, x_alpha_all
from walshforge.boolfn import TracePoly, eval_g, truth_table
from walshforge.field import FieldCtx
from walshforge.spectrum import amplitude_counts, fwht, l4_fourth

from oracles import x_alpha_from_bits


def x_alpha_scalar(ctx, g, alpha):
    """Literal definition: square of the +/-1 sum over the difference."""
    s = 0
    for x in range(ctx.q):
        d = ctx.trace(eval_g(ctx, g, x ^ alpha) ^ eval_g(ctx, g, x))
        s += (-1) ** d
    return s * s


def test_unit_value_m5(ctx5):
    assert x_alpha_from_bits(truth_table(ctx5, TracePoly(a7=1)), 1) == 64  # = 2q


def test_matches_scalar_definition(ctx7):
    g = TracePoly(a7=3, b=(0, 6))
    bits = truth_table(ctx7, g)
    for alpha in (1, 5, 100, 127):
        assert x_alpha_from_bits(bits, alpha) == x_alpha_scalar(ctx7, g, alpha)


def test_histogram_m5(ctx5):
    table = x_alpha_all(ctx5, truth_table(ctx5, TracePoly(a7=1)))
    assert table.dtype == np.int64
    values = set(int(v) for v in table[1:])
    assert values <= {0, 64, 256}  # {0, 2q, 8q}
    assert int(table[0]) == 0  # slot 0 is unused by convention
    assert len(table) == 32


def test_sigma_matches_l4(ctx7):
    for a7 in (1, 7, 90):
        g = TracePoly(a7=a7, b=(2,))
        bits = truth_table(ctx7, g)
        table = x_alpha_all(ctx7, bits)
        assert sigma_autocorr(table) == l4_fourth(amplitude_counts(fwht(bits)))


def test_decomposition_identity(ctx7):
    g = TracePoly(a7=5)
    table = x_alpha_all(ctx7, truth_table(ctx7, g))
    d = sigma_decomposition(table)
    q = ctx7.q
    hist = Counter(table[1:].tolist())
    assert d == {"N0": hist[2 * q], "N": hist[8 * q], "Z": hist[0]}
    assert d["N0"] + d["N"] + d["Z"] == q - 1
    assert q * q + 2 * q * d["N0"] + 8 * q * d["N"] == sigma_autocorr(table)


def test_decomposition_rejects_off_lattice_values(ctx5):
    table = x_alpha_all(ctx5, truth_table(ctx5, TracePoly(a7=1)))
    table[3] = 5  # corrupt two entries: the first one is named
    table[9] = 7
    with pytest.raises(ValueError, match="X_alpha=5 at alpha=0x3 "):
        sigma_decomposition(table)


def test_from_bits_agrees(ctx5):
    g = TracePoly(a7=11, b=(4,))
    bits = truth_table(ctx5, g)
    for alpha in range(1, 32):
        assert x_alpha_from_bits(bits, alpha) == x_alpha_scalar(ctx5, g, alpha)


def test_routes_only_read_the_shared_truth_table(ctx7):
    # the CLI hands one truth table to fwht and x_alpha_all: neither may write it
    bits = truth_table(ctx7, TracePoly(a7=3, b=(0, 6)))
    shared = bits.copy()
    shared.setflags(write=False)
    assert fwht(shared).tolist() == fwht(bits).tolist()
    assert x_alpha_all(ctx7, shared).tolist() == x_alpha_all(ctx7, bits).tolist()
    assert shared.tolist() == bits.tolist()
