"""Merge gate: the ten acceptance criteria, one printed verdict line each.

Corpus seeds are frozen constants so the numbers in CI logs are reproducible
on any machine.  Criteria 1-3, 5, 6 and 8 share one corpus per field degree
(52 functions, quadratic-part size cycling 0,1,2,3); the bound sweeps use
their own seeds.  Each criterion emits one verdict line
outside pytest's capture so the gate is readable without -s.
"""

import math
import time

import pytest

from walshforge.autocorr import sigma_autocorr, sigma_decomposition, x_alpha_all
from walshforge.boolfn import TracePoly, truth_table
from walshforge.classify7 import (check_linf_upper, check_sigma_bound, classify_all,
                                  classify_alpha, count_n0_n)
from walshforge.cli import main as cli_main
from walshforge.corpus import curve_corpus, standard_corpus
from walshforge.field import FieldCtx
from walshforge.genus2 import classify, count_points, e_poly
from walshforge.auxcurve import count_n123, enumerate_points, gamma_of, s7_sum
from walshforge.rng import SplitRng
from walshforge.spectrum import fwht, l4_fourth, linf

from oracles import mixed_corpus, p_poly

CORPUS_SEED = 0x0ACCE001   # criteria 1, 2, 3, 5, 6, 8
BOUND_SEED = 0x0ACCE004    # criterion 4 (and the m=13 rows of 5, 6)
CURVE_SEED = 0x0ACCE007    # criterion 7
AUX_SEED = 0x0ACCE009      # criterion 9
CORPUS_MS = (5, 7, 9, 11)
CORPUS_COUNT = 52          # >= 50 per degree


@pytest.fixture
def verdict(capsys):
    """One visible pass/fail line per criterion, bypassing output capture."""
    def emit(num, name, ok, note=""):
        tail = f"  [{note}]" if note else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}",
                  flush=True)
        assert ok, f"criterion {num} ({name}) failed"
    return emit


@pytest.fixture(scope="session")
def corpus_tables():
    """Per degree: list of dicts with the function, both sigma4 routes, the
    X_alpha table and the spectral maximum; plus the wall time spent."""
    out = {}
    for m in CORPUS_MS:
        ctx = FieldCtx(m)
        t0 = time.monotonic()
        entries = []
        for g in mixed_corpus(ctx.q, CORPUS_COUNT, (0, 1, 2, 3), CORPUS_SEED):
            spec = fwht(truth_table(ctx, g))
            entries.append({
                "g": g,
                "linf": linf(spec),
                "sigma_spec": l4_fourth(spec),
                "table": x_alpha_all(ctx, g),
            })
        out[m] = {"ctx": ctx, "entries": entries,
                  "elapsed": time.monotonic() - t0}
    return out


@pytest.fixture(scope="session")
def bound_corpus():
    """Criterion 4 sweep: spectra for m in {9,11,13} x s in {0,1,2}."""
    out = {}
    for m in (9, 11, 13):
        ctx = FieldCtx(m)
        for s in (0, 1, 2):
            rows = []
            for g in standard_corpus(ctx.q, 50, s, BOUND_SEED):
                spec = fwht(truth_table(ctx, g))
                rows.append((g, linf(spec), l4_fourth(spec)))
            out[(m, s)] = (ctx, rows)
    return out


def test_01_sigma_cross_path(verdict, corpus_tables):
    bad = 0
    for m, data in corpus_tables.items():
        q = data["ctx"].q
        for e in data["entries"]:
            if sigma_autocorr(e["table"]) != e["sigma_spec"]:
                bad += 1
    elapsed11 = corpus_tables[11]["elapsed"]
    ok = bad == 0 and elapsed11 < 60.0
    verdict(1, "sigma-cross-path", ok,
            f"{sum(len(d['entries']) for d in corpus_tables.values())} functions, "
            f"m=11 corpus built in {elapsed11:.1f}s")


def test_02_trichotomy_exhaustive(verdict, corpus_tables):
    bad = 0
    for m, data in corpus_tables.items():
        q = data["ctx"].q
        allowed = {0, 2 * q, 8 * q}
        for e in data["entries"]:
            vals = set(int(v) for v in e["table"][1:])
            if not vals <= allowed:
                bad += 1
    verdict(2, "x-alpha-trichotomy", bad == 0)


def test_03_predictor_oracle(verdict, corpus_tables):
    pairs = mismatches = 0
    for m, data in corpus_tables.items():
        ctx = data["ctx"]
        for e in data["entries"]:
            table = e["table"]
            for alpha in range(1, ctx.q):
                pairs += 1
                if classify_alpha(ctx, e["g"], alpha).predicted != int(table[alpha]):
                    mismatches += 1
    verdict(3, "predictor-oracle-agreement", mismatches == 0,
            f"{pairs} (G, alpha) pairs")


def test_04_sigma_deviation_bound(verdict, bound_corpus):
    bad = 0
    for (m, s), (ctx, rows) in bound_corpus.items():
        for g, _, sigma in rows:
            if not check_sigma_bound(ctx, g, sigma).passed:
                bad += 1
    verdict(4, "sigma-deviation-bound", bad == 0,
            f"{sum(len(r) for _, r in bound_corpus.values())} functions, "
            "m in {9,11,13}, s in {0,1,2}")


def test_05_upper_bound_and_divisibility(verdict, corpus_tables, bound_corpus):
    bad = 0
    pools = [(d["ctx"], [(e["g"], e["linf"]) for e in d["entries"]])
             for d in corpus_tables.values()]
    pools += [(ctx, [(g, lv) for g, lv, _ in rows])
              for ctx, rows in bound_corpus.values()]
    for ctx, rows in pools:
        grid = 2 ** math.ceil(ctx.m / 3)
        for g, lv in rows:
            if lv ** 2 > 36 * ctx.q or lv % grid != 0:
                bad += 1
    verdict(5, "spectral-upper-bound-and-divisibility", bad == 0)


def test_06_lower_bound(verdict, corpus_tables, bound_corpus):
    hard_bad = soft_bad = 0
    pools = [(d["ctx"], [(e["g"], e["linf"]) for e in d["entries"]])
             for d in corpus_tables.values()]
    pools += [(ctx, [(g, lv) for g, lv, _ in rows])
              for ctx, rows in bound_corpus.values() if ctx.m == 13]
    for ctx, rows in pools:
        for g, lv in rows:
            if lv ** 2 >= 2 * ctx.q:
                continue
            if ctx.m <= 11 + 2 * g.s:
                hard_bad += 1
            else:
                soft_bad += 1  # outside the guaranteed window: warn only
    verdict(6, "spectral-lower-bound", hard_bad == 0,
            f"{soft_bad} out-of-window warnings")


@pytest.mark.slow
def test_06b_lower_bound_refined_m15(verdict):
    # single function, full-shift verification; target well under 30 minutes
    t0 = time.monotonic()
    ctx = FieldCtx(15)
    g = TracePoly(a7=1)
    spec = fwht(truth_table(ctx, g))
    lv = linf(spec)
    table = x_alpha_all(ctx, g)
    identity_ok = sigma_autocorr(table) == l4_fourth(spec)
    mismatches = sum(1 for alpha in range(1, ctx.q)
                     if classify_alpha(ctx, g, alpha).predicted != int(table[alpha]))
    elapsed = time.monotonic() - t0
    ok = lv >= 2 ** 8 + 2 ** 5 and identity_ok and mismatches == 0 and elapsed < 1800
    verdict(6, "refined-lower-bound-m15-full-verify", ok,
            f"linf={lv}, {ctx.q - 1} shifts, {elapsed:.0f}s")


def test_07_curve_classification_oracle(verdict):
    bad_member = bad_parity = bad_factor = 0
    for m in (5, 7, 9):
        ctx = FieldCtx(m)
        for cv in curve_corpus(ctx.q, 1000, seed=CURVE_SEED):
            data = classify(ctx, cv)
            if count_points(ctx, cv) not in data.predicted_counts:
                bad_member += 1
            if data.w % 2 != m % 2:
                bad_parity += 1
        rng = SplitRng(CURVE_SEED + m)
        for _ in range(10_000):
            a = 1 + rng.below(ctx.q - 1)
            b = rng.below(ctx.q)
            x = rng.below(ctx.q)
            p = p_poly(ctx, a, b, x)
            rhs = ctx.mul(ctx.mul(x, p), 1 ^ ctx.mul(ctx.pow(x, 5), p))
            if e_poly(ctx, a, b, x) != rhs:
                bad_factor += 1
    verdict(7, "curve-count-oracle", bad_member + bad_parity + bad_factor == 0,
            "3000 curves, 30000 factorization samples")


def test_08_count_deviations_and_decomposition(verdict, corpus_tables):
    bad = 0
    for m, data in corpus_tables.items():
        ctx = data["ctx"]
        q = ctx.q
        for e in data["entries"]:
            d = sigma_decomposition(e["table"])
            n0, n = d["N0"], d["N"]
            s = e["g"].s
            # |N0 - q/2| <= 3 sqrt(q) + 1 and |N - q/8| <= 23 * 2^(s-1) sqrt(q),
            # both scaled to integers and squared
            d0 = abs(2 * n0 - q)
            if d0 > 2 and (d0 - 2) ** 2 > 36 * q:
                bad += 1
            if (8 * n - q) ** 2 > 529 * 2 ** (2 * s + 4) * q:
                bad += 1
            if e["sigma_spec"] != q * q + 2 * q * n0 + 8 * q * n:
                bad += 1
    verdict(8, "count-deviation-bounds-and-decomposition", bad == 0)


def test_09_auxiliary_curve(verdict):
    bad = 0
    checked = 0
    for m in (7, 9, 11):
        ctx = FieldCtx(m)
        for s in (2, 3):
            for g in standard_corpus(ctx.q, 10, s, AUX_SEED):
                gamma = gamma_of(ctx, g)
                pts = enumerate_points(ctx, gamma)
                s7 = s7_sum(ctx, gamma)
                if pts.count_total != s7 + ctx.q + 1:
                    bad += 1
                if s7 * s7 > 36 * ctx.q:
                    bad += 1
                shifts = classify_all(ctx, g)
                res = count_n123(ctx, g, pts, shifts.eta)
                if not all(c.passed for c in res["bounds"] if c.hard):
                    bad += 1
                if res["N_assembled"] != count_n0_n(ctx, g, shifts)["N"]:
                    bad += 1
                checked += 1
    verdict(9, "auxiliary-curve-counts-and-bounds", bad == 0,
            f"{checked} functions, m in {{7,9,11}}, s in {{2,3}}")


def test_10_determinism_across_threads(verdict, tmp_path, capsys):
    import json
    hashes = []
    for threads in ("1", "4"):
        out = tmp_path / f"rep{threads}.json"
        code = cli_main(["verify", "--m", "7", "--count", "3", "--seed", "213",
                         "--threads", threads, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        hashes.append(json.loads(out.read_text())["determinism_hash"])
    verdict(10, "determinism-hash-thread-invariance", hashes[0] == hashes[1],
            hashes[0][:16])
