import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walshforge.cli as cli
from walshforge.classify7 import classify_all
from walshforge.cli import SLOW_M, main
from walshforge.field import FieldCtx, default_modulus


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_analyze_happy_path(capsys):
    code, doc = run_json(capsys, "analyze", "--m", "5", "--g", '{"a7":"0x1"}')
    assert code == 0
    assert doc["schema"] == "walsh-forge/1"
    assert doc["summary"]["sigma4_spectrum"] == doc["summary"]["sigma4_autocorr"] == 2048
    assert all(c["pass"] for c in doc["checks"] if c["hard"])
    assert "determinism_hash" in doc and "meta" in doc


def test_analyze_requires_g(capsys):
    code, out, err = run(capsys, "analyze", "--m", "5")
    assert code == 2 and "--g" in err


def test_even_m_rejected_with_check_name(capsys):
    code, out, err = run(capsys, "analyze", "--m", "4", "--g", '{"a7":"0x1"}')
    assert code == 2
    assert "odd m" in err and ("autocorr" in err or "predictor" in err)


def test_even_m_spectrum_only_allowed(capsys):
    code, doc = run_json(capsys, "analyze", "--m", "4", "--g", '{"a7":"0x1"}',
                         "--checks", "spectrum,bounds")
    assert code == 0
    assert doc["config"]["checks"] == ["spectrum", "bounds"]


def test_unknown_check_rejected(capsys):
    code, out, err = run(capsys, "analyze", "--m", "5", "--g", '{"a7":"0x1"}',
                         "--checks", "spectru")
    assert code == 2 and "spectru" in err


def test_g_from_file(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"a7":"0x3","b":{"1":"0x5"},"s":1}')
    code, doc = run_json(capsys, "analyze", "--m", "7", "--g", str(p))
    assert code == 0
    assert doc["config"]["g"]["a7"] == "0x3"


def test_malformed_g_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--m", "5", "--g", '{"a7":"0x0"}')
    assert code == 2


def test_coefficient_outside_field_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--m", "5", "--g", '{"a7":"0xFF"}')
    assert code == 2 and "field" in err


def test_scan_deterministic(capsys):
    args = ("scan", "--m", "7", "--count", "10", "--s", "1", "--seed", "42")
    code1, doc1 = run_json(capsys, *args)
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert doc1["determinism_hash"] == doc2["determinism_hash"]
    assert len(doc1["summary"]["rows"]) == 10


def test_verify_threads_do_not_change_hash(capsys):
    base = ("verify", "--m", "7", "--count", "2", "--seed", "11")
    _, doc1 = run_json(capsys, *base, "--threads", "1")
    _, doc4 = run_json(capsys, *base, "--threads", "4")
    assert doc1["determinism_hash"] == doc4["determinism_hash"]
    assert doc1["meta"]["threads"] == 1 and doc4["meta"]["threads"] == 4


def test_verify_selftest_negative_exits_1(capsys):
    code, doc = run_json(capsys, "verify", "--m", "5", "--count", "1",
                         "--selftest-negative")
    assert code == 1
    assert doc["summary"]["mismatches"]
    first = doc["checks"][0]
    assert first["name"] == "predictor_oracle_agreement" and not first["pass"]
    # the record carries the whole route triple for diagnosis without a rerun
    rec = doc["summary"]["mismatches"][0]
    assert rec["alpha"] == "0x1" and rec["predicted"] != rec["measured"]
    assert {"lambda_zero", "ell", "eta", "v", "curve", "count", "w"} <= set(rec)
    assert set(rec["curve"]) == {"a", "b", "c", "d"}
    assert (rec["count"] - 33) ** 2 == rec["measured"]  # the curve count agrees


def test_verify_mismatch_without_genus2_has_no_curve(capsys):
    code, doc = run_json(capsys, "verify", "--m", "5", "--count", "1", "--checks",
                         "predictor", "--selftest-negative")
    rec = doc["summary"]["mismatches"][0]
    assert code == 1 and "eta" in rec and "curve" not in rec and "w" not in rec


# -- negative controls: one corrupted alpha per route must fail a named check ----

CONTROL_G = '{"a7":"0x5","b":{"1":"0x6","2":"0x2"},"s":2}'
CONTROL_ARGV = {cmd: (cmd, "--m", "7", "--g", CONTROL_G) for cmd in ("analyze", "verify")}


def _first(mask) -> int:
    return int(np.flatnonzero(mask)[0])


def _x_alpha_swapped(real):
    def corrupt(ctx, g):  # one 2q shift read as 0, still inside the trichotomy
        table = real(ctx, g).copy()
        table[1 + _first(table[1:] == 2 * ctx.q)] = 0
        return table
    return corrupt


def _x_alpha_outside(real):
    def corrupt(ctx, g):  # one 0 shift read as q, outside {0, 2q, 8q}
        table = real(ctx, g).copy()
        table[1 + _first(table[1:] == 0)] = ctx.q
        return table
    return corrupt


def _count_moved(real):
    def corrupt(ctx, a, b, c, d):  # |count - q - 1| changes at alpha = 1
        counts = real(ctx, a, b, c, d).copy()
        counts[0] += 2
        return counts
    return corrupt


def _radius_moved(real):
    def corrupt(ctx, a, b, c):
        curves = real(ctx, a, b, c)
        radius = curves.radius.copy()
        radius[0] += 1  # never a power of two or 0 again: |dev| cannot match it
        return dataclasses.replace(curves, radius=radius)
    return corrupt


def _fibre_dropped(real):
    def corrupt(ctx, gamma):  # the two points above the first x lost
        pts = real(ctx, gamma)
        return dataclasses.replace(pts, points=pts.points[2:], count_total=pts.count_total - 2)
    return corrupt


def _n_fibre_dropped(real):
    def corrupt(ctx, g, pts, eta):  # the fibre of one 8q shift alpha = x^(-3) unseen
        predicted = classify_all(ctx, g).predicted
        alpha = 1 + _first(predicted == 8 * ctx.q)
        x = ctx.kth_root(ctx.inv(alpha), 3)
        keep = pts.points[:, 0] != x
        assert np.count_nonzero(~keep) == 2
        return real(ctx, g, dataclasses.replace(pts, points=pts.points[keep]), eta)
    return corrupt


def _eta_zeroed(real):
    def corrupt(ctx, g, pts, eta):  # eta of one 8q shift, as the aux route reads it,
        eta = eta.copy()            # zeroed: both its points fail both trace tests
        eta[_first(classify_all(ctx, g).predicted == 8 * ctx.q)] = 0
        return real(ctx, g, pts, eta)
    return corrupt


def _spectrum_moved(real):
    def corrupt(table):  # +q keeps the fourth-power sum divisible by q
        spec = real(table).copy()
        spec[0] += len(spec)
        return spec
    return corrupt


# (route function imported into cli, corruption, failing checks in analyze and
# in verify); verify runs no parseval check, so there the spectrum is caught
# by the sigma4 cross-path check
NEGATIVE_CONTROLS = [
    ("x_alpha_all", _x_alpha_swapped, {"sigma4_cross_path"}, {"sigma4_cross_path"}),
    ("x_alpha_all", _x_alpha_outside, {"x_alpha_trichotomy"}, {"x_alpha_trichotomy"}),
    ("count_points_all", _count_moved, {"curve_count_membership", "curve_count_bridge"},
     {"curve_count_membership", "curve_count_bridge"}),
    ("classify_curves", _radius_moved, {"curve_count_membership"},
     {"curve_count_membership"}),
    ("enumerate_points", _fibre_dropped, {"aux_count_identity"}, {"aux_count_identity"}),
    ("count_n123", _n_fibre_dropped, {"aux_n_assembly"}, {"aux_n_assembly"}),
    ("count_n123", _eta_zeroed, {"aux_n_assembly"}, {"aux_n_assembly"}),
    ("fwht", _spectrum_moved, {"parseval"}, {"sigma4_cross_path"}),
]


def _failed(doc) -> set[str]:
    return {c["name"].split("[")[0] for c in doc["checks"] if c["hard"] and not c["pass"]}


@pytest.mark.parametrize("cmd", sorted(CONTROL_ARGV))
def test_negative_control_input_passes_unpatched(capsys, cmd):
    code, doc = run_json(capsys, *CONTROL_ARGV[cmd])
    assert code == 0 and not _failed(doc)


@pytest.mark.parametrize("cmd", sorted(CONTROL_ARGV))
@pytest.mark.parametrize("route,corruption,in_analyze,in_verify", NEGATIVE_CONTROLS,
                         ids=[f"{r}-{c.__name__.strip('_')}"
                              for r, c, *_ in NEGATIVE_CONTROLS])
def test_negative_control_fails_named_check(capsys, monkeypatch, cmd, route, corruption,
                                            in_analyze, in_verify):
    monkeypatch.setattr(cli, route, corruption(getattr(cli, route)))
    code, doc = run_json(capsys, *CONTROL_ARGV[cmd])
    failed = _failed(doc)
    assert code == 1
    assert (in_analyze if cmd == "analyze" else in_verify) <= failed, failed
    for c in doc["checks"]:  # a failing curve check names the first bad shift
        if c["name"].startswith("curve_count_") and not c["pass"]:
            assert "first at alpha=0x" in c["note"] and "X_alpha=" in c["note"], c
            if route in ("count_points_all", "classify_curves"):  # alpha = 1 corrupted
                assert "first at alpha=0x1:" in c["note"], c


@pytest.mark.parametrize("argv", [
    ("analyze", "--m", "7", "--checks", "predictor", "--g", '{"a7":"-0x3"}'),
    ("analyze", "--m", "7", "--checks", "spectrum", "--g", '{"a7":"-0x3"}'),
    ("analyze", "--m", "7", "--g", '{"a7":"0x3","b":{"1":"-0x1"},"s":1}'),
    ("verify", "--m", "5", "--g", '{"a7":"0x3","b":{"0":"-0x2"}}'),
    ("curve", "--m", "5", "--curve", '{"a":"0x1","b":"0x2","c":"-0x3","d":"0x0"}'),
    ("curve", "--m", "5", "--curve", '{"a":"-0x1","b":"0x2","c":"0x3","d":"0x0"}'),
])
def test_negative_coefficients_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "nonnegative" in err and not out


@pytest.mark.parametrize("argv", [
    ("verify", "--m", "5", "--count", "0"),
    ("scan", "--m", "5", "--count", "0"),
])
def test_empty_corpus_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "--count" in err


@pytest.mark.parametrize("cmd", ["scan", "verify"])
@pytest.mark.parametrize("seed,code", [("-1", 2), (str(2 ** 64), 2), ("0x1ffffffffffffffff", 2),
                                       ("0xffffffffffffffff", 0)])
def test_seed_outside_64_bits_exits_2(capsys, cmd, seed, code):
    # the generator keeps 64 bits of state: -1, 2^64 - 1 and 2^65 - 1 would
    # draw one corpus under three echoed seeds
    got, out, err = run(capsys, cmd, "--m", "5", "--count", "1", "--seed", seed)
    assert got == code
    assert ("--seed" in err and not out) if code else (out and not err)


@pytest.mark.parametrize("argv", [
    ("analyze", "--m", "7", "--checks", "bounds", "--g", '{"a7":"0x3","s":100000}'),
    ("analyze", "--m", "7", "--checks", "bounds", "--g", '{"a7":"0x3","s":7}'),
    ("analyze", "--m", "7", "--g", '{"a7":"0x3","b":{"9":"0x1"}}'),
    ("analyze", "--m", "7", "--g", '{"a7":"0x3","s":-1}'),
    ("scan", "--m", "5", "--s", "5", "--count", "1"),
    ("verify", "--m", "5", "--s", "-1", "--count", "1"),
])
def test_s_outside_field_exits_2(capsys, argv):
    # b_i with i >= m aliases b_(i mod m); huge s once overflowed the bound integers
    code, out, err = run(capsys, *argv)
    assert code == 2 and "s=" in err and not out


def test_largest_s_below_m_accepted(capsys):
    code, doc = run_json(capsys, "analyze", "--m", "5", "--checks", "spectrum,bounds",
                         "--g", '{"a7":"0x3","b":{"4":"0x1"}}')
    assert code == 0 and doc["config"]["g"]["s"] == 4


# determinism_hash of each report, recorded before the per-shift routes became
# whole-field array passes (the first four) and before the report sections
# became pure functions (the rest); a report must not change with its
# implementation.
PINNED = [
    (("verify", "--m", "9", "--s", "2", "--count", "1", "--seed", "0"),
     "8caee80e3a394d0d20e2e06af1aa769ae59ff4d6e0d0393d9d817493ba4d9606"),
    (("verify", "--m", "9", "--s", "2", "--count", "1", "--seed", "1"),
     "5c71321fa23636116ccabfec4a54b003e8b88704ae6f2c7dc2ddaf1ee8fdf185"),
    (("analyze", "--m", "9", "--checks", "predictor,auxcurve", "--g",
      '{"a7":"0x1F","b":{"0":"0x3","1":"0x8","2":"0x41"},"s":2}'),
     "f5ae1efeb9f0861a16af1e1dec10c2d7b9cf59fc70dd8f671e280b94ab2a69e3"),
    (("analyze", "--m", "7", "--checks", "genus2,autocorr", "--g",
      '{"a7":"0x5","b":{"1":"0x6","2":"0x2"},"s":2}'),
     "ad0b1f127b96e1308740b84d3547420436b5303c3be727af766c51a3fd04de39"),
    # every check on one G
    (("analyze", "--m", "9", "--g", '{"a7":"0x1F","b":{"0":"0x3","1":"0x8"},"s":1}'),
     "0afc1d3122d822d0b3c943cd501c2120c311317d614cd511071f4e2d8631bfce"),
    (("analyze", "--m", "11", "--checks", "spectrum,bounds", "--g",
      '{"a7":"0x5","b":{"2":"0x41"},"s":2}'),
     "d9a5b814925293de00841745faa1f616416a307b215efc9ff4f36c744261780c"),
    # genus2 without autocorr: X_alpha comes from the truth table alone
    (("analyze", "--m", "8", "--checks", "spectrum,bounds,genus2", "--g",
      '{"a7":"0x1D","b":{"1":"0x6"},"s":1}'),
     "0a988303450afce01f7fa523ecab87d66c22c9ed2b12eeffcf067081296e9333"),
    (("scan", "--m", "9", "--count", "20", "--s", "1", "--seed", "42"),
     "fdc484375b62f1fa1ae1a61a5a301f76231556179aa448b5272a6ba9cb0892a3"),
    (("curve", "--m", "7", "--curve", '{"a":"0x1","b":"0x2","c":"0x3","d":"0x0"}'),
     "fbb7e1e6ef72336067680f91d6f86117e5dc137987f63ce686a20e43ea283650"),
    (("verify", "--m", "7", "--count", "3", "--s", "1", "--seed", "5", "--checks",
      "predictor"),
     "4b6fabd4a7599955b55f32df1f33356a2b4bc596c13eb888a04d62b0d7be9c71"),
    (("verify", "--m", "7", "--count", "2", "--s", "2", "--seed", "7",
      "--selftest-negative"),
     "86dc4f5e787198b51b837c20c11df401f990b440084b2e53efedcc30a6037b0f"),
    # fields above 16 bits
    (("analyze", "--m", "17", "--checks", "spectrum,bounds,predictor,auxcurve", "--g",
      '{"a7":"0x1f3","b":{"0":"0x3"},"s":0}'),
     "34f9f4d21e9bb4656aebf323dac4a99db43f454ff17a6a2c198be11d104dc90f"),
    (("scan", "--m", "17", "--count", "2", "--s", "2"),
     "3a15afb576807168dcc534432dcbb5ef5aaf684411dec6b6d64abb8ab33b006b"),
    (("curve", "--m", "17", "--curve", '{"a":"0x1","b":"0x2","c":"0x3","d":"0x0"}'),
     "a166d120aec46ab093d051ed539e78e7ffb0f6f78ed1159e976a5e97f942a8c0"),
]


@pytest.mark.parametrize("argv,digest", PINNED)
def test_report_hashes_pinned(capsys, argv, digest):
    code, doc = run_json(capsys, *argv)
    assert code == (1 if "--selftest-negative" in argv else 0)
    assert doc["determinism_hash"] == digest


LEAN_SHA = """
import importlib.util, sys
import walshforge.cli
lean = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))
print(lean, "_hashlib" in sys.modules)
"""


def test_cli_import_leaves_openssl_unloaded():
    # hashlib loads libcrypto through _hashlib; the report hash takes the
    # builtin SHA-256 module whenever the interpreter has one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", LEAN_SHA], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lean, loaded = proc.stdout.split()
    assert loaded == "False" or lean == "False"


# -- one field per process ------------------------------------------------------

SPECTRUM_7 = ("analyze", "--m", "7", "--checks", "spectrum", "--g", '{"a7":"0x3"}')


def test_commands_share_one_field(monkeypatch, capsys):
    builds = []
    real_init = FieldCtx.__init__

    def counting_init(self, *args):
        builds.append(args)
        real_init(self, *args)

    monkeypatch.setattr(FieldCtx, "__init__", counting_init)
    cli._field.cache_clear()
    first = run_json(capsys, *SPECTRUM_7)[1]
    second = run_json(capsys, *SPECTRUM_7)[1]
    assert len(builds) == 1
    assert first["determinism_hash"] == second["determinism_hash"]
    # the default modulus spelt out is the same field
    run_json(capsys, *SPECTRUM_7, "--modulus", hex(default_modulus(7)))
    assert len(builds) == 1
    FieldCtx(7)  # a direct construction is never shared
    assert len(builds) == 2


def test_bad_modulus_exits_2_on_every_call(capsys):
    cli._field.cache_clear()
    for _ in range(2):
        code, out, err = run(capsys, *SPECTRUM_7, "--modulus", "0x82")
        assert code == 2 and not out and "reducible" in err


def test_cold_and_warm_runs_hash_alike(capsys):
    argv, digest = PINNED[4]
    assert argv[:3] == ("analyze", "--m", "9")
    cli._field.cache_clear()
    hashes = [run_json(capsys, *argv)[1]["determinism_hash"] for _ in range(2)]
    assert hashes == [digest, digest]


# m = 18 is the first size above the limit; the odd-only autocorr and verify
# reject it for its parity first, so they are refused at m = 19
@pytest.mark.parametrize("argv", [
    ("analyze", "--m", "19", "--slow", "--checks", "autocorr", "--g", '{"a7":"0x1"}'),
    ("analyze", "--m", "18", "--slow", "--checks", "genus2", "--g", '{"a7":"0x1"}'),
    ("analyze", "--m", "19", "--checks", "spectrum,autocorr", "--g", '{"a7":"0x1"}'),
    ("verify", "--m", "19", "--slow", "--count", "1"),
])
def test_x_alpha_table_size_refused_up_front(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "m <= 17" in err and not out


LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from walshforge.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ("analyze", "--m", "31", "--checks", "spectrum,predictor", "--g", '{"a7":"0x1"}'),
    ("scan", "--m", "31", "--count", "1"),
    ("curve", "--m", "31", "--curve", '{"a":"0x1","b":"0x0","c":"0x0","d":"0x0"}'),
])
def test_field_size_limit_refused_before_any_work(argv):
    # under a 1 GiB address-space cap, so a missing guard fails this test
    # with a MemoryError instead of filling the host's memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", LIMITED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "m=31 above 20" in proc.stderr and "Traceback" not in proc.stderr
    assert not proc.stdout


def test_verify_single_g(capsys):
    code, doc = run_json(capsys, "verify", "--m", "7", "--g",
                         '{"a7":"0x1","b":{"1":"0x1"},"s":1}')
    assert code == 0
    assert doc["summary"]["alphas_checked"] == 127
    assert doc["summary"]["mismatches"] == []


def test_curve_subcommand(capsys):
    code, doc = run_json(capsys, "curve", "--m", "3", "--curve",
                         '{"a":"0x1","b":"0x0","c":"0x0","d":"0x0"}')
    assert code == 0
    assert doc["summary"]["w"] == 1
    assert doc["summary"]["actual_count"] == 9
    assert doc["summary"]["predicted_counts"] == [9]


def test_curve_a_zero_exits_2(capsys):
    code, out, err = run(capsys, "curve", "--m", "5", "--curve",
                         '{"a":"0x0","b":"0x1","c":"0x0","d":"0x0"}')
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--m", "5", "--g", '{"a7":"0x3","b":[1]}'],
    ["analyze", "--m", "5", "--g", '{"a7":"0x3","s":1e999}'],
    ["analyze", "--m", "5", "--g", '{"b":{"0":"0x3"}}'],
    ["curve", "--m", "5", "--curve", '{"a":"0x1","b":"0x1","c":"0x0"}'],
    ["analyze", "--m", "5", "--g", '{"a7":"0x3"}', "--out", "{missing}/r.json"],
    # a --checks list that names no check would pass vacuously
    ["analyze", "--m", "5", "--checks", ",", "--g", '{"a7":"0x1"}'],
    ["analyze", "--m", "5", "--checks", " ", "--g", '{"a7":"0x1"}'],
    ["verify", "--m", "5", "--checks", ",", "--count", "1"],
    ["verify", "--m", "5", "--checks", " ", "--count", "1"],
    # verify runs no spectrum or bounds check, so naming one would pass vacuously too
    ["verify", "--m", "5", "--checks", "bounds", "--count", "1"],
    ["verify", "--m", "5", "--checks", "spectrum,genus2", "--count", "1"],
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["scan", "verify"])
def test_count_limit_refused_before_the_corpus(capsys, monkeypatch, cmd):
    def no_corpus(*args):
        raise AssertionError("corpus built past the --count limit")

    monkeypatch.setattr(cli, "standard_corpus", no_corpus)
    code, out, err = run(capsys, cmd, "--m", "5", "--count", str(cli.MAX_COUNT + 1))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "--count" in err


# JSON values of every type; coefficients are hex strings (some negative, some
# outside the field) about half the time, so that inputs also reach the checks
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=4)
COEF = st.sampled_from(["0x1", "0x3", "0x5", "0x1f", "0x25", "0x7f", "0x1ff", "0x0", "-0x3",
                        "zz", "", None, 7, 1.5, [], ["0x3"], {}, {"0": "0x3"}])
G_JSON = st.fixed_dictionaries({"a7": COEF}, optional={
    "b": st.dictionaries(st.integers(-1, 8).map(str) | st.text(max_size=2), COEF,
                         max_size=3) | JSON_VALUES,
    "s": st.integers(-1, 8) | JSON_VALUES,
    "x": JSON_VALUES})
CURVE_JSON = st.fixed_dictionaries({k: COEF for k in "abcd"}, optional={"x": JSON_VALUES})


# every CLI argument; fields stay at m <= 9 and corpora at --count <= 2, so an
# example that is not refused outright still finishes well inside the deadline
MODULUS = st.sampled_from(["0x25", "0x29", "0x83", "0x211", "0x27", "0x82", "0x3", "0x1",
                           "0", "-0x25", "25", "zz", ""])
INT_ARG = st.integers(-2, 9).map(str) | st.sampled_from(["0x1", "1.5", "zz", ""])
SEED_ARG = (st.integers(-2 ** 65, 2 ** 65).map(str)
            | st.sampled_from(["0x0", "0xffffffffffffffff", "0b101", "-0x5", "zz", ""]))
COUNT_ARG = st.integers(-1, 2).map(str) | st.sampled_from(["0x2", "zz", ""])
CHECKS_ARG = st.lists(st.sampled_from([*cli.ALL_CHECKS, "spectru", "", " "]),
                      max_size=4).map(",".join)
OPTIONS = st.fixed_dictionaries({}, optional={
    "--modulus": MODULUS, "--format": st.sampled_from(["json", "csv", "xml"]),
    "--seed": SEED_ARG, "--count": COUNT_ARG, "--s": INT_ARG, "--checks": CHECKS_ARG})
ACCEPTS = {"analyze": {"--modulus", "--format", "--checks"},
           "scan": {"--modulus", "--format", "--seed", "--count", "--s"},
           "verify": {"--modulus", "--format", "--seed", "--count", "--s", "--checks"},
           "curve": {"--modulus", "--format"}}


@settings(max_examples=100, deadline=2000)
@given(m=st.integers(2, 9), cmd=st.sampled_from(sorted(ACCEPTS)), options=OPTIONS,
       g=G_JSON, with_g=st.booleans(), curve=CURVE_JSON, missing_out=st.booleans())
def test_generated_inputs_never_raise(tmp_path_factory, m, cmd, options, g, with_g, curve,
                                      missing_out):
    argv = [cmd, "--m", str(m)]
    for flag, value in options.items():
        if flag in ACCEPTS[cmd]:
            argv += [flag, value]
    if cmd == "analyze" or (cmd == "verify" and with_g):
        argv += ["--g", json.dumps(g)]
    if cmd == "curve":
        argv += ["--curve", json.dumps(curve)]
    if missing_out:
        argv += ["--out", str(tmp_path_factory.getbasetemp() / "missing" / "r.json")]
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_curve_malformed_json_exits_2(capsys):
    code, out, err = run(capsys, "curve", "--m", "5", "--curve", "{broken")
    assert code == 2


def test_slow_gate(capsys):
    assert SLOW_M == 16
    code, out, err = run(capsys, "analyze", "--m", "16", "--g", '{"a7":"0x1"}',
                         "--checks", "spectrum,genus2")
    assert code == 2 and "--slow" in err
    code, out, err = run(capsys, "verify", "--m", "17", "--count", "1")
    assert code == 2 and "--slow" in err
    # one below the gate the X_alpha table runs without the flag
    code, doc = run_json(capsys, "analyze", "--m", "15", "--g", '{"a7":"0x1"}',
                         "--checks", "spectrum,autocorr")
    assert code == 0 and "sigma4_autocorr" in doc["summary"]
    # spectrum-only analysis is cheap and stays available without the flag
    code, doc = run_json(capsys, "analyze", "--m", "16", "--g", '{"a7":"0x1"}',
                         "--checks", "spectrum,bounds")
    assert code == 0


def test_csv_format(capsys):
    code, out, err = run(capsys, "analyze", "--m", "5", "--g", '{"a7":"0x1"}',
                         "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,lhs,rhs,relation,pass,hard,note"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "--m", "5", "--g", '{"a7":"0x1"}',
                         "--out", str(target))
    assert code == 0
    assert "PASS" in out and "hash=" in out
    doc = json.loads(target.read_text())
    assert doc["schema"] == "walsh-forge/1"


def test_custom_modulus(capsys):
    _, doc1 = run_json(capsys, "analyze", "--m", "5", "--g", '{"a7":"0x1"}')
    _, doc2 = run_json(capsys, "analyze", "--m", "5", "--modulus", "0x29",
                       "--g", '{"a7":"0x1"}')
    assert doc1["config"]["modulus"] == "0x25"
    assert doc2["config"]["modulus"] == "0x29"
    # structural invariants agree across representations
    assert doc1["summary"]["nl"] == doc2["summary"]["nl"]
    assert doc1["summary"]["sigma4_spectrum"] == doc2["summary"]["sigma4_spectrum"]


def test_negative_modulus_exits_2_without_hanging():
    # in a subprocess with a timeout, so a hang fails the test instead of CI
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-m", "walshforge.cli", "analyze", "--m", "5",
                           "--modulus=-0x25", "--g", '{"a7":"0x3"}', "--checks", "spectrum"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "positive" in proc.stderr and not proc.stdout


def test_reader_closing_stdout_early_is_no_error():
    # the report is larger than a pipe buffer, so the write is still going
    # when the reader stops after one line
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    with subprocess.Popen([sys.executable, "-m", "walshforge.cli", "scan", "--m", "9",
                           "--count", "1000", "--s", "1"], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_scan_refuses_g(capsys):
    # scan samples its corpus and has no use for one G
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--m", "5", "--g", '{"a7":"0x1"}'])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and "unrecognized arguments: --g" in err and not out


def test_bad_modulus_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--m", "5", "--modulus", "0x27",
                         "--g", '{"a7":"0x1"}')
    assert code == 2
