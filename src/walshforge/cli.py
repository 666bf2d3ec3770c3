"""Command-line front end for reproducible verification runs.

Subcommands:
    analyze  norms, both sigma4 routes, trichotomy counts and bounds for one G
    scan     seeded corpus of G; spectral rows plus aggregate bound checks
    verify   full per-shift predictor-vs-measured agreement (+ aux curve)
    curve    radical/point-count classification of one quintic curve

Exit codes: 0 all hard checks pass, 1 a mathematical check failed, 2 usage or
configuration error.  Reports carry a determinism hash over everything except
the metadata block, so two runs with the same config and seed hash identically
regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__
from .boolfn import TracePoly, reduce_difference_all, tracepoly_from_json, truth_table
from .field import FieldCtx
from .genus2 import classify, classify_curves, count_points, count_points_all, curve_from_json
from .spectrum import divisibility_check, fwht, l4_fourth, linf, nonlinearity, parseval_ok
from .autocorr import sigma_autocorr, sigma_decomposition, x_alpha_all, x_alpha_from_bits
from .classify7 import (check_linf_lower, check_linf_upper, check_sigma_bound,
                        classify_all, count_n0_n)
from .auxcurve import count_n123, enumerate_points, gamma_of, s7_sum
from .corpus import standard_corpus
from .report import Check, Report, compare

ALL_CHECKS = ("spectrum", "autocorr", "predictor", "bounds", "auxcurve", "genus2")
ODD_ONLY_CHECKS = ("autocorr", "predictor", "auxcurve")
SLOW_M = 13
SCHEMA = "walsh-forge/1"


class UsageError(Exception):
    pass


def _read_arg_or_file(value: str) -> str:
    v = value.strip()
    if v.startswith("{"):
        return v
    try:
        with open(v, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {value!r}: {exc}") from exc


def _build_ctx(args) -> FieldCtx:
    try:
        modulus = int(args.modulus, 16) if args.modulus else None
        return FieldCtx(args.m, modulus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_checks(args, m: int) -> tuple[str, ...]:
    if args.checks:
        sel = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        unknown = [c for c in sel if c not in ALL_CHECKS]
        if unknown:
            raise UsageError(f"unknown checks {unknown}; available: {','.join(ALL_CHECKS)}")
    else:
        sel = ALL_CHECKS
    if m % 2 == 0:
        for c in sel:
            if c in ODD_ONLY_CHECKS:
                raise UsageError(f"check '{c}' requires odd m, got m={m}")
    return sel


def _require_slow(args) -> None:
    if args.m >= SLOW_M and not args.slow:
        raise UsageError(
            f"m={args.m} runs an O(q^2) sweep; pass --slow to confirm")


def _load_g(args, ctx: FieldCtx) -> TracePoly | None:
    if not args.g:
        return None
    try:
        g = tracepoly_from_json(_read_arg_or_file(args.g))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    top = max([g.a7, *g.b])
    if top >= ctx.q:
        raise UsageError(f"coefficient {top:#x} outside field of size 2^{ctx.m}")
    _check_s(g.s, ctx)
    return g


def _check_s(s: int, ctx: FieldCtx) -> None:
    # x^(2^i+1) = x^(2^(i mod m)+1) on GF(2^m), so b_i with i >= m is an alias
    if not 0 <= s < ctx.m:
        raise UsageError(f"s={s} outside 0..m-1={ctx.m - 1}: b_i with i >= m "
                         f"aliases b_(i mod m)")


def _corpus(args, ctx: FieldCtx) -> list[TracePoly]:
    if args.count < 1:
        raise UsageError(f"{args.cmd} needs --count >= 1")
    _check_s(args.s, ctx)
    return standard_corpus(ctx.q, args.count, args.s, args.seed)


def _g_echo(g: TracePoly) -> dict:
    return {"a7": hex(g.a7), "b": {str(i): hex(b) for i, b in enumerate(g.b) if b},
            "s": g.s}


def _spectrum_section(ctx, g, checks: list[Check], want_bounds: bool) -> dict:
    spec = fwht(truth_table(ctx, g))
    lv = linf(spec)
    sigma_spec = l4_fourth(spec)
    row = {"linf": lv, "nl": nonlinearity(spec), "sigma4_spectrum": sigma_spec}
    checks.append(compare("parseval", int((spec.values.astype(object) ** 2).sum()),
                          "==", ctx.q * ctx.q))
    if want_bounds:
        div = divisibility_check(spec, 3)
        checks.append(compare("walsh_divisibility", lv % div["divisor"], "==", 0,
                              note=f"divisor {div['divisor']}"))
        checks.append(check_sigma_bound(ctx, g, sigma_spec))
        checks.extend(check_linf_lower(ctx, g, lv))
        checks.append(check_linf_upper(ctx, lv))
    return row


def _autocorr_section(ctx, g, checks: list[Check], sigma_spec: int | None,
                      table) -> dict:
    sigma_auto = sigma_autocorr(table)
    row = {"sigma4_autocorr": sigma_auto}
    if sigma_spec is not None:
        checks.append(compare("sigma4_cross_path", sigma_auto, "==", sigma_spec))
    try:
        dec = sigma_decomposition(table)
        row.update(dec)
        checks.append(Check(name="x_alpha_trichotomy", lhs="all alpha",
                            rhs="{0,2q,8q}", relation="in", passed=True))
        checks.append(compare("sigma4_decomposition",
                              ctx.q ** 2 + 2 * ctx.q * dec["N0"] + 8 * ctx.q * dec["N"],
                              "==", sigma_auto))
    except ValueError as exc:
        checks.append(Check(name="x_alpha_trichotomy", lhs=str(exc), rhs="{0,2q,8q}",
                            relation="in", passed=False))
    return row


def _predictor_section(ctx, g, checks: list[Check], measured: dict | None) -> dict:
    counted = count_n0_n(ctx, g)
    row = {"predicted_N0": counted["N0"], "predicted_N": counted["N"],
           "predicted_Z": counted["Z"]}
    if measured is not None and "N0" in measured:
        checks.append(compare("predicted_counts_match",
                              counted["N0"] * 10 ** 9 + counted["N"], "==",
                              measured["N0"] * 10 ** 9 + measured["N"],
                              note="(N0, N) predictor vs autocorrelation"))
    checks.extend(counted["bounds_report"])
    return row


def _genus2_section(ctx, g, checks: list[Check], table=None, tag: str = ""):
    """Third route: every shift's reduced quintic must land in the count set its
    symplectic data predicts, and (count - q - 1)^2 must reproduce X_alpha.

    Returns the report row and the per-shift arrays (entry k is alpha = k+1)."""
    a, b, c, d = reduce_difference_all(ctx, g)
    curves = classify_curves(ctx, a, b, c)
    n = count_points_all(ctx, a, b, c, d)
    if table is not None:
        xa = table.x[1:]
    else:
        bits = truth_table(ctx, g)
        xa = np.array([x_alpha_from_bits(bits, alpha) for alpha in range(1, ctx.q)])
    dev = n - ctx.q - 1
    bad_member = int(np.count_nonzero(np.abs(dev) != curves.radius))
    bad_bridge = int(np.count_nonzero(dev * dev != xa))
    checks.append(compare(f"curve_count_membership{tag}", bad_member, "==", 0,
                          note=f"{ctx.q - 1} shifts"))
    checks.append(compare(f"curve_count_bridge{tag}", bad_bridge, "==", 0,
                          note="(count-q-1)^2 vs X_alpha"))
    w_hist = Counter(curves.w.tolist())
    row = {"w_histogram": {str(k): v for k, v in sorted(w_hist.items())}}
    return row, {"a": a, "b": b, "c": c, "d": d, "count": n, "w": curves.w}


def _auxcurve_section(ctx, g, checks: list[Check], predicted_n: int | None) -> dict:
    gamma = gamma_of(ctx, g)
    pts = enumerate_points(ctx, gamma)
    s7 = s7_sum(ctx, gamma)
    checks.append(compare("aux_count_identity", pts.count_total, "==", s7 + ctx.q + 1))
    checks.append(compare("aux_s7_weil", s7 * s7, "<=", 36 * ctx.q))
    counted = count_n123(ctx, g, pts)
    checks.extend(counted["bounds"])
    if predicted_n is not None:
        checks.append(compare("aux_n_assembly", counted["N_assembled"], "==", predicted_n))
    return {"gamma": hex(gamma), "S7": s7, "aux_points": len(pts.points),
            "N1": counted["N1"], "N2": counted["N2"], "N3": counted["N3"],
            "N_assembled": counted["N_assembled"]}


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> Report:
    ctx = _build_ctx(args)
    checks_sel = _resolve_checks(args, args.m)
    if "autocorr" in checks_sel or "genus2" in checks_sel:
        _require_slow(args)
    g = _load_g(args, ctx)
    if g is None:
        raise UsageError("analyze needs --g")
    checks: list[Check] = []
    summary: dict = {}
    table = None
    if "spectrum" in checks_sel or "bounds" in checks_sel:
        summary.update(_spectrum_section(ctx, g, checks, "bounds" in checks_sel))
    if "autocorr" in checks_sel:
        table = x_alpha_all(ctx, g, threads=args.threads)
        summary.update(_autocorr_section(ctx, g, checks,
                                         summary.get("sigma4_spectrum"), table))
    if "predictor" in checks_sel:
        summary.update(_predictor_section(ctx, g, checks, summary))
    if "genus2" in checks_sel:
        summary.update(_genus2_section(ctx, g, checks, table)[0])
    if "auxcurve" in checks_sel:
        summary.update(_auxcurve_section(ctx, g, checks, summary.get("predicted_N")))
    config = {"cmd": "analyze", "m": ctx.m, "modulus": hex(ctx.modulus),
              "g": _g_echo(g), "checks": list(checks_sel)}
    return Report(schema=SCHEMA, config=config, checks=checks, summary=summary)


def cmd_scan(args) -> Report:
    ctx = _build_ctx(args)
    corpus = _corpus(args, ctx)
    rows = []
    checks: list[Check] = []
    min_linf = ctx.q + 1
    max_linf = min_nl = -1
    for i, g in enumerate(corpus):
        spec = fwht(truth_table(ctx, g))
        lv, nl, s4 = linf(spec), nonlinearity(spec), l4_fourth(spec)
        rows.append({"index": i, **_g_echo(g), "linf": lv, "nl": nl, "sigma4": s4})
        if not parseval_ok(spec):
            checks.append(Check(name=f"parseval[{i}]", lhs="sum", rhs=str(ctx.q ** 2),
                                relation="==", passed=False))
        for chk in (check_sigma_bound(ctx, g, s4), *check_linf_lower(ctx, g, lv),
                    check_linf_upper(ctx, lv)):
            if not chk.passed:
                chk.name = f"{chk.name}[{i}]"
                checks.append(chk)
        min_linf, max_linf = min(min_linf, lv), max(max_linf, lv)
        min_nl = nl if min_nl < 0 else min(min_nl, nl)
    checks.append(compare("aggregate_linf_upper", max_linf ** 2, "<=", 36 * ctx.q))
    checks.append(compare("aggregate_linf_lower", min_linf ** 2, ">=", 2 * ctx.q,
                          hard=ctx.m % 2 == 1 and ctx.m <= 11 + 2 * args.s))
    config = {"cmd": "scan", "m": ctx.m, "modulus": hex(ctx.modulus),
              "corpus": {"seed": args.seed, "count": args.count, "s": args.s}}
    return Report(schema=SCHEMA, config=config, checks=checks,
                  summary={"rows": rows, "min_linf": min_linf, "max_linf": max_linf,
                           "min_nl": min_nl})


def cmd_verify(args) -> Report:
    if args.m % 2 == 0:
        raise UsageError(f"check 'predictor' requires odd m, got m={args.m}")
    _require_slow(args)
    ctx = _build_ctx(args)
    checks_sel = _resolve_checks(args, args.m)
    g0 = _load_g(args, ctx)
    corpus = [g0] if g0 is not None else _corpus(args, ctx)
    checks: list[Check] = []
    mismatches: list[dict] = []
    alphas = 0
    total_mism = 0
    for gi, g in enumerate(corpus):
        table = x_alpha_all(ctx, g, threads=args.threads)
        summary_g: dict = {"sigma4_spectrum": None}
        spec = fwht(truth_table(ctx, g))
        sigma_spec = l4_fourth(spec)
        checks.append(compare(f"sigma4_cross_path[{gi}]", sigma_autocorr(table),
                              "==", sigma_spec))
        try:
            dec = sigma_decomposition(table)
        except ValueError as exc:
            checks.append(Check(name=f"x_alpha_trichotomy[{gi}]", lhs=str(exc),
                                rhs="{0,2q,8q}", relation="in", passed=False))
            dec = None
        shifts = classify_all(ctx, g)
        predicted = shifts.predicted.copy()
        if args.selftest_negative and gi == 0:
            predicted[0] = 0 if predicted[0] else 2 * ctx.q  # alpha = 1
        wrong = np.flatnonzero(predicted != table.x[1:])
        alphas += ctx.q - 1
        total_mism += len(wrong)
        records = [(k, {"g": gi, "alpha": hex(k + 1), "predicted": int(predicted[k]),
                        "measured": int(table.x[k + 1]),
                        "lambda_zero": bool(shifts.lambda_zero[k]),
                        "ell": hex(int(shifts.ell[k])), "eta": hex(int(shifts.eta[k])),
                        "v": hex(int(shifts.v[k])) if shifts.v[k] >= 0 else None})
                   for k in wrong[:10 - len(mismatches)]]
        mismatches.extend(rec for _, rec in records)
        counted = count_n0_n(ctx, g, shifts)
        if dec is not None:
            checks.append(compare(f"predicted_counts_match[{gi}]",
                                  counted["N0"] * 10 ** 9 + counted["N"], "==",
                                  dec["N0"] * 10 ** 9 + dec["N"]))
        for chk in counted["bounds_report"]:
            chk.name = f"{chk.name}[{gi}]"
            checks.append(chk)
        if "genus2" in checks_sel:
            _, route = _genus2_section(ctx, g, checks, table, tag=f"[{gi}]")
            for k, rec in records:
                rec["curve"] = {key: hex(int(route[key][k])) for key in "abcd"}
                rec["count"] = int(route["count"][k])
                rec["w"] = int(route["w"][k])
        if "auxcurve" in checks_sel:
            before = len(checks)
            _auxcurve_section(ctx, g, checks, counted["N"])
            for chk in checks[before:]:
                chk.name = f"{chk.name}[{gi}]"
    checks.insert(0, compare("predictor_oracle_agreement", total_mism, "==", 0,
                             note=f"{alphas} shifts checked"))
    config = {"cmd": "verify", "m": ctx.m, "modulus": hex(ctx.modulus),
              "g": _g_echo(g0) if g0 else None,
              "corpus": None if g0 else {"seed": args.seed, "count": args.count, "s": args.s},
              "checks": list(checks_sel),
              "selftest_negative": bool(args.selftest_negative)}
    return Report(schema=SCHEMA, config=config, checks=checks,
                  summary={"alphas_checked": alphas, "mismatches": mismatches})


def cmd_curve(args) -> Report:
    ctx = _build_ctx(args)
    if not args.curve:
        raise UsageError("curve needs --curve (JSON or file)")
    try:
        cv = curve_from_json(_read_arg_or_file(args.curve))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if max(cv.a, cv.b, cv.c, cv.d) >= ctx.q:
        raise UsageError("curve coefficient outside the field")
    data = classify(ctx, cv)
    actual = count_points(ctx, cv)
    checks = [
        Check(name="count_in_predicted_set", lhs=actual,
              rhs=str(sorted(data.predicted_counts)), relation="in",
              passed=actual in data.predicted_counts),
        compare("w_parity", data.w % 2, "==", ctx.m % 2),
    ]
    config = {"cmd": "curve", "m": ctx.m, "modulus": hex(ctx.modulus),
              "curve": {k: hex(getattr(cv, k)) for k in ("a", "b", "c", "d")}}
    return Report(schema=SCHEMA, config=config, checks=checks,
                  summary={"w": data.w, "V_equals_W": data.V_equals_W,
                           "predicted_counts": sorted(data.predicted_counts),
                           "actual_count": actual})


# ---------------------------------------------------------------------------

def _emit(report: Report, args, elapsed_ms: float) -> None:
    report.meta = {
        "tool": "walshforge",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_ms": round(elapsed_ms, 3),
        "threads": getattr(args, "threads", 1),
    }
    if args.format == "json":
        text = json.dumps(report.as_dict(), indent=2)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "lhs", "rhs", "relation", "pass", "hard", "note"])
        for c in report.checks:
            w.writerow([c.name, c.lhs, c.rhs, c.relation, c.passed, c.hard, c.note])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        verdict = "PASS" if report.hard_pass() else "FAIL"
        print(f"{report.config['cmd']}: {verdict} "
              f"(checks={len(report.checks)}, hash={report.determinism_hash()})")
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="extension degree of the field")
    p.add_argument("--modulus", help="irreducible modulus as hex bitmask, e.g. 0x25")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the X_alpha sweep (never affects results)")
    p.add_argument("--slow", action="store_true",
                   help=f"allow O(q^2) sweeps at m >= {SLOW_M}")


def _add_g_source(p: argparse.ArgumentParser, with_corpus: bool) -> None:
    p.add_argument("--g", "--G", dest="g", help="G as JSON (inline or file path)")
    if with_corpus:
        p.add_argument("--seed", type=lambda v: int(v, 0), default=0,
                       help="64-bit corpus seed")
        p.add_argument("--count", "--trials", dest="count", type=int, default=1,
                       help="number of sampled G")
        p.add_argument("--s", type=int, default=0,
                       help="largest quadratic-part index for sampled G")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged, and a
    # rebuild per call costs callers that run many commands in one process
    # time and resident memory that grows with the number of commands
    parser = argparse.ArgumentParser(
        prog="walshforge",
        description="Spectral, autocorrelation and curve-count verification for "
                    "Tr(a7*x^7 + sum b_i*x^(2^i+1)) on GF(2^m).")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="one G: norms, both sigma4 routes, bounds")
    _add_common(p)
    _add_g_source(p, with_corpus=False)
    p.add_argument("--checks", help=f"comma list from {{{','.join(ALL_CHECKS)}}}")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="seeded corpus: spectral rows + aggregates")
    _add_common(p)
    _add_g_source(p, with_corpus=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="per-shift predictor vs measured X_alpha")
    _add_common(p)
    _add_g_source(p, with_corpus=True)
    p.add_argument("--checks", help=f"comma list from {{{','.join(ALL_CHECKS)}}}")
    p.add_argument("--selftest-negative", action="store_true",
                   help="flip one prediction to prove mismatches are caught")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="classify one quintic curve")
    _add_common(p)
    p.add_argument("--curve", help='curve JSON {"a":"0x..",...} (inline or file)')
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not hasattr(args, "checks"):
        args.checks = None
    start = time.monotonic()
    try:
        report = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args, (time.monotonic() - start) * 1000.0)
    return 0 if report.hard_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
