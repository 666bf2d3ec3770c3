"""Command-line front end for reproducible verification runs.

Subcommands:
    analyze  norms, both sigma4 routes, trichotomy counts and bounds for one G
    scan     seeded corpus of G; spectral rows plus aggregate bound checks
    verify   full per-shift predictor-vs-measured agreement (+ aux curve)
    curve    radical/point-count classification of one quintic curve

analyze, scan and verify run one pipeline, ``_run_routes``, on each G; verify
shows the passing spectrum and autocorrelation checks only through
``sigma4_cross_path``.  Options must be spelled in full.

Each command writes one JSON report as one line, to stdout or to the ``--out``
file, in which case stdout gets a one-line verdict with the report's hash;
``python -m json.tool`` indents it for reading.
Exit codes: 0 all hard checks pass, 1 a mathematical check failed, 2 usage or
configuration error.  Reports carry a determinism hash over everything except
the metadata block, so two runs with the same config and seed hash identically.
Commands run in one process share the field context of their (m, modulus),
so a field's tables are built once per process.  Each command checks all of
its input before it builds a field, so a bad command exits 2 having spent no
field-sized work.  ``--threads``, and ``--slow`` on analyze and verify, are
accepted for compatibility and have no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import lru_cache, partial

import numpy as np

from . import __version__
from .boolfn import (TracePoly, reduce_difference_all, tracepoly_from_json,
                     tracepoly_to_dict, truth_table)
from .field import MAX_M, FieldCtx, default_modulus
from .genus2 import (classify, classify_curves, count_points, count_points_all,
                     curve_from_json, curve_to_dict)
from .spectrum import (amplitude_counts, divisibility_check, fwht, l4_fourth, linf,
                       nonlinearity, parseval_sum)
from .autocorr import X_ALPHA_MAX_M, sigma_autocorr, sigma_decomposition, x_alpha_all
from .classify7 import (_odd_m_bound, check_linf_lower, check_linf_upper, check_sigma_bound,
                        classify_all, count_n0_n, eta_all)
from .auxcurve import count_n123, enumerate_points, gamma_of, s7_sum
from .corpus import standard_corpus
from .report import Check, Report, compare

ALL_CHECKS = ("spectrum", "autocorr", "predictor", "bounds", "auxcurve", "genus2")
ODD_ONLY_CHECKS = ("autocorr", "predictor", "auxcurve")
TABLE_CHECKS = ("autocorr", "genus2")  # the routes that read the X_alpha table
MAX_COUNT = 2 ** 16  # largest scan/verify --count: the corpus is one list built up front
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


@lru_cache(maxsize=1)
def _field(m: int, modulus: int) -> FieldCtx:
    """The context every command of this process at (m, modulus) shares, so
    its tables are built once.  One entry: an idle process holds at most one
    field (at m = 20, 24 MB of log tables, plus 8 MB per uint64 and 4 MB per
    uint32 power word, 12 MB for G with s = 2; and genus2's tables, 11 MB at
    m = 17).  A ValueError is raised again on every call, never cached."""
    return FieldCtx(m, modulus)


def _build_ctx(args) -> FieldCtx:
    try:
        modulus = int(args.modulus, 16) if args.modulus else default_modulus(args.m)
        return _field(args.m, modulus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_m(m: int) -> None:
    # first of every command's checks: the others read 1 << m, an error at m < 0
    if m > MAX_M:
        raise UsageError(f"m={m} above {MAX_M}: every command holds "
                         "whole-field arrays of 2^m elements")
    if m < 2:
        raise UsageError(f"m={m} below 2: the smallest field here is GF(2^2)")


def _resolve_checks(args) -> tuple[str, ...]:
    if args.checks is None:
        return ALL_CHECKS
    sel = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    unknown = [c for c in sel if c not in ALL_CHECKS]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; available: {','.join(ALL_CHECKS)}")
    if not sel:
        raise UsageError(f"--checks {args.checks!r} names no check of {','.join(ALL_CHECKS)}")
    return sel


def _check_routes(m: int, routes: tuple[str, ...]) -> None:
    odd_only = [c for c in routes if c in ODD_ONLY_CHECKS]
    if m % 2 == 0 and odd_only:
        raise UsageError(f"check '{odd_only[0]}' requires odd m, got m={m}")
    if m > X_ALPHA_MAX_M and any(c in routes for c in TABLE_CHECKS):
        raise UsageError(f"m={m}: the X_alpha table (autocorr, genus2, verify) "
                         f"is limited to m <= {X_ALPHA_MAX_M}")


def _load_g(args) -> TracePoly | None:
    if not args.g:
        return None
    try:
        g = tracepoly_from_json(_read_arg_or_file(args.g))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    top = max([g.a7, *g.b])
    if top >= 1 << args.m:
        raise UsageError(f"coefficient {top:#x} outside field of size 2^{args.m}")
    _check_s(g.s, args.m)
    return g


def _check_s(s: int, m: int) -> None:
    # x^(2^i+1) = x^(2^(i mod m)+1) on GF(2^m), so b_i with i >= m is an alias
    if not 0 <= s < m:
        raise UsageError(f"s={s} outside 0..m-1={m - 1}: b_i with i >= m "
                         f"aliases b_(i mod m)")


def _corpus(args) -> list[TracePoly]:
    # the generator keeps 64 bits of state, so a wider seed would alias one
    if not 0 <= args.seed < 1 << 64:
        raise UsageError(f"--seed must be in [0, 2^64), got {args.seed:#x}")
    if not 1 <= args.count <= MAX_COUNT:
        raise UsageError(f"{args.cmd} needs 1 <= --count <= {MAX_COUNT}, got {args.count}")
    _check_s(args.s, args.m)
    return standard_corpus(1 << args.m, args.count, args.s, args.seed)


def _tagged(checks: list[Check], i: int) -> list[Check]:
    """The checks renamed ``name[i]``, for reports over several G."""
    return [replace(c, name=f"{c.name}[{i}]") for c in checks]


# ---------------------------------------------------------------------------
# report sections: each returns (summary row, checks) for one G

def _spectrum_section(ctx, g, counts, bounds: bool):
    lv, sigma = linf(counts), l4_fourth(counts)
    row = {"linf": lv, "nl": nonlinearity(counts), "sigma4_spectrum": sigma}
    checks = [compare("parseval", parseval_sum(counts), "==", ctx.q * ctx.q)]
    if bounds:
        divisor = divisibility_check(counts, 3)["divisor"]  # binary degree d = 3
        checks += [compare("walsh_divisibility", lv % divisor, "==", 0,
                           note=f"divisor {divisor}"),
                   check_sigma_bound(ctx, g, sigma), *check_linf_lower(ctx, g, lv),
                   check_linf_upper(ctx, lv)]
    return row, checks


def _autocorr_section(ctx, table, sigma_spec: int | None):
    sigma_auto = sigma_autocorr(table)
    row = {"sigma4_autocorr": sigma_auto}
    checks = []
    if sigma_spec is not None:
        checks.append(compare("sigma4_cross_path", sigma_auto, "==", sigma_spec))
    try:
        dec = sigma_decomposition(table)
    except ValueError as exc:
        checks.append(Check(name="x_alpha_trichotomy", lhs=str(exc), rhs="{0,2q,8q}",
                            relation="in", passed=False))
        return row, checks
    row.update(dec)
    checks += [Check(name="x_alpha_trichotomy", lhs="all alpha", rhs="{0,2q,8q}",
                     relation="in", passed=True),
               compare("sigma4_decomposition",
                       ctx.q ** 2 + 2 * ctx.q * dec["N0"] + 8 * ctx.q * dec["N"],
                       "==", sigma_auto)]
    return row, checks


def _predictor_section(ctx, g, shifts, measured: dict, note: str = ""):
    """Predicted counts from the classify_all arrays; compared with the
    autocorrelation counts when ``measured`` holds them."""
    counted = count_n0_n(ctx, g, shifts)
    row = {"predicted_N0": counted["N0"], "predicted_N": counted["N"],
           "predicted_Z": counted["Z"]}
    checks = []
    if "N0" in measured:
        checks.append(compare("predicted_counts_match",
                              counted["N0"] * 10 ** 9 + counted["N"], "==",
                              measured["N0"] * 10 ** 9 + measured["N"], note=note))
    return row, checks + counted["bounds_report"]


def _genus2_route(ctx, g) -> dict:
    """Third route for every shift: the reduced quintic, its point count and
    its radical (entry k is alpha = k + 1)."""
    a, b, c, d = reduce_difference_all(ctx, g)
    curves = classify_curves(ctx, a, b, c)
    return {"a": a, "b": b, "c": c, "d": d, "count": count_points_all(ctx, a, b, c, d),
            "w": curves.w, "radius": curves.radius}


def _genus2_section(ctx, route: dict, table):
    """Every shift's count must land in the set its symplectic data predicts,
    and (count - q - 1)^2 must reproduce X_alpha."""
    dev = route["count"] - ctx.q - 1
    checks = []
    for name, bad, note in (("curve_count_membership", np.abs(dev) != route["radius"],
                             f"{ctx.q - 1} shifts"),
                            ("curve_count_bridge", dev * dev != table[1:],
                             "(count-q-1)^2 vs X_alpha")):
        n_bad = int(np.count_nonzero(bad))
        if n_bad:  # name the first failing shift
            k = int(np.flatnonzero(bad)[0])
            note += (f"; first at alpha={k + 1:#x}: count={int(route['count'][k])}, "
                     f"radius={int(route['radius'][k])}, X_alpha={int(table[k + 1])}")
        checks.append(compare(name, n_bad, "==", 0, note=note))
    w_hist = np.bincount(route["w"])
    return {"w_histogram": {str(k): int(v) for k, v in enumerate(w_hist) if v}}, checks


def _auxcurve_section(ctx, g, eta, predicted_n: int | None):
    """The auxiliary curve's checks; ``eta`` is G's eta at every shift."""
    gamma = gamma_of(ctx, g)
    pts = enumerate_points(ctx, gamma)
    s7 = s7_sum(ctx, gamma)
    counted = count_n123(ctx, g, pts, eta)
    checks = [compare("aux_count_identity", pts.count_total, "==", s7 + ctx.q + 1),
              compare("aux_s7_weil", s7 * s7, "<=", 36 * ctx.q), *counted["bounds"]]
    if predicted_n is not None:
        checks.append(compare("aux_n_assembly", counted["N_assembled"], "==", predicted_n))
    return ({"gamma": hex(gamma), "S7": s7, "aux_points": len(pts.points),
             "N1": counted["N1"], "N2": counted["N2"], "N3": counted["N3"],
             "N_assembled": counted["N_assembled"]}, checks)


def _run_routes(ctx, g, routes, note: str = ""):
    """Run the named routes (of ALL_CHECKS) on one G: (summary row, checks,
    arrays).  The truth table is built once, and the X_alpha "table", the
    "shifts" and the "genus2" route, kept in ``arrays``, only where read."""
    summary: dict = {}
    checks: list[Check] = []

    def add(section) -> None:
        row, section_checks = section
        summary.update(row)
        checks.extend(section_checks)

    spectral = "spectrum" in routes or "bounds" in routes
    with_table = any(c in routes for c in TABLE_CHECKS)
    bits = truth_table(ctx, g) if spectral or with_table else None
    arrays = {"table": x_alpha_all(ctx, bits) if with_table else None}
    if spectral:
        add(_spectrum_section(ctx, g, amplitude_counts(fwht(bits)), "bounds" in routes))
    if "autocorr" in routes:
        add(_autocorr_section(ctx, arrays["table"], summary.get("sigma4_spectrum")))
    if "predictor" in routes:
        arrays["shifts"] = classify_all(ctx, g)
        add(_predictor_section(ctx, g, arrays["shifts"], summary, note))
    if "genus2" in routes:
        arrays["genus2"] = _genus2_route(ctx, g)
        add(_genus2_section(ctx, arrays["genus2"], arrays["table"]))
    if "auxcurve" in routes:
        eta = arrays["shifts"].eta if "shifts" in arrays else eta_all(ctx, g)
        add(_auxcurve_section(ctx, g, eta, summary.get("predicted_N")))
    return summary, checks, arrays


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> Report:
    checks_sel = _resolve_checks(args)
    _check_routes(args.m, checks_sel)
    g = _load_g(args)
    if g is None:
        raise UsageError("analyze needs --g")
    ctx = _build_ctx(args)
    summary, checks, _ = _run_routes(ctx, g, checks_sel,
                                     note="(N0, N) predictor vs autocorrelation")
    config = {"cmd": "analyze", "m": ctx.m, "modulus": hex(ctx.modulus),
              "g": tracepoly_to_dict(g), "checks": list(checks_sel)}
    return Report(schema=SCHEMA, config=config, checks=checks, summary=summary)


def cmd_scan(args) -> Report:
    corpus = _corpus(args)
    ctx = _build_ctx(args)
    rows = []
    checks: list[Check] = []
    for i, g in enumerate(corpus):
        row, g_checks, _ = _run_routes(ctx, g, ("bounds",))
        rows.append({"index": i, **tracepoly_to_dict(g), "linf": row["linf"],
                     "nl": row["nl"], "sigma4": row["sigma4_spectrum"]})
        # a scan reports only the checks that fail
        checks += _tagged([c for c in g_checks if not c.passed], i)
    min_linf = min(r["linf"] for r in rows)
    max_linf = max(r["linf"] for r in rows)
    checks.append(compare("aggregate_linf_upper", max_linf ** 2, "<=", 36 * ctx.q))
    lower = compare("aggregate_linf_lower", min_linf ** 2, ">=", 2 * ctx.q,
                    hard=ctx.m % 2 == 1 and ctx.m <= 11 + 2 * args.s)
    # a failure at even m says why it is soft, as the per-G rows a scan shows
    # do; a passing aggregate keeps its empty note
    checks.append(lower if lower.passed else _odd_m_bound(ctx, lower))
    config = {"cmd": "scan", "m": ctx.m, "modulus": hex(ctx.modulus),
              "corpus": {"seed": args.seed, "count": args.count, "s": args.s}}
    return Report(schema=SCHEMA, config=config, checks=checks,
                  summary={"rows": rows, "min_linf": min_linf, "max_linf": max_linf,
                           "min_nl": min(r["nl"] for r in rows)})


def cmd_verify(args) -> Report:
    checks_sel = _resolve_checks(args)
    if args.checks is not None and {"spectrum", "bounds"} & set(checks_sel):
        raise UsageError("verify always runs the spectrum, autocorr and predictor routes, "
                         "and --checks adds genus2 and auxcurve; "
                         "analyze --checks shows the spectrum and bounds checks")
    routes = ("spectrum", "autocorr", "predictor",
              *(c for c in ("genus2", "auxcurve") if c in checks_sel))
    _check_routes(args.m, routes)
    g0 = _load_g(args)
    corpus = [g0] if g0 is not None else _corpus(args)
    ctx = _build_ctx(args)
    checks: list[Check] = []
    mismatches: list[dict] = []
    alphas = len(corpus) * (ctx.q - 1)
    total_mism = 0
    for gi, g in enumerate(corpus):
        _, g_checks, arrays = _run_routes(ctx, g, routes)
        # of the spectrum and autocorrelation checks, verify shows the
        # cross-path one, and the others only when they fail
        checks += _tagged([c for c in g_checks if not c.passed or c.name not in
                           ("parseval", "x_alpha_trichotomy", "sigma4_decomposition")], gi)
        table, shifts, route = arrays["table"], arrays["shifts"], arrays.get("genus2")
        predicted = shifts.predicted.copy()
        if args.selftest_negative and gi == 0:
            predicted[0] = 0 if predicted[0] else 2 * ctx.q  # alpha = 1
        wrong = np.flatnonzero(predicted != table[1:])
        total_mism += len(wrong)
        for k in wrong[:10 - len(mismatches)]:
            rec = {"g": gi, "alpha": hex(k + 1), "predicted": int(predicted[k]),
                   "measured": int(table[k + 1]), "lambda_zero": bool(shifts.lambda_zero[k]),
                   "ell": hex(int(shifts.ell[k])), "eta": hex(int(shifts.eta[k])),
                   "v": hex(int(shifts.v[k])) if shifts.v[k] >= 0 else None}
            if route is not None:
                rec.update(curve={key: hex(int(route[key][k])) for key in "abcd"},
                           count=int(route["count"][k]), w=int(route["w"][k]))
            mismatches.append(rec)
    checks.insert(0, compare("predictor_oracle_agreement", total_mism, "==", 0,
                             note=f"{alphas} shifts checked"))
    config = {"cmd": "verify", "m": ctx.m, "modulus": hex(ctx.modulus),
              "g": tracepoly_to_dict(g0) if g0 else None,
              "corpus": None if g0 else {"seed": args.seed, "count": args.count, "s": args.s},
              "checks": list(checks_sel),
              "selftest_negative": bool(args.selftest_negative)}
    return Report(schema=SCHEMA, config=config, checks=checks,
                  summary={"alphas_checked": alphas, "mismatches": mismatches})


def cmd_curve(args) -> Report:
    if not args.curve:
        raise UsageError("curve needs --curve (JSON or file)")
    try:
        cv = curve_from_json(_read_arg_or_file(args.curve))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if max(cv.a, cv.b, cv.c, cv.d) >= 1 << args.m:
        raise UsageError("curve coefficient outside the field")
    ctx = _build_ctx(args)
    data = classify(ctx, cv)
    actual = count_points(ctx, cv)
    checks = [
        Check(name="count_in_predicted_set", lhs=actual,
              rhs=str(sorted(data.predicted_counts)), relation="in",
              passed=actual in data.predicted_counts),
        compare("w_parity", data.w % 2, "==", ctx.m % 2),
    ]
    config = {"cmd": "curve", "m": ctx.m, "modulus": hex(ctx.modulus),
              "curve": curve_to_dict(cv)}
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
        "threads": args.threads,
    }
    doc = report.as_dict()
    text = json.dumps(doc)  # one line, from json's C encoder; an indent needs its Python one
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc.strerror}") from exc
        verdict = "PASS" if report.hard_pass() else "FAIL"
        print(f"{report.config['cmd']}: {verdict} "
              f"(checks={len(report.checks)}, hash={doc['determinism_hash']})")
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser, slow: bool = False) -> None:
    p.add_argument("--m", type=int, required=True, help="extension degree of the field")
    p.add_argument("--modulus", help="irreducible modulus as hex bitmask, e.g. 0x25")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and echoed in the report's meta; has no effect")
    if slow:  # analyze and verify: the benchmark's analyze commands pass it
        p.add_argument("--slow", action="store_true", help="accepted for compatibility; no effect")


def _add_g(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", help="G as JSON (inline or file path)")


def _add_corpus(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0,
                   help="corpus seed, an integer in [0, 2^64)")
    p.add_argument("--count", type=int, default=1,
                   help="number of sampled G")
    p.add_argument("--s", type=int, default=0,
                   help="largest quadratic-part index for sampled G")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged, and a
    # rebuild per call costs callers that run many commands in one process
    # time and resident memory that grows with the number of commands
    parser = argparse.ArgumentParser(
        prog="walshforge", allow_abbrev=False,
        description="Spectral, autocorrelation and curve-count verification for "
                    "Tr(a7*x^7 + sum b_i*x^(2^i+1)) on GF(2^m).")
    sub = parser.add_subparsers(dest="cmd", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)  # each option has one spelling

    p = add("analyze", help="one G: norms, both sigma4 routes, bounds")
    _add_common(p, slow=True)
    _add_g(p)
    p.add_argument("--checks", help=f"comma list from {{{','.join(ALL_CHECKS)}}}")
    p.set_defaults(func=cmd_analyze)

    p = add("scan", help="seeded corpus: spectral rows + aggregates")
    _add_common(p)
    _add_corpus(p)
    p.set_defaults(func=cmd_scan)

    p = add("verify", help="per-shift predictor vs measured X_alpha")
    _add_common(p, slow=True)
    _add_g(p)
    _add_corpus(p)
    p.add_argument("--checks", help="comma list from {autocorr,predictor,genus2,auxcurve}; "
                                    "autocorr and predictor always run")
    p.add_argument("--selftest-negative", action="store_true",
                   help="flip one prediction to prove mismatches are caught")
    p.set_defaults(func=cmd_verify)

    p = add("curve", help="classify one quintic curve")
    _add_common(p)
    p.add_argument("--curve", help='curve JSON {"a":"0x..",...} (inline or file)')
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        _check_m(args.m)
        report = args.func(args)
        _emit(report, args, (time.monotonic() - start) * 1000.0)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; point it at /dev/null so that the
        # interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.hard_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
