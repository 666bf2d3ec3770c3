"""Closed-loop benchmark of the walshforge command line, one workload per process.

    python3 perfbench/run.py --workload three-route-verify --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30   # every workload in turn

Each command is a ``walshforge.cli.main(argv)`` call with ``--threads 1``,
issued only after the previous one returns, the way a researcher's script
drives the tool.  A run cycles through ``INPUTS_PER_RUN`` inputs drawn from
``--seed`` until ``--seconds`` have passed.  Every report is checked: exit
code 0, every hard check passed, the expected number of functions carried
through, and a ``determinism_hash`` equal to the one in ``hashes.json`` for
that workload, seed and input (or, for a seed not recorded there, equal on
every repeat within the run).

``--trace 0`` prints the end-to-end metrics:

* ``functions_per_s``: functions carried through every check, over the total
  wall time of the timed commands;
* ``cmd_s.p50``: the median wall time of one command;
* ``setup_s``: the median of fresh-interpreter set-up samples taken every
  ``SETUP_EVERY_S`` during the run (import walshforge and walshforge.cli,
  then ``FieldCtx(m).ensure_tables()``);
* ``peak_rss_mb``: this process's ``ru_maxrss``;

then, for reading only, a high percentile of command time, the sample counts
and ``failed_frac``.  ``--trace 1`` runs each command untraced and
then traced (see ``run_traced`` and ``tracer.py``), prints the per-layer
metrics, the tracing overhead and the full layer table, and writes the spans
to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
HASHES = HERE / "hashes.json"
BENCHMARK = REPO / "BENCHMARK.json"

INPUTS_PER_RUN = 4
SETUP_EVERY_S = 1.0
SUBPROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    functions_per_cmd: int

    @property
    def q(self) -> int:
        return 1 << self.m


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("spectral-scan", 15, 64),
    Workload("three-route-verify", 9, 1),
    Workload("autocorr-sweep", 13, 1),
    Workload("algebraic-cold", 9, 1),
)}


def make_inputs(workload: Workload, seed: int) -> list[list[str]]:
    """The argv lists of one run; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload.name}/{seed}")
    common = ["--m", str(workload.m), "--threads", "1"]
    out = []
    for _ in range(INPUTS_PER_RUN):
        if workload.name in ("spectral-scan", "three-route-verify"):
            cmd = "scan" if workload.name == "spectral-scan" else "verify"
            out.append([cmd, *common, "--s", "2", "--count", str(workload.functions_per_cmd),
                        "--seed", str(rng.getrandbits(64))])
            continue
        g = json.dumps({"a7": hex(1 + rng.randrange(workload.q - 1)),
                        "b": {str(i): hex(rng.randrange(workload.q)) for i in range(3)},
                        "s": 2})
        checks = ("spectrum,autocorr" if workload.name == "autocorr-sweep"
                  else "predictor,auxcurve")
        out.append(["analyze", *common, "--slow", "--checks", checks, "--g", g])
    return out


def functions_in(report: dict, workload: Workload) -> int:
    """Functions the report carried through every requested check."""
    summary = report["summary"]
    if workload.name == "spectral-scan":
        return len(summary["rows"])
    if workload.name == "three-route-verify":
        return summary["alphas_checked"] // (workload.q - 1)
    key = "sigma4_autocorr" if workload.name == "autocorr-sweep" else "N_assembled"
    return int(key in summary)


def check_report(rc: int, text: str, workload: Workload, expected_hash: str | None):
    """(functions, hash, error); error is None when the command passed."""
    if rc != 0:
        return 0, None, f"exit code {rc}"
    try:
        report = json.loads(text)
        digest = report["determinism_hash"]
        failed = [c["name"] for c in report["checks"] if c["hard"] and not c["pass"]]
        n = functions_in(report, workload)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return 0, None, f"malformed report: {exc!r}"
    if failed:
        return 0, digest, f"hard checks failed: {failed[:5]}"
    if expected_hash is not None and digest != expected_hash:
        return 0, digest, f"determinism_hash {digest[:16]} != expected {expected_hash[:16]}"
    if n != workload.functions_per_cmd:
        return 0, digest, f"{n} functions carried through, expected {workload.functions_per_cmd}"
    return n, digest, None


class Runner:
    """Runs commands in this process and applies the correctness gate."""

    def __init__(self, workload: Workload, seed: int):
        from walshforge.cli import main
        self.cli_main = main
        self.workload = workload
        self.inputs = make_inputs(workload, seed)
        recorded = json.loads(HASHES.read_text()) if HASHES.exists() else {}
        self.expected: list[str | None] = list(
            recorded.get(workload.name, {}).get(str(seed), [None] * len(self.inputs)))
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run(self, k: int, span=contextlib.nullcontext):
        """Run input k once; returns (seconds, functions carried through)."""
        argv = self.inputs[k]
        buf = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with span(), contextlib.redirect_stdout(buf):
                rc = self.cli_main(argv)
        except SystemExit as exc:  # argparse rejects a flag by exiting
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command, not a crashed run
            rc, err = None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        if rc is not None:
            n, digest, err = check_report(rc, buf.getvalue(), self.workload, self.expected[k])
            if self.expected[k] is None and digest is not None:
                self.expected[k] = digest
        if err is not None:
            self.failed += 1
            self.errors.append(f"input {k}: {err}")
            return dt, 0
        return dt, n


def setup_sample(workload: Workload) -> float:
    """One fresh interpreter's time to import walshforge and walshforge.cli,
    then build FieldCtx(m) with ensure_tables(): the fixed cost of a CLI call."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import walshforge, walshforge.cli\n"
            "from walshforge.field import FieldCtx\n"
            "FieldCtx(int(sys.argv[2])).ensure_tables()\n"
            "print(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(workload.m)],
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout)


def run_plain(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, plus informational figures for the human-readable lines.

    The speed of a shared 2-vCPU VM drifts as other tenants load the host, so
    set-up samples are interleaved with the commands rather than taken in a
    block, and times are summarised by medians and totals over the whole run.
    """
    wl = runner.workload
    setup_sample(wl)  # untimed: fills the bytecode cache
    runner.run(0)  # untimed: first-call costs inside this process
    times, setups, functions = [], [], 0
    start = time.perf_counter()
    next_setup = start
    while time.perf_counter() < start + seconds or len(times) < len(runner.inputs):
        if time.perf_counter() >= next_setup:
            setups.append(setup_sample(wl))
            next_setup = time.perf_counter() + SETUP_EVERY_S
            continue
        dt, n = runner.run(len(times) % len(runner.inputs))
        times.append(dt)
        functions += n
    metrics = {
        "functions_per_s": (functions / sum(times), "fn/s"),
        "cmd_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"commands": (len(times), "count"), "setup_samples": (len(setups), "count")}
    pct = int(100 * (1 - 10 / len(times)))  # the highest with ten samples above it
    if pct > 50:
        info[f"cmd_s.p{pct}"] = (statistics.quantiles(times, n=100)[pct - 1], "s")
    return metrics, info


def traced_run(runner: Runner, tracer, k: int) -> float:
    """Run input k with ``tracer`` installed, under command id k."""
    with tracer.installed():
        dt, _ = runner.run(k % len(runner.inputs), span=lambda: tracer.command_span(k))
    return dt


def run_traced(runner: Runner, seconds: float):
    """Each input runs untraced, then under the span tracer, then under a
    second tracer that also counts scalar field calls; only the first tracer's
    times are used, and the overhead is its time minus the untraced time."""
    from tracer import Tracer
    timer, counter = Tracer(), Tracer(count_calls=True)
    runner.run(0)
    overhead = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not overhead or time.perf_counter() < deadline:
        plain, _ = runner.run(k % len(runner.inputs))
        overhead.append(traced_run(runner, timer, k) - plain)
        traced_run(runner, counter, k)
        k += 1
    return timer, {**timer.layer_table(), **counter.call_counts()}, k, statistics.median(overhead)


def layer_metrics(table: dict, commands: int, workload: Workload, overhead_s: float) -> dict:
    """The per_layer metrics of BENCHMARK.json.  ``<group>.<stat>`` is read from
    the layer table and given per traced command; the ratios are per function."""
    fns = commands * workload.functions_per_cmd
    derived = {
        "classify7.sweeps_per_function":
            table["classify7.classify_alpha"]["calls"] / ((workload.q - 1) * fns),
        "field.mul_raw_per_function": table["field.mul_raw"]["calls_outside_setup"] / fns,
        "trace.overhead_ms": overhead_s * 1000.0,
    }
    out = {}
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            group, stat = name.rsplit(".", 1)
            value = table[group].get(stat, 0) / commands  # a stat absent from a call is 0
        out[name] = (value, metric["unit"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "walshforge" / "__init__.py").is_file():
        print(f"error: no walshforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run([sys.executable, __file__, "--workload", name,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]).returncode
        return status

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    runner = Runner(workload, args.seed)
    if args.trace:
        timer, table, commands, overhead_s = run_traced(runner, args.seconds)
        OUT.mkdir(exist_ok=True)
        timer.save(OUT / f"spans-{workload.name}.npz")
        (OUT / f"layers-{workload.name}.json").write_text(json.dumps(table, indent=1))
        for group, row in sorted(table.items(), key=lambda kv: -kv[1].get("ms", 0)):
            print(f"{workload.name}  layer {group:32s} "
                  + "  ".join(f"{k}={v:.6g}" for k, v in row.items()))
        metrics = layer_metrics(table, commands, workload, overhead_s)
        info = {"commands": (commands, "count")}
    else:
        metrics, info = run_plain(runner, args.seconds)
    for err in runner.errors[:10]:
        print(f"{workload.name}  FAILED {err}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{workload.name}  {name} = {value:.6g} {unit}")
    print(f"{workload.name}  failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} commands)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
