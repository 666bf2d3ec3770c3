"""Record the correctness hashes and the baseline of the benchmark in run.py.

    python3 perfbench/baseline.py hashes --seeds 0-9     # writes perfbench/hashes.json
    python3 perfbench/baseline.py measure --seeds 0-9    # writes perfbench/baseline.json

``hashes`` runs every input of every workload once per seed and stores the
report's ``determinism_hash``; run.py then fails any command whose hash
differs.  ``measure`` runs run.py once per workload and seed with tracing off,
``SETS`` times over, and once per workload with tracing on, and stores each
end-to-end metric's runs, median and quartile spread (as a share of the
median) next to its bound from BENCHMARK.json, the traced layer table, and
facts about the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BASELINE = run.HERE / "baseline.json"
SPEC = json.loads(run.BENCHMARK.read_text())
SETS = 2  # two sets of the same code must agree within the bounds


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_hashes(seeds: list[int]) -> None:
    sys.path.insert(0, str(run.SRC))
    table: dict[str, dict[str, list[str]]] = {}
    for wl in run.WORKLOADS.values():
        for seed in seeds:
            runner = run.Runner(wl, seed)
            runner.expected = [None] * len(runner.inputs)  # record, do not compare
            for k in range(len(runner.inputs)):
                runner.run(k)
            if runner.failed:
                raise SystemExit(f"{wl.name} seed {seed}: {runner.errors}")
            table.setdefault(wl.name, {})[str(seed)] = runner.expected
            print(f"{wl.name} seed {seed}: {[d[:12] for d in runner.expected]}", flush=True)
    run.HASHES.write_text(json.dumps(table, indent=1) + "\n")


def bench(workload: str, seed: int, trace: int) -> dict:
    """One run of run.py, invoked the way BENCHMARK.json's command is."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=run.REPO, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(caches, key=lambda p: int((p / "level").read_text()), default=None)
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "llc": (f"L{(llc / 'level').read_text().strip()} {(llc / 'size').read_text().strip()}"
                    if llc else "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__}


def measure(seeds: list[int]) -> None:
    e2e_spec = {m["name"]: m for m in SPEC["end_to_end"]}
    out = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "seeds": seeds,
           "workloads": {}}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for wl in run.WORKLOADS.values():
        runs = [[bench(wl.name, s, 0) for s in seeds] for _ in range(SETS)]
        e2e = {}
        for name, m in e2e_spec.items():
            per_set = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            stats = [spread(vals) for vals in per_set]
            sign = 1 if m["better"] == "lower" else -1
            # how much worse each later set's median is than the first's, as a share
            worse = [sign * (st["median"] - stats[0]["median"]) / stats[0]["median"]
                     for st in stats[1:]]
            e2e[name] = {"unit": m["unit"], "bound": m["bound"], "runs": per_set,
                         "sets": stats, "later_median_worse_by": worse}
            print(f"{wl.name:20s} {name:16s} " + "  ".join(
                f"median={st['median']:.5g} spread={st['iqr_over_median']:.4f}"
                for st in stats) + f"  worse_by={[round(w, 4) for w in worse]}"
                f"  bound={m['bound']}", flush=True)
        traced = bench(wl.name, seeds[0], 1)
        layers = json.loads((run.OUT / f"layers-{wl.name}.json").read_text())
        overhead = traced["metrics"]["trace.overhead_ms"]["value"]
        plain_ms = 1000.0 * e2e["cmd_s.p50"]["sets"][0]["median"]
        out["workloads"][wl.name] = {
            "why": why[wl.name], "argv_example": run.make_inputs(wl, seeds[0])[0],
            "end_to_end": e2e,
            "slowest_run_wall_s": max(r["wall_s"] for rs in runs for r in rs),
            "traced_run_wall_s": traced["wall_s"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "tracing_overhead": {"ms_per_cmd": overhead,
                                 "share_of_untraced_cmd": overhead / plain_ms},
            "layer_table": layers,
        }
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("hashes", "measure"))
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = ap.parse_args()
    if args.what == "hashes":
        record_hashes(parse_seeds(args.seeds))
    else:
        measure(parse_seeds(args.seeds))


if __name__ == "__main__":
    main()
