"""Self-test of the benchmark harness on small fields.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

# the real workloads' command shapes, on fields small enough for a unit test
SMALL_M = {"spectral-scan": 7, "three-route-verify": 5, "autocorr-sweep": 7,
           "algebraic-cold": 7}


def small(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], m=SMALL_M[name])


def test_tracer_sees_calls_through_names_imported_into_cli():
    wl = dataclasses.replace(small("three-route-verify"), functions_per_cmd=1)
    runner = run.Runner(wl, seed=0)
    runner.inputs = [["verify", "--m", "5", "--s", "1", "--count", "1", "--threads", "1"]]
    runner.expected = [None]
    tracer = Tracer()
    run.traced_run(runner, tracer, 0)
    table = tracer.layer_table()
    assert runner.failed == 0, runner.errors
    # once from cmd_verify's predict_x_alpha loop, once from count_n0_n
    assert table["classify7.classify_alpha"]["calls"] == 2 * (wl.q - 1)
    assert table["boolfn.truth_table"]["calls"] == 2  # cli's own import of the name
    assert table["cli"]["calls"] == 1
    # the originals are back once the block exits
    import walshforge.cli
    import walshforge.classify7
    assert walshforge.cli.truth_table.__module__ == "walshforge.boolfn"
    assert not hasattr(walshforge.classify7.classify_alpha, "__wrapped__")


@pytest.mark.parametrize("name", sorted(SMALL_M))
def test_tracing_leaves_every_determinism_hash_unchanged(name):
    runner = run.Runner(small(name), seed=3)
    runner.expected = [None] * len(runner.inputs)
    timer, counter = Tracer(), Tracer(count_calls=True)
    for k in range(len(runner.inputs)):
        runner.run(k)
        run.traced_run(runner, timer, k)  # checked against the untraced run's hash
        run.traced_run(runner, counter, k)
    assert runner.attempted == 3 * len(runner.inputs)
    assert runner.failed == 0, runner.errors
    assert "field.mul" not in timer.layer_table()  # the timed pass carries no counters
    table = {**timer.layer_table(), **counter.call_counts()}
    assert table["cli"]["calls"] == len(runner.inputs)
    assert table["cli"]["self_ms"] <= table["cli"]["ms"]
    # every per_layer metric BENCHMARK.json declares resolves on every workload
    metrics = run.layer_metrics(table, len(runner.inputs), runner.workload, 0.0)
    declared = json.loads(run.BENCHMARK.read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]


def test_hash_mismatch_counts_as_failed():
    runner = run.Runner(small("spectral-scan"), seed=0)
    runner.expected = ["0" * 64] + [None] * (len(runner.inputs) - 1)
    runner.run(0)
    runner.run(1)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "determinism_hash" in runner.errors[0]


def test_inputs_depend_only_on_workload_and_seed():
    wl = run.WORKLOADS["autocorr-sweep"]
    assert run.make_inputs(wl, 5) == run.make_inputs(wl, 5)
    assert run.make_inputs(wl, 5) != run.make_inputs(wl, 6)
