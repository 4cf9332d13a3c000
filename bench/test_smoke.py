"""Smoke test of the benchmark's own code, at one second per run.

    python3 -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced, and checks that the
result line holds exactly the metric names and units ``BENCHMARK.json``
declares.  Also checks the span arithmetic and that the benchmark refuses
to run without the package source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import END, START, Tracer, summarize  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    spec = _spec()
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc_table3", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + traced_inner()

    traced_inner = tracer.wrap(inner, "kinematics")
    tracer.wrap(outer, "measurement")()
    outer_rec, first, second = tracer.spans
    totals = summarize(tracer.spans)
    children = (first[END] - first[START]) + (second[END] - second[START])
    assert totals["measurement"]["self_ns"] == outer_rec[END] - outer_rec[START] - children
    assert totals["kinematics"]["calls"] == 2
    assert first[4] == second[4] == 0  # both children point at the outer span


def test_error_counted_once_where_raised():
    tracer = Tracer()

    def leaf():
        raise ValueError("out of domain")

    traced_leaf = tracer.wrap(leaf, "geometry")
    with pytest.raises(ValueError):
        tracer.wrap(lambda: traced_leaf(), "identification")()
    totals = summarize(tracer.spans)
    assert totals["geometry"]["errors"] == 1
    assert totals["identification"]["errors"] == 0


def test_speed_correction_cancels_machine_speed():
    from run import speed_corrected

    # the machine's speed swings by 2x; the package is 1.2x the yardstick
    ref = [0.010, 0.020, 0.011, 0.019, 0.100, 0.200, 0.110, 0.190]
    classes = ["a", "a", "a", "a", "b", "b", "b", "b"]
    res = {"classes": classes, "ref_latencies": ref, "latencies": [1.2 * b for b in ref]}
    n, m = speed_corrected(res)
    assert n == pytest.approx([1.2 * x for x in m])
    assert m == pytest.approx([0.015] * 4 + [0.15] * 4)
