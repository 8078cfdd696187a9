"""Smoke test of the benchmark harness: ``pytest perf/tests``.

Not part of tier-1 (``testpaths`` is ``tests``).  Every workload runs
at ``--scale smoke`` through the same entry point the driver uses.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _source:
    SPEC = json.load(_source)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_emits_the_end_to_end_metrics(workload):
    result = invoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_the_per_layer_metrics_and_a_sound_trace(workload):
    result = invoke(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert math.isfinite(metric["value"]), name

    spans = tracing.read_chrome_trace(
        os.path.join(PERF_DIR, "out", f"trace-{workload}.json"))
    by_id = {span.id: span for span in spans}
    roots = [span for span in spans if span.parent == 0]
    assert "driver.run" in {span.name for span in roots}
    for span in spans:
        if span.parent == 0:
            continue
        parent = by_id[span.parent]  # KeyError: the parent is missing
        if parent.parent != 0:
            assert span.op_id == parent.op_id, span
        assert span.op_id != 0, span
    own = tracing.self_times(spans)
    assert min(own.values()) >= -1e-9  # float rounding only
    run = next(span for span in roots if span.name == "driver.run")
    accounted = sum(tracing.layer_self_times(
        tracing.descendants_of(spans, run.id)).values())
    assert accounted >= 0.9 * run.duration
