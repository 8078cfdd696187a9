"""Ablation — driver execution modes (paper §4.2's design rationale).

The paper motivates the Sequential mode: "when dependent operations
occur at high frequency ... the benefit of parallel execution might be
negated by the cost of dependency tracking", and the Windowed mode:
fewer T_GC synchronizations.  This bench quantifies both on the
SF10-profile stream: throughput per mode, plus how many IT/CT
registrations each mode performs (sequential's "dramatically reduces
overhead" claim, measured).
"""

from __future__ import annotations

from repro.bench import emit_artifact, format_table
from repro.driver import (
    DriverConfig,
    ExecutionMode,
    SleepingConnector,
    WorkloadDriver,
)

from bench_table5_driver_scalability import synthetic_sf10_stream


def _run(ops, mode, window_millis=None):
    driver = WorkloadDriver(
        SleepingConnector(0.0005),
        DriverConfig(num_partitions=8, mode=mode,
                     window_millis=window_millis))
    report = driver.run(ops)
    tracked = sum(member.completed_count
                  for member in driver.gds._members)
    return report.ops_per_second, tracked


def test_ablation_driver_modes(benchmark):
    ops = synthetic_sf10_stream(num_ops=5000)
    results = {}
    results["parallel"] = _run(ops, ExecutionMode.PARALLEL)
    results["sequential"] = _run(ops, ExecutionMode.SEQUENTIAL)
    results["windowed"] = _run(ops, ExecutionMode.WINDOWED,
                               window_millis=900_000_000)
    benchmark.pedantic(_run, args=(ops, ExecutionMode.SEQUENTIAL),
                       rounds=1, iterations=1)

    rows = [[mode, round(ops_per_second), tracked]
            for mode, (ops_per_second, tracked) in results.items()]
    emit_artifact("ablation_driver_modes", format_table(
        ["mode", "ops/s (0.5ms connector, 8 partitions)",
         "IT/CT registrations"], rows,
        title="Ablation — execution modes on the SF10-profile stream"))

    # Sequential tracks only person-graph ops — orders of magnitude
    # fewer IT/CT registrations than parallel.
    assert results["sequential"][1] < results["parallel"][1] / 10
    assert results["windowed"][1] < results["parallel"][1] / 10
    # And sequential must not be slower than parallel here (the paper's
    # motivation for the mode).
    assert results["sequential"][0] > 0.6 * results["parallel"][0]
