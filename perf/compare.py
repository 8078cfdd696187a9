#!/usr/bin/env python3
"""Compare two result sets: ``python3 perf/compare.py A.json B.json``.

``A`` and ``B`` are files the suite (``perf/run.py`` without
``--trace``) wrote.  One row per end-to-end metric × workload, judged by
the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — either set's own spread (the distance between its
  quartiles as a share of its median) exceeds the bound, so the bound
  cannot tell a change from noise;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

The counts that must repeat exactly for a seed (scheduled operations and
per-class samples per pass, shard RPCs per operation, codec bytes) are
required to be identical; a difference means the two sets did not run
the same work and no timing row can be trusted.

Exits 1 on any regression or count mismatch.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that are counts of work, not timings.
EXACT_LAYER_METRICS = (
    "shard.rpcs_per_op.update", "shard.rpcs_per_op.short",
    "shard.rpcs_per_op.complex_light", "shard.rpcs_per_op.complex_heavy",
    "shard.request_bytes_per_op", "shard.response_bytes_per_op",
    "shard.multi_shard_update_share",
    "net.codec.request_bytes", "net.codec.response_bytes",
)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    low, __, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def worsening(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def compare(spec: dict, a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    rows, mismatches = [], []
    if a["seed"] != b["seed"] or a["scale"] != b["scale"]:
        mismatches.append(
            f"sets differ in seed/scale: {a['seed']}/{a['scale']} vs "
            f"{b['seed']}/{b['scale']}")
    for workload in spec["workloads"]:
        name = workload["name"]
        left, right = a["workloads"].get(name), b["workloads"].get(name)
        if left is None or right is None:
            continue
        for key in ("exact", "exact_traced"):
            if left[key] != right[key]:
                mismatches.append(
                    f"{name}: {key} {left[key]} != {right[key]}")
        for key in EXACT_LAYER_METRICS:
            if left["per_layer"][key] != right["per_layer"][key]:
                mismatches.append(
                    f"{name}: {key} {left['per_layer'][key]} != "
                    f"{right['per_layer'][key]}")
        for metric in spec["end_to_end"]:
            before = left["end_to_end"][metric["name"]]["values"]
            after = right["end_to_end"][metric["name"]]["values"]
            median_a = statistics.median(before)
            median_b = statistics.median(after)
            noise = max(spread(before), spread(after))
            worse = worsening(metric, median_a, median_b)
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append((name, metric["name"], metric["unit"], median_a,
                         median_b, worse, noise, metric["bound"], verdict))
    return rows, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        spec = json.load(source)
    sets = []
    for path in argv:
        with open(path) as source:
            sets.append(json.load(source))
    rows, mismatches = compare(spec, *sets)
    print(f"{'workload':12s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'unit':5s} {'worse':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for (name, metric, unit, median_a, median_b, worse, noise, bound,
         verdict) in rows:
        print(f"{name:12s} {metric:22s} {median_a:12.4f} {median_b:12.4f} "
              f"{unit:5s} {worse:+7.1%} {noise:7.1%} {bound:6.0%}  "
              f"{verdict}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    regressions = sum(row[-1] == "regression" for row in rows)
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"# {len(rows)} rows: {regressions} regression(s), "
          f"{unresolved} unresolved, {len(mismatches)} count mismatch(es)")
    return 1 if regressions or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
