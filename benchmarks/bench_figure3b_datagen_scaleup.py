"""Figure 3b — DATAGEN scale-up: generation time vs SF vs worker count.

The paper measures wall-clock generation time for SF 30/300/1000 on 1, 3
and 10 Hadoop nodes.  This generator is one serial pipeline, so the
benchmark *measures* serial generation at three miniature SFs and prints
the Amdahl projection of those stage timings at 2, 4 and 10 nodes
(:meth:`repro.datagen.pipeline.DatagenTimings.projected_seconds`, the
substituted model of DESIGN.md §2.3) next to it.  The paper's shape
assertions run against the projection.
"""

from __future__ import annotations

import time

from repro.bench import emit_artifact, format_table
from repro.datagen import DatagenConfig
from repro.datagen.pipeline import DatagenPipeline

SCALE_FACTORS = (0.003, 0.01, 0.03)
NODES = (2, 4, 10)


def _measure(sf: float):
    """One full generation run; returns (wall seconds, stage timings)."""
    pipeline = DatagenPipeline(DatagenConfig.for_scale_factor(sf, seed=42))
    started = time.perf_counter()
    pipeline.run()
    return time.perf_counter() - started, pipeline.timings


def test_figure3b_datagen_scaleup(benchmark):
    runs = {sf: _measure(sf) for sf in SCALE_FACTORS}
    benchmark.pedantic(_measure, args=(SCALE_FACTORS[0],), rounds=1,
                       iterations=1)

    rows = []
    for sf in SCALE_FACTORS:
        seconds, timings = runs[sf]
        rows.append([f"{sf:g}", round(seconds, 3)]
                    + [round(timings.projected_seconds(nodes), 3)
                       for nodes in NODES])
    emit_artifact("figure3b_datagen_scaleup", format_table(
        ["SF", "measured 1 node"]
        + [f"projected {nodes} nodes" for nodes in NODES], rows,
        title="Figure 3b — generation seconds vs scale factor "
              "(measured serial; Amdahl projection of its stage "
              "timings alongside)"))

    # Shape: larger SF → slower.
    series = [runs[sf][0] for sf in SCALE_FACTORS]
    assert series == sorted(series)
    # The Amdahl projection must improve with nodes (most of the
    # pipeline partitions), mirroring the paper's scale-up curve.
    for sf in SCALE_FACTORS:
        timings = runs[sf][1]
        projected = [timings.projected_seconds(nodes)
                     for nodes in (1,) + NODES]
        assert projected == sorted(projected, reverse=True)
    big = runs[SCALE_FACTORS[-1]][1]
    assert big.projected_seconds(10) < 0.5 * big.projected_seconds(1)
