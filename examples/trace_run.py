"""Trace a tiny driver run and write a Chrome trace to trace.json.

Run:  python examples/trace_run.py [out.json]

Open the resulting file in chrome://tracing (about:tracing) or
https://ui.perfetto.dev to see the span hierarchy: each scheduler
partition is a track; operations nest connector dispatch, query
execution, and — on the engine SUT — every engine operator with its
``tuples_out`` count.
"""

from __future__ import annotations

import sys

from repro import telemetry
from repro.core.connector import InteractiveConnector
from repro.core.sut import EngineSUT
from repro.curation import ParameterCurator
from repro.datagen import DatagenConfig, generate
from repro.driver import DriverConfig, WorkloadDriver
from repro.engine.catalog import load_catalog
from repro.workload.operations import ReadOperation


def main(out_path: str = "trace.json") -> None:
    # 1. A small network and the relational catalog for the engine SUT.
    network = generate(DatagenConfig(num_persons=120, seed=9))
    catalog = load_catalog(network)
    params = ParameterCurator(network, seed=9).curate(3)

    # 2. A short complex-read stream (Q2, Q9, Q13 — three plan shapes).
    operations = []
    due = 1_000_000
    for query_id in (2, 9, 13):
        for binding in params.by_query[query_id]:
            operations.append(ReadOperation(
                query_id=query_id, params=binding,
                due_time=due, walk_seed=due))
            due += 1_000

    # 3. Run it with tracing on; every layer records spans.
    tracer = telemetry.enable(fresh_registry=True)
    connector = InteractiveConnector(EngineSUT(catalog), seed=9)
    driver = WorkloadDriver(connector, DriverConfig(num_partitions=2))
    report = driver.run(operations)
    telemetry.disable()

    # 4. Export and summarize.
    written = telemetry.write_chrome_trace(tracer, out_path)
    print(f"{report.metrics.operations} operations, "
          f"{written} spans -> {out_path}")
    print()
    print(telemetry.render_span_summary(tracer))
    print()
    print("open the file in about:tracing or ui.perfetto.dev")


if __name__ == "__main__":
    main(*sys.argv[1:2])
