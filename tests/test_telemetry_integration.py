"""End-to-end telemetry: driver runs produce loadable, nested traces.

The acceptance path of the subsystem: a driver run with tracing enabled
emits a valid Chrome trace-event JSON whose spans nest
``scheduler.partition.* → op.* → connector.execute → query.* →
engine.*``, and the scheduler's T_GC waits and the store's commits are
visible in the same trace.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.core.connector import InteractiveConnector
from repro.core.sut import EngineSUT, StoreSUT
from repro.driver import DriverConfig, WorkloadDriver
from repro.driver.modes import ExecutionMode
from repro.store import load_network
from repro.workload.operations import ReadOperation


@pytest.fixture()
def traced():
    tracer = telemetry.enable(fresh_registry=True)
    try:
        yield tracer
    finally:
        telemetry.disable()


def _read_stream(curated_params, query_ids=(9, 2, 13), count=2):
    ops = []
    due = 1_000_000
    for query_id in query_ids:
        for params in curated_params.by_query[query_id][:count]:
            ops.append(ReadOperation(query_id=query_id, params=params,
                                     due_time=due, walk_seed=due))
            due += 1_000
    return ops


def _parents(events):
    events = [event for event in events if event["ph"] != "M"]
    by_id = {event["args"]["span_id"]: event for event in events}

    def chain(event):
        names = [event["name"]]
        current = event
        while current["args"]["parent_id"] is not None:
            current = by_id[current["args"]["parent_id"]]
            names.append(current["name"])
        return names

    return chain


class TestDriverTraceHierarchy:
    def test_chrome_trace_nests_scheduler_to_engine(
            self, loaded_catalog, curated_params, traced, tmp_path):
        """The acceptance criterion: load the trace back, assert the
        scheduler → connector → query → engine-operator hierarchy."""
        connector = InteractiveConnector(EngineSUT(loaded_catalog),
                                         seed=11)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2, mode=ExecutionMode.PARALLEL))
        driver.run(_read_stream(curated_params))

        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(traced, path)
        document = json.loads(path.read_text())
        events = [event for event in document["traceEvents"]
                  if event["ph"] != "M"]
        assert document["displayTimeUnit"] == "ms"
        assert all(event["ph"] == "X" for event in events)

        chain = _parents(events)
        engine_events = [event for event in events
                         if event["name"].startswith("engine.")]
        assert engine_events, "no engine-operator spans in the trace"
        # Every engine-operator span sits under the full driver stack.
        for event in engine_events:
            names = chain(event)
            assert names[-1].startswith("scheduler.partition."), names
            kinds = [name.split(".", 1)[0] for name in names]
            for required in ("query", "connector", "op", "scheduler"):
                assert required in kinds, names
            # connector wraps query, op wraps connector, in that order.
            assert kinds.index("query") < kinds.index("connector") \
                < kinds.index("op") < kinds.index("scheduler")

    def test_engine_spans_carry_tuples_out(self, loaded_catalog,
                                           curated_params, traced):
        connector = InteractiveConnector(EngineSUT(loaded_catalog),
                                         seed=11)
        driver = WorkloadDriver(connector, DriverConfig(num_partitions=1))
        driver.run(_read_stream(curated_params, query_ids=(9,)))
        engine_spans = [span for span in traced.finished_spans()
                        if span.name.startswith("engine.")]
        assert engine_spans
        for span in engine_spans:
            assert "tuples_out" in span.attributes
            assert span.attributes["tuples_out"] >= 0

    def test_short_reads_traced_inside_connector(
            self, loaded_store, curated_params, traced):
        connector = InteractiveConnector(StoreSUT(loaded_store), seed=11)
        driver = WorkloadDriver(connector, DriverConfig(num_partitions=1))
        driver.run(_read_stream(curated_params, query_ids=(9, 2)))
        if connector.short_reads_executed == 0:
            pytest.skip("walk produced no short reads for these seeds")
        short = [span for span in traced.finished_spans()
                 if span.name.startswith("query.S")]
        assert len(short) == connector.short_reads_executed


class TestUpdateRunTraced:
    def test_store_commits_nest_under_ops(self, split, traced):
        store = load_network(split.bulk)
        driver = WorkloadDriver(StoreSUT(store), DriverConfig(
            num_partitions=2, mode=ExecutionMode.PARALLEL))
        driver.run(split.updates[:200])
        spans = traced.finished_spans()
        by_id = {span.span_id: span for span in spans}
        commits = [span for span in spans if span.name == "store.commit"]
        assert commits
        for span in commits:
            parent = by_id[span.parent_id]
            assert parent.name.startswith("update.ADD_")
            assert by_id[parent.parent_id].name.startswith("op.ADD_")
            assert span.attributes["inserts"] + span.attributes["edges"] \
                > 0

    def test_driver_metrics_bridged_to_registry(self, split, traced):
        store = load_network(split.bulk)
        driver = WorkloadDriver(StoreSUT(store), DriverConfig(
            num_partitions=2, mode=ExecutionMode.PARALLEL))
        report = driver.run(split.updates[:200])
        registry = telemetry.get_registry()
        snapshot = registry.snapshot()
        assert snapshot["driver.operations"] == 200
        assert snapshot["driver.throughput_ops"] == pytest.approx(
            report.metrics.throughput)
        name = next(iter(report.metrics.per_class))
        stats = report.metrics.per_class[name]
        assert snapshot[f"driver.latency_ms.{name}.p99"] == pytest.approx(
            stats.p99_ms)

    def test_gc_waits_recorded(self, split, traced):
        store = load_network(split.bulk)
        driver = WorkloadDriver(StoreSUT(store), DriverConfig(
            num_partitions=4, mode=ExecutionMode.PARALLEL))
        driver.run(split.updates[:500])
        waits = [span for span in traced.finished_spans()
                 if span.name == "scheduler.wait.gc"]
        histogram = telemetry.get_registry().histogram(
            telemetry.GC_WAIT_HISTOGRAM)
        assert len(waits) == histogram.count
        breakdown = telemetry.wait_time_breakdown(traced)
        assert len(breakdown) == 4
        for entry in breakdown.values():
            assert entry["total"] >= 0.0


class TestDatagenTrace:
    def test_pipeline_stages_become_spans(self, traced):
        from repro.datagen import DatagenConfig, generate

        generate(DatagenConfig(num_persons=30, seed=5))
        names = {span.name for span in traced.finished_spans()
                 if span.name.startswith("datagen.")}
        assert {"datagen.universe", "datagen.persons",
                "datagen.friendships", "datagen.activity"} <= names


class TestCliTrace:
    def test_benchmark_trace_flag_writes_chrome_json(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        code = main(["benchmark", "--persons", "100", "--partitions",
                     "2", "--sut", "engine", "--trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace written" in out
        assert "scheduler wait-time breakdown" in out
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        chain = _parents(events)
        engine_events = [event for event in events
                         if event["name"].startswith("engine.")]
        assert engine_events
        names = chain(engine_events[0])
        assert names[-1].startswith("scheduler.partition.")
        assert telemetry.active is False  # session closed cleanly

    def test_generate_trace_flag_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "datagen.jsonl"
        code = main(["generate", "--persons", "40", "--seed", "3",
                     "--trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "JSON-lines" in out
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert {"datagen.persons", "datagen.friendships"} \
            <= {record["name"] for record in records}
