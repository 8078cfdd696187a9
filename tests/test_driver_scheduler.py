"""Tests for the workload scheduler: dependency safety in all modes."""

from __future__ import annotations

import pytest

from repro.core.sut import StoreSUT
from repro.driver import (
    DriverConfig,
    ExecutionMode,
    RecordingConnector,
    SleepingConnector,
    WorkloadDriver,
)
from repro.errors import DriverError
from repro.store import load_network
from repro.store.loader import VertexLabel


def _run_with_recorder(split, mode, partitions, window_millis=None):
    connector = RecordingConnector()
    driver = WorkloadDriver(connector, DriverConfig(
        num_partitions=partitions, mode=mode,
        window_millis=window_millis, dependency_wait_timeout=30))
    connector.gds = driver.gds
    report = driver.run(split.updates)
    return connector, report


class TestDependencyCorrectness:
    @pytest.mark.parametrize("partitions", [1, 3, 8])
    def test_parallel_mode_never_violates(self, split, partitions):
        connector, report = _run_with_recorder(
            split, ExecutionMode.PARALLEL, partitions)
        assert report.dependency_timeouts == 0
        violations = [op for op, gct in connector.records
                      if op.is_dependent and op.depends_on_time > gct]
        assert violations == []
        assert len(connector.records) == len(split.updates)

    def test_sequential_mode_person_deps_hold(self, split):
        connector, report = _run_with_recorder(
            split, ExecutionMode.SEQUENTIAL, 4)
        assert report.dependency_timeouts == 0
        violations = [op for op, gct in connector.records
                      if op.is_dependent
                      and op.global_depends_on_time > gct]
        assert violations == []

    def test_sequential_mode_forum_causal_order(self, split):
        """Within a forum, operations execute in due-time order."""
        connector, __ = _run_with_recorder(
            split, ExecutionMode.SEQUENTIAL, 4)
        last_per_forum: dict[int, int] = {}
        for op, __gct in connector.records:
            if op.partition_key is None:
                continue
            previous = last_per_forum.get(op.partition_key, 0)
            assert op.due_time >= previous
            last_per_forum[op.partition_key] = op.due_time

    def test_windowed_mode_person_deps_hold(self, split,
                                            datagen_config):
        connector, report = _run_with_recorder(
            split, ExecutionMode.WINDOWED, 4,
            window_millis=datagen_config.t_safe_millis)
        assert report.dependency_timeouts == 0
        violations = [op for op, gct in connector.records
                      if op.is_dependent
                      and op.global_depends_on_time > gct]
        assert violations == []
        assert len(connector.records) == len(split.updates)

    def test_windowed_requires_window_size(self, split):
        driver = WorkloadDriver(RecordingConnector(), DriverConfig(
            mode=ExecutionMode.WINDOWED))
        with pytest.raises(DriverError):
            driver.run(split.updates)


class TestStateConvergence:
    @pytest.mark.parametrize("mode,partitions", [
        (ExecutionMode.PARALLEL, 1),
        (ExecutionMode.PARALLEL, 6),
        (ExecutionMode.SEQUENTIAL, 4),
    ])
    def test_final_store_state_identical(self, network, split, mode,
                                         partitions):
        store = load_network(split.bulk)
        driver = WorkloadDriver(StoreSUT(store), DriverConfig(
            num_partitions=partitions, mode=mode))
        driver.run(split.updates)
        with store.transaction() as txn:
            assert txn.count_vertices(VertexLabel.PERSON) \
                == len(network.persons)
            assert txn.count_vertices(VertexLabel.POST) \
                == len(network.posts)
            assert txn.count_vertices(VertexLabel.COMMENT) \
                == len(network.comments)

    def test_windowed_final_state(self, network, split,
                                  datagen_config):
        store = load_network(split.bulk)
        driver = WorkloadDriver(StoreSUT(store), DriverConfig(
            num_partitions=4, mode=ExecutionMode.WINDOWED,
            window_millis=datagen_config.t_safe_millis))
        driver.run(split.updates)
        with store.transaction() as txn:
            assert txn.count_vertices(VertexLabel.POST) \
                == len(network.posts)


class TestReporting:
    def test_report_counts(self, split):
        connector, report = _run_with_recorder(
            split, ExecutionMode.PARALLEL, 4)
        assert report.metrics.operations == len(split.updates)
        assert sum(report.per_partition_counts) == len(split.updates)
        assert report.ops_per_second > 0

    def test_latency_classes_recorded(self, split):
        __, report = _run_with_recorder(split, ExecutionMode.PARALLEL,
                                        4)
        classes = set(report.metrics.per_class)
        assert "ADD_POST" in classes
        assert "ADD_PERSON" in classes

    def test_connector_error_propagates(self, split):
        class Exploding:
            def execute(self, operation):
                raise RuntimeError("connector failure")

        driver = WorkloadDriver(Exploding(), DriverConfig(
            num_partitions=2))
        with pytest.raises(RuntimeError):
            driver.run(split.updates)

    def test_sleeping_connector_counts(self, split):
        connector = SleepingConnector(0.0)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2))
        driver.run(split.updates[:200])
        assert connector.executed == 200


class TestAcceleration:
    def test_throttled_run_takes_expected_time(self, split):
        """At a finite acceleration the run spans roughly
        (simulated span / acceleration)."""
        import time

        ops = split.updates[:120]
        span_ms = ops[-1].due_time - ops[0].due_time
        acceleration = span_ms / 1000.0  # target ≈ 1 s of real time
        driver = WorkloadDriver(SleepingConnector(0.0), DriverConfig(
            num_partitions=2, acceleration=acceleration))
        started = time.monotonic()
        report = driver.run(ops)
        elapsed = time.monotonic() - started
        # Generous band: the suite may run under load, and the last
        # operation's deadline only lower-bounds the wall time.
        assert 0.5 <= elapsed <= 15.0
        assert report.metrics.late_fraction < 0.9


class TestDependencyWaitTimeout:
    """The wedge detector: a dependent op whose T_DEP never arrives."""

    def _wedging_ops(self):
        from repro.datagen.update_stream import UpdateKind, UpdateOperation

        # One dependent op waiting on a T_DEP no partition will ever
        # complete (nothing with that due time exists in the stream).
        return [
            UpdateOperation(UpdateKind.ADD_PERSON, due_time=1_000,
                            depends_on_time=0, payload=None),
            UpdateOperation(UpdateKind.ADD_LIKE_POST, due_time=2_000,
                            depends_on_time=10_000_000, payload=None),
        ]

    def test_timeout_raises_naming_stuck_partition(self):
        driver = WorkloadDriver(SleepingConnector(0.0), DriverConfig(
            num_partitions=1, mode=ExecutionMode.PARALLEL,
            dependency_wait_timeout=0.2))
        with pytest.raises(DriverError) as excinfo:
            driver.run(self._wedging_ops())
        message = str(excinfo.value)
        assert "partition 0" in message
        assert "T_GC stuck below 10000000" in message
        assert "ADD_LIKE_POST" in message

    def test_timeout_counted(self):
        driver = WorkloadDriver(SleepingConnector(0.0), DriverConfig(
            num_partitions=1, mode=ExecutionMode.PARALLEL,
            dependency_wait_timeout=0.2))
        with pytest.raises(DriverError):
            driver.run(self._wedging_ops())
        assert driver._timeouts == 1

    def test_timeout_span_and_counter_when_traced(self):
        from repro import telemetry

        driver = WorkloadDriver(SleepingConnector(0.0), DriverConfig(
            num_partitions=1, mode=ExecutionMode.PARALLEL,
            dependency_wait_timeout=0.2))
        tracer = telemetry.enable(fresh_registry=True)
        try:
            with pytest.raises(DriverError):
                driver.run(self._wedging_ops())
        finally:
            telemetry.disable()
        waits = [span for span in tracer.finished_spans()
                 if span.name == "scheduler.wait.gc"]
        assert len(waits) == 1
        assert waits[0].attributes["timed_out"] is True
        assert telemetry.get_registry().counter(
            telemetry.GC_TIMEOUT_COUNTER).value == 1

    def test_windowed_timeout_names_partition(self, datagen_config):
        from repro.datagen.update_stream import UpdateKind, UpdateOperation

        ops = [UpdateOperation(
            UpdateKind.ADD_COMMENT, due_time=2_000,
            depends_on_time=10_000_000, payload=None, partition_key=7,
            global_depends_on_time=10_000_000)]
        driver = WorkloadDriver(SleepingConnector(0.0), DriverConfig(
            num_partitions=1, mode=ExecutionMode.WINDOWED,
            window_millis=1_000, dependency_wait_timeout=0.2))
        with pytest.raises(DriverError) as excinfo:
            driver.run(ops)
        assert "partition 0" in str(excinfo.value)
