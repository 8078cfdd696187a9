"""Failure injection: the driver's transient-error retry policy."""

from __future__ import annotations

import threading

import pytest

import time

from repro.driver import (
    CircuitOpenError,
    DegradePolicy,
    DriverConfig,
    RetryPolicy,
    WorkloadDriver,
)
from repro.errors import FatalSUTError, OperationTimeoutError
from repro.rng import RandomStream


class FlakyConnector:
    """Fails a configurable fraction of first attempts, then succeeds."""

    def __init__(self, failure_rate: float, permanent: bool = False,
                 seed: int = 0) -> None:
        self.failure_rate = failure_rate
        self.permanent = permanent
        self._stream = RandomStream.for_key(seed, "flaky")
        self._lock = threading.Lock()
        self._failed_once: set[int] = set()
        self.executions = 0
        self.failures_injected = 0

    def execute(self, operation) -> None:
        with self._lock:
            key = id(operation)
            should_fail = self._stream.random() < self.failure_rate
            if should_fail and (self.permanent
                                or key not in self._failed_once):
                self._failed_once.add(key)
                self.failures_injected += 1
                raise ConnectionError("injected transient failure")
            self.executions += 1


class TestRetryPolicy:
    def test_transient_failures_absorbed(self, split):
        connector = FlakyConnector(failure_rate=0.2, seed=3)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=4,
            resilience=RetryPolicy(max_retries=3, base_backoff=0.0)))
        report = driver.run(split.updates)
        assert connector.failures_injected > 0
        assert report.retries == connector.failures_injected
        assert report.metrics.operations == len(split.updates)
        assert connector.executions == len(split.updates)

    def test_no_retries_by_default(self, split):
        connector = FlakyConnector(failure_rate=0.5, seed=3)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2))
        with pytest.raises(ConnectionError):
            driver.run(split.updates)

    def test_permanent_failure_eventually_raises(self, split):
        connector = FlakyConnector(failure_rate=1.0, permanent=True)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2,
            resilience=RetryPolicy(max_retries=2, base_backoff=0.0)))
        with pytest.raises(ConnectionError):
            driver.run(split.updates[:10])

    def test_retried_dependency_still_completes(self, split):
        """A retried dependency op must still advance T_GC (no IT
        leak): dependents behind it execute normally."""
        connector = FlakyConnector(failure_rate=0.3, seed=9)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=4,
            resilience=RetryPolicy(max_retries=5, base_backoff=0.0),
            dependency_wait_timeout=30))
        report = driver.run(split.updates)
        assert report.dependency_timeouts == 0
        assert report.metrics.operations == len(split.updates)

    def test_retries_accounted_by_class(self, split):
        connector = FlakyConnector(failure_rate=0.2, seed=3)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=4,
            resilience=RetryPolicy(max_retries=3, base_backoff=0.0,
                                   max_backoff=0.0)))
        report = driver.run(split.updates)
        assert report.retries > 0
        assert sum(report.retries_by_class.values()) == report.retries
        assert all(name.isupper() or "_" in name
                   for name in report.retries_by_class)


class TargetedConnector:
    """Raises a chosen exception every attempt on selected ops."""

    def __init__(self, operations, bad_indices, exc_factory) -> None:
        self._bad = {id(operations[i]) for i in bad_indices}
        self._exc_factory = exc_factory
        self._lock = threading.Lock()
        self.attempts_on_bad = 0
        self.executions = 0

    def execute(self, operation) -> None:
        with self._lock:
            if id(operation) in self._bad:
                self.attempts_on_bad += 1
                raise self._exc_factory()
            self.executions += 1


class TestFatalClassification:
    def test_fatal_never_retried(self, small_split):
        ops = small_split.updates
        connector = TargetedConnector(
            ops, [4], lambda: FatalSUTError("corrupt page"))
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2, dependency_wait_timeout=10,
            resilience=RetryPolicy(max_retries=8, base_backoff=0.0,
                                   max_backoff=0.0)))
        with pytest.raises(FatalSUTError):
            driver.run(ops)
        assert connector.attempts_on_bad == 1  # single attempt, no retry

    def test_plain_exception_never_retried(self, small_split):
        ops = small_split.updates
        connector = TargetedConnector(ops, [4],
                                      lambda: ValueError("bug"))
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2, dependency_wait_timeout=10,
            resilience=RetryPolicy(max_retries=8, base_backoff=0.0,
                                   max_backoff=0.0)))
        with pytest.raises(ValueError):
            driver.run(ops)
        assert connector.attempts_on_bad == 1


class TestGracefulDegradation:
    DEGRADE = RetryPolicy(max_retries=2, base_backoff=0.0,
                          max_backoff=0.0,
                          on_exhaustion=DegradePolicy.DEGRADE)

    def test_degrade_finishes_and_records_skips(self, small_split):
        ops = small_split.updates
        bad = [3, 17, 40]
        connector = TargetedConnector(
            ops, bad, lambda: ConnectionError("down"))
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2, dependency_wait_timeout=10,
            resilience=self.DEGRADE))
        report = driver.run(ops)
        assert report.skipped == len(bad)
        assert sum(report.skipped_by_class.values()) == len(bad)
        assert report.metrics.operations == len(ops) - len(bad)
        assert connector.executions == len(ops) - len(bad)

    def test_skipped_dependency_still_advances_tgc(self, small_split):
        """Giving up on a dependency op must still lds.complete() it,
        or every dependent behind it wedges until timeout."""
        ops = small_split.updates
        dep_index = next(i for i, op in enumerate(ops)
                         if op.is_dependency)
        connector = TargetedConnector(
            ops, [dep_index], lambda: ConnectionError("down"))
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=4, dependency_wait_timeout=15,
            resilience=self.DEGRADE))
        report = driver.run(ops)
        assert report.skipped == 1
        assert report.dependency_timeouts == 0

    def test_circuit_breaker_bounds_degradation(self, small_split):
        ops = small_split.updates
        connector = TargetedConnector(
            ops, range(len(ops)), lambda: ConnectionError("down"))
        policy = RetryPolicy(max_retries=0, base_backoff=0.0,
                             max_backoff=0.0,
                             on_exhaustion=DegradePolicy.DEGRADE,
                             failure_budget=5)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2, dependency_wait_timeout=10,
            resilience=policy))
        with pytest.raises(CircuitOpenError):
            driver.run(ops)

    def test_breaker_trips_counted_in_report(self, small_split):
        ops = small_split.updates
        connector = TargetedConnector(
            ops, range(len(ops)), lambda: ConnectionError("down"))
        policy = RetryPolicy(max_retries=0, base_backoff=0.0,
                             max_backoff=0.0,
                             on_exhaustion=DegradePolicy.DEGRADE,
                             failure_budget=5)
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=1, dependency_wait_timeout=10,
            resilience=policy))
        with pytest.raises(CircuitOpenError) as excinfo:
            driver.run(ops)
        assert isinstance(excinfo.value.__cause__, ConnectionError)


class TestTransportTimeouts:
    def test_slow_attempt_times_out_and_retries(self, small_split):
        """An attempt that outlives its transport deadline (the wire
        client raises OperationTimeoutError) is counted and retried."""
        ops = small_split.updates[:30]

        class SlowOnce:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._slowed: set[int] = set()
                self.executions = 0

            def execute(self, operation) -> None:
                with self._lock:
                    first = id(operation) not in self._slowed
                    self._slowed.add(id(operation))
                if first and operation is ops[2]:
                    time.sleep(0.05)
                    raise OperationTimeoutError(
                        "request outlived its 0.05s deadline")
                with self._lock:
                    self.executions += 1

        connector = SlowOnce()
        driver = WorkloadDriver(connector, DriverConfig(
            num_partitions=2, dependency_wait_timeout=10,
            resilience=RetryPolicy(max_retries=3, base_backoff=0.0,
                                   max_backoff=0.0)))
        report = driver.run(ops)
        assert report.op_timeouts == 1
        assert report.retries == 1
        assert report.metrics.operations == len(ops)
        assert connector.executions == len(ops)


class TestPartitionFailureAggregation:
    def test_all_partition_failures_surface(self, small_split):
        """Every failed partition is reported, not just the first."""
        from repro.driver.scheduler import partition_updates

        ops = small_split.updates
        config = DriverConfig(num_partitions=4,
                              dependency_wait_timeout=10)
        index_of = {id(op): i for i, op in enumerate(ops)}
        parts = partition_updates(ops, config.num_partitions)
        # Fail the first op of each of three distinct partitions.
        bad = [index_of[id(part[0])] for part in parts if part][:3]
        assert len(bad) == 3

        connector = TargetedConnector(ops, bad,
                                      lambda: ValueError("bug"))
        driver = WorkloadDriver(connector, config)
        with pytest.raises(ValueError) as excinfo:
            driver.run(ops)
        failures = excinfo.value.partition_failures
        assert len(failures) == len(bad)
        assert all(isinstance(e, ValueError) for _, e in failures)
        assert len({idx for idx, _ in failures}) == len(bad)
