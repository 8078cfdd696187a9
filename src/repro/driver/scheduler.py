"""The multi-threaded partitioned workload scheduler (paper Figure 8).

Each partition of the operation stream runs on its own thread and follows
the paper's dependent-execution loop:

1. advance the stream's watermark to the operation's T_DUE;
2. if the operation is in *Dependencies*, add T_DUE to the stream's IT;
3. if it is in *Dependents*, wait until T_GC ≥ its T_DEP;
4. wait until the operation's real-time deadline (acceleration clock);
5. execute it against the connector;
6. if it was a dependency, move its timestamp from IT to CT.

The three execution modes differ in steps 2/3:

* PARALLEL tracks every dependency and waits on the full T_DEP;
* SEQUENTIAL (for forum-partitioned streams) relies on intra-partition
  due-time order for tree dependencies, tracks only person-graph
  operations, and waits only on the person-graph component of T_DEP;
* WINDOWED executes Dependents in T_SAFE-bounded windows, shuffled, with
  one T_GC synchronization per window instead of per operation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import telemetry
from ..datagen.update_stream import partition_updates
from ..errors import DriverError, OperationTimeoutError
from ..rng import RandomStream
from .clock import AS_FAST_AS_POSSIBLE, AccelerationClock
from .dependency import GlobalDependencyService, LocalDependencyService
from .metrics import DriverMetrics, LatencyRecorder
from .modes import ExecutionMode
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DegradePolicy,
    RetryPolicy,
)

if TYPE_CHECKING:
    # Import-cycle free: the canonical contract lives in repro.core,
    # which (transitively) imports this module at runtime.
    from ..core.connector import ConnectorProtocol


@dataclass
class DriverConfig:
    """Knobs of a driver run."""

    num_partitions: int = 4
    mode: ExecutionMode = ExecutionMode.PARALLEL
    #: Simulation-time / real-time ratio; ``AS_FAST_AS_POSSIBLE`` ignores
    #: due times entirely (used by the scalability benches).
    acceleration: float = AS_FAST_AS_POSSIBLE
    #: Seconds a dependent op may wait on T_GC before the run is declared
    #: wedged (indicates a dependency-metadata bug, not normal operation).
    dependency_wait_timeout: float = 60.0
    #: Window length (simulation ms) for WINDOWED mode; must not exceed
    #: the dataset's T_SAFE.  ``None`` → the config owner supplies it.
    window_millis: int | None = None
    #: Real-time slack (seconds) before a behind-schedule operation
    #: counts as late.  Operations arrive in sub-millisecond clusters
    #: (a comment is due 1 ms after its post), so microsecond slippage
    #: is inherent; what "cannot sustain the acceleration factor" means
    #: is falling behind by more than this slack.
    lateness_tolerance: float = 1.0
    #: Resilience policy (retry classification, decorrelated-jitter
    #: backoff, watchdog timeouts, degradation, failure budget).  The
    #: default fails fast: transient failures are not retried.
    resilience: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0


@dataclass
class DriverReport:
    """Outcome of one driver run."""

    metrics: DriverMetrics
    dependency_timeouts: int = 0
    per_partition_counts: list[int] = field(default_factory=list)
    #: Transient connector failures absorbed by the retry policy.
    retries: int = 0
    #: Retries broken down by operation class.
    retries_by_class: dict[str, int] = field(default_factory=dict)
    #: Operations abandoned after retry exhaustion under DEGRADE.
    skipped: int = 0
    skipped_by_class: dict[str, int] = field(default_factory=dict)
    #: Partitions whose failure budget was exceeded.
    breaker_trips: int = 0
    #: Attempts that failed with :class:`OperationTimeoutError` (the
    #: wire client's request deadline).
    op_timeouts: int = 0

    @property
    def ops_per_second(self) -> float:
        return self.metrics.throughput


class WorkloadDriver:
    """Executes a due-time-ordered operation stream against a connector."""

    def __init__(self, connector: ConnectorProtocol,
                 config: DriverConfig) -> None:
        self.connector = connector
        self.config = config
        self.gds = GlobalDependencyService()
        self.recorder = LatencyRecorder()
        self._policy = config.resilience
        self._timeouts = 0
        #: Guards the dependency-timeout counter only.
        self._timeout_lock = threading.Lock()
        #: Guards every other run-statistics field below — retry/skip
        #: accounting must not contend with (or hide behind) the
        #: timeout counter's lock.
        self._stats_lock = threading.Lock()
        self._late_count = 0
        self._max_lateness = 0.0
        self._op_count = 0
        self._retries = 0
        self._retries_by_class: dict[str, int] = {}
        self._skipped = 0
        self._skipped_by_class: dict[str, int] = {}
        self._breaker_trips = 0
        self._op_timeouts = 0
        self._breakers: list[CircuitBreaker] = []
        self._backoff_streams: list[RandomStream] = []

    def run(self, operations: list) -> DriverReport:
        """Partition the stream, execute all partitions, report metrics."""
        config = self.config
        if config.mode is ExecutionMode.WINDOWED \
                and config.window_millis is None:
            raise DriverError("WINDOWED mode requires window_millis")
        partitions = partition_updates(operations, config.num_partitions)
        services = [LocalDependencyService() for __ in partitions]
        for lds in services:
            self.gds.register(lds)
        policy = self._policy
        self._breakers = [CircuitBreaker(i, policy.failure_budget)
                          for i in range(len(partitions))]
        self._backoff_streams = [
            RandomStream.for_key(config.seed, "retry-backoff", i)
            for i in range(len(partitions))]
        simulation_start = min((op.due_time for op in operations),
                               default=0)
        clock = AccelerationClock(simulation_start, config.acceleration)
        run_start = time.monotonic()

        errors: list[tuple[int, BaseException]] = []
        threads = []
        for index, (ops, lds) in enumerate(zip(partitions, services)):
            thread = threading.Thread(
                target=self._partition_main,
                args=(index, ops, lds, clock, run_start, errors),
                name=f"driver-partition-{index}", daemon=True)
            threads.append(thread)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise self._aggregate_failures(errors)

        wall = time.monotonic() - run_start
        metrics = DriverMetrics(
            wall_seconds=wall,
            operations=self._op_count,
            per_class=self.recorder.stats(),
            late_fraction=(self._late_count / self._op_count
                           if self._op_count else 0.0),
            max_lateness=self._max_lateness,
        )
        report = DriverReport(
            metrics=metrics,
            dependency_timeouts=self._timeouts,
            per_partition_counts=[len(p) for p in partitions],
            retries=self._retries,
            retries_by_class=dict(self._retries_by_class),
            skipped=self._skipped,
            skipped_by_class=dict(self._skipped_by_class),
            breaker_trips=self._breaker_trips,
            op_timeouts=self._op_timeouts,
        )
        if telemetry.active:
            registry = telemetry.get_registry()
            telemetry.publish_driver_metrics(metrics, registry)
            telemetry.publish_resilience_report(report, registry)
        return report

    @staticmethod
    def _aggregate_failures(
            errors: list[tuple[int, BaseException]]) -> BaseException:
        """First partition failure, annotated with every other one.

        The original exception (type intact, so callers can still catch
        what the connector raised) carries all failures on a
        ``partition_failures`` attribute; when several partitions died,
        a summary of the others is appended to its message so nothing
        is silently discarded.
        """
        first_index, first_exc = errors[0]
        first_exc.partition_failures = [(index, exc)
                                        for index, exc in errors]
        if len(errors) > 1:
            others = "; ".join(
                f"partition {index}: {type(exc).__name__}: {exc}"
                for index, exc in errors[1:])
            note = (f"[driver: partition {first_index} failed first; "
                    f"+{len(errors) - 1} more partition failure(s): "
                    f"{others}]")
            if hasattr(first_exc, "add_note"):  # Python >= 3.11
                first_exc.add_note(note)
            else:  # pragma: no cover - 3.10 fallback
                first_exc.args = first_exc.args + (note,)
        return first_exc

    # ------------------------------------------------------------------
    # partition execution
    # ------------------------------------------------------------------

    def _partition_main(self, index, ops, lds, clock, run_start,
                        errors) -> None:
        try:
            if telemetry.active:
                with telemetry.span(f"scheduler.partition.{index}",
                                    mode=self.config.mode.value,
                                    operations=len(ops)):
                    self._run_partition(index, ops, lds, clock, run_start)
            else:
                self._run_partition(index, ops, lds, clock, run_start)
        except BaseException as exc:  # surfaced by run()
            errors.append((index, exc))
        finally:
            lds.finish()

    def _run_partition(self, index, ops, lds, clock, run_start) -> None:
        if self.config.mode is ExecutionMode.WINDOWED:
            self._run_windowed(index, ops, lds, clock, run_start)
        else:
            self._run_ordered(index, ops, lds, clock, run_start)

    def _tracks_dependencies(self, op) -> bool:
        """Does this op register in IT/CT under the current mode?"""
        if not op.is_dependency:
            return False
        if self.config.mode is ExecutionMode.PARALLEL:
            return True
        # SEQUENTIAL / WINDOWED: only person-graph operations (those
        # without a forum partition key) are tracked globally.
        return op.partition_key is None

    def _dependency_time(self, op) -> int:
        """The T_DEP this op must wait for under the current mode."""
        if not op.is_dependent:
            return 0
        if self.config.mode is ExecutionMode.PARALLEL:
            return op.depends_on_time
        return op.global_depends_on_time

    def _run_ordered(self, index, ops, lds, clock, run_start) -> None:
        """PARALLEL / SEQUENTIAL: the Figure 8 loop, in due-time order."""
        for op in ops:
            lds.advance_watermark(op.due_time)
            tracked = self._tracks_dependencies(op)
            if tracked:
                lds.initiate(op.due_time)
            self._wait_for_dependency(op, index)
            lateness = clock.wait_until_due(op.due_time)
            try:
                self._execute(op, run_start, lateness, index)
            finally:
                # A skipped (degraded) dependency still advances IT/CT:
                # downstream partitions must not wedge on a dead op.
                if tracked:
                    lds.complete(op.due_time)

    def _run_windowed(self, index, ops, lds, clock, run_start) -> None:
        """WINDOWED: batch Dependents into T_SAFE-bounded windows."""
        window_millis = self.config.window_millis
        # Seeded by the stable partition index so windowed runs are
        # reproducible given (config.seed, partitioning).
        stream = RandomStream.for_key(self.config.seed, "window-shuffle",
                                      index)
        window: list = []
        window_start: int | None = None

        def flush() -> None:
            nonlocal window, window_start
            if not window:
                return
            max_dep = max(self._dependency_time(op) for op in window)
            if max_dep > 0:
                self._wait_for_window(max_dep, index)
            lateness = clock.wait_until_due(window_start)
            stream.shuffle(window)
            # Consume the window as we go: if an op fails the partition
            # (fail-fast), the already-executed prefix stays counted and
            # a re-entrant flush cannot double-execute it.
            try:
                while window:
                    op = window.pop()
                    self._execute(op, run_start, lateness, index)
            finally:
                if not window:
                    window = []
                    window_start = None

        for op in ops:
            lds.advance_watermark(op.due_time)
            if self._tracks_dependencies(op):
                # Dependencies are never windowed: flush and run inline.
                flush()
                lds.initiate(op.due_time)
                self._wait_for_dependency(op, index)
                lateness = clock.wait_until_due(op.due_time)
                try:
                    self._execute(op, run_start, lateness, index)
                finally:
                    # Degraded-skip or failure: T_GC must still advance.
                    lds.complete(op.due_time)
                continue
            if window_start is None:
                window_start = op.due_time
            elif op.due_time - window_start >= window_millis:
                flush()
                window_start = op.due_time
            window.append(op)
        flush()

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _gc_wait(self, dep_time: int) -> bool:
        """Block on T_GC ≥ dep_time, timed into telemetry when active."""
        if not telemetry.active:
            return self.gds.wait_until(dep_time,
                                       self.config.dependency_wait_timeout)
        with telemetry.span("scheduler.wait.gc", dep_time=dep_time) as sp:
            started = time.perf_counter()
            arrived = self.gds.wait_until(
                dep_time, self.config.dependency_wait_timeout)
            waited = time.perf_counter() - started
            sp.set("timed_out", not arrived)
        telemetry.histogram(telemetry.GC_WAIT_HISTOGRAM).observe(waited)
        if not arrived:
            telemetry.counter(telemetry.GC_TIMEOUT_COUNTER).inc()
        return arrived

    def _wait_for_dependency(self, op, index: int) -> None:
        dep_time = self._dependency_time(op)
        if dep_time <= 0:
            return
        if not self._gc_wait(dep_time):
            with self._timeout_lock:
                self._timeouts += 1
            raise DriverError(
                f"partition {index}: dependency wait timed out: T_GC "
                f"stuck below {dep_time} for {op}")

    def _wait_for_window(self, max_dep: int, index: int) -> None:
        if not self._gc_wait(max_dep):
            with self._timeout_lock:
                self._timeouts += 1
            raise DriverError(
                f"partition {index}: windowed dependency wait timed out "
                f"at {max_dep}")

    def _execute(self, op, run_start, lateness: float,
                 partition: int) -> None:
        started = time.monotonic()
        if telemetry.active:
            with telemetry.span("op." + op.op_class,
                                due_time=op.due_time,
                                lateness_seconds=lateness) as sp:
                executed = self._execute_with_retries(op, partition)
                sp.set("skipped", not executed)
        else:
            executed = self._execute_with_retries(op, partition)
        if not executed:
            return
        latency = time.monotonic() - started
        self.recorder.record(op.op_class, latency,
                             started - run_start)
        with self._stats_lock:
            self._op_count += 1
            if lateness > self.config.lateness_tolerance:
                self._late_count += 1
            if lateness > self._max_lateness:
                self._max_lateness = lateness

    def _execute_with_retries(self, op, partition: int) -> bool:
        """Run one op under the resilience policy.

        Returns True when the operation executed, False when it was
        abandoned under :attr:`DegradePolicy.DEGRADE` (the caller still
        advances dependency tracking so downstream never wedges).
        Transient failures retry with decorrelated-jitter backoff up to
        ``max_retries`` within the per-op wall-clock budget; fatal
        (non-transient) failures never retry.
        """
        policy = self._policy
        stream = self._backoff_streams[partition]
        op_deadline = (time.monotonic() + policy.op_timeout
                       if policy.op_timeout is not None else None)
        attempt = 0
        backoff = policy.base_backoff
        while True:
            try:
                self.connector.execute(op)
                return True
            except Exception as exc:
                if isinstance(exc, OperationTimeoutError):
                    with self._stats_lock:
                        self._op_timeouts += 1
                if not policy.is_transient(exc):
                    return self._exhausted(op, partition, exc)
                attempt += 1
                budget_expired = (op_deadline is not None
                                  and time.monotonic() >= op_deadline)
                if attempt > policy.max_retries or budget_expired:
                    return self._exhausted(op, partition, exc)
                op_class = op.op_class
                with self._stats_lock:
                    self._retries += 1
                    self._retries_by_class[op_class] = \
                        self._retries_by_class.get(op_class, 0) + 1
                backoff = policy.next_backoff(backoff, stream)
                if backoff > 0:
                    time.sleep(backoff)

    def _exhausted(self, op, partition: int, exc: Exception) -> bool:
        """Out of retries (or non-transient): degrade or fail fast."""
        if self._policy.on_exhaustion is not DegradePolicy.DEGRADE:
            raise exc
        op_class = op.op_class
        with self._stats_lock:
            self._skipped += 1
            self._skipped_by_class[op_class] = \
                self._skipped_by_class.get(op_class, 0) + 1
        if self._breakers[partition].record_skip():
            with self._stats_lock:
                self._breaker_trips += 1
            raise CircuitOpenError(
                f"partition {partition}: failure budget "
                f"{self._policy.failure_budget} exceeded "
                f"({self._breakers[partition].skips} ops skipped); "
                f"last failure: {type(exc).__name__}: {exc}") from exc
        return False

