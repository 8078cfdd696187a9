"""System-under-test connectors.

The driver is SUT-agnostic: it hands each
:class:`~repro.datagen.update_stream.UpdateOperation` (or read operation)
to a connector.  Implementations:

* :class:`SleepingConnector` — the paper's "dummy database connector that,
  rather than executing transactions against a database, simply sleeps for
  a configured duration" (Table 5 driver-scalability experiments);
* :class:`SUTConnector` — adapts any unified-API SUT;
* :class:`RecordingConnector` — records the execution order and T_GC at
  execution time, used by the dependency-correctness tests;
* :class:`DifferentialConnector` — drives two SUTs in lockstep, applying
  every update to both and diffing every read (validation harness).
"""

from __future__ import annotations

import threading
import time

from ..datagen.update_stream import UpdateOperation


def _close_quietly(target) -> None:
    """Close a wrapped SUT/connector if it knows how to."""
    close = getattr(target, "close", None)
    if callable(close):
        close()


class SleepingConnector:
    """Sleeps a fixed duration per operation (the Table 5 dummy SUT)."""

    supports_reads = False
    is_remote = False

    def __init__(self, sleep_seconds: float) -> None:
        self.sleep_seconds = sleep_seconds
        self._count = 0
        self._lock = threading.Lock()

    def execute(self, operation: UpdateOperation) -> None:
        time.sleep(self.sleep_seconds)
        with self._lock:
            self._count += 1

    @property
    def executed(self) -> int:
        return self._count

    def close(self) -> None:
        pass


class SUTConnector:
    """Adapts any unified-API SUT (``execute(op) -> OperationResult``)
    to the driver's connector protocol.

    A SUT whose ``serialize`` attribute is true gets all calls funneled
    through one lock — required for SUTs without internal concurrency
    control (the relational engine's catalog mutates bare lists).
    """

    supports_reads = True

    def __init__(self, sut) -> None:
        self.sut = sut
        self.is_remote = bool(getattr(sut, "is_remote", False))
        self._lock = threading.Lock() \
            if getattr(sut, "serialize", False) else None

    def execute(self, operation) -> None:
        from ..core.operation import as_operation  # import-cycle free

        op = as_operation(operation)
        if self._lock is not None:
            with self._lock:
                self.sut.execute(op)
        else:
            self.sut.execute(op)

    def close(self) -> None:
        _close_quietly(self.sut)


class ReadDisagreement:
    """One read whose results differed between the paired SUTs."""

    def __init__(self, label: str, params: object, diff: object) -> None:
        self.label = label
        self.params = params
        self.diff = diff

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReadDisagreement({self.label}, {self.params})"


class DifferentialConnector:
    """Drives two SUTs in lockstep and diffs every read result.

    Updates are applied to both systems under one lock, so each read
    (also under the lock) observes both systems after the *same* update
    prefix.  That makes the oracle strict only when the driver executes
    sequentially (one partition, sequential mode): with concurrent
    workers, reads racing updates can legitimately observe different
    prefixes and a disagreement is advisory, not a verdict.  The
    dependency-correctness tests run it sequentially.
    """

    supports_reads = True

    def __init__(self, primary, secondary) -> None:
        self.primary = primary
        self.secondary = secondary
        self.is_remote = bool(getattr(primary, "is_remote", False)
                              or getattr(secondary, "is_remote", False))
        self.disagreements: list[ReadDisagreement] = []
        self._lock = threading.Lock()

    def execute(self, operation) -> None:
        # Late imports: repro.core/validation import the driver package
        # indirectly; resolving the operation types at call time keeps
        # this module import-cycle free.
        from ..core.operation import ComplexRead, ShortRead, as_operation
        from ..validation.canonical import comparable, diff_results

        op = as_operation(operation)
        with self._lock:
            left = self.primary.execute(op).value
            right = self.secondary.execute(op).value
            if isinstance(op, (ComplexRead, ShortRead)):
                tag = "Q" if isinstance(op, ComplexRead) else "S"
                left_c = comparable(op.query_id, left)
                right_c = comparable(op.query_id, right)
                if left_c != right_c:
                    self.disagreements.append(ReadDisagreement(
                        f"{tag}{op.query_id}",
                        op.params if isinstance(op, ComplexRead)
                        else op.entity,
                        diff_results(left_c, right_c)))

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def close(self) -> None:
        _close_quietly(self.primary)
        _close_quietly(self.secondary)


class RecordingConnector:
    """Records (operation, T_GC at execution) for dependency tests."""

    supports_reads = False

    def __init__(self, gds=None, delegate=None) -> None:
        self.gds = gds
        self.delegate = delegate
        self.is_remote = bool(getattr(delegate, "is_remote", False))
        self.records: list[tuple[UpdateOperation, int]] = []
        self._lock = threading.Lock()

    def execute(self, operation: UpdateOperation) -> None:
        gct = self.gds.global_completion_time if self.gds is not None else 0
        with self._lock:
            self.records.append((operation, gct))
        if self.delegate is not None:
            self.delegate.execute(operation)

    def close(self) -> None:
        _close_quietly(self.delegate)
