"""Driver-side connectors that stand in for a system under test.

The driver is SUT-agnostic: it hands each
:class:`~repro.datagen.update_stream.UpdateOperation` (or read operation)
to a connector — anything with ``execute(op)`` and ``close()``, which
every SUT already is.  The two connectors here exist for the driver's
own experiments:

* :class:`SleepingConnector` — the paper's "dummy database connector that,
  rather than executing transactions against a database, simply sleeps for
  a configured duration" (Table 5 driver-scalability experiments);
* :class:`RecordingConnector` — records the execution order and T_GC at
  execution time, used by the dependency-correctness tests.
"""

from __future__ import annotations

import threading
import time

from ..datagen.update_stream import UpdateOperation


class SleepingConnector:
    """Sleeps a fixed duration per operation (the Table 5 dummy SUT)."""

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


class RecordingConnector:
    """Records (operation, T_GC at execution) for dependency tests."""

    def __init__(self, gds=None, delegate=None) -> None:
        self.gds = gds
        self.delegate = delegate
        self.records: list[tuple[UpdateOperation, int]] = []
        self._lock = threading.Lock()

    def execute(self, operation: UpdateOperation) -> None:
        gct = self.gds.global_completion_time if self.gds is not None else 0
        with self._lock:
            self.records.append((operation, gct))
        if self.delegate is not None:
            self.delegate.execute(operation)

    def close(self) -> None:
        if self.delegate is not None:
            self.delegate.close()
