"""The fault-injecting connector wrapper.

:class:`FaultInjectingConnector` composes with *any* connector — a SUT
used directly, the sleeping dummy, the wire client — and perturbs
calls according to a seeded :class:`~repro.faults.plan.FaultPlan`.  Faults are decided per
*operation identity*, not per call, so:

* a transient abort fails the first ``attempts`` calls for that
  operation and then lets it through — exercising the retry loop;
* counts are deterministic for a given ``(seed, plan)`` regardless of
  thread interleaving.
"""

from __future__ import annotations

import threading
import time

from ..errors import FatalSUTError, TransientError
from .plan import FaultKind, FaultPlan, FaultSpec


class InjectedTransientError(TransientError):
    """A chaos-injected transient abort (retry should absorb it)."""


class InjectedFatalError(FatalSUTError):
    """A chaos-injected fatal SUT failure (must never be retried)."""


class FaultInjectingConnector:
    """Wraps a connector, injecting faults per a deterministic plan.

    ``operations`` (the stream the driver will run, in order) binds
    each operation object to its stream index so explicit schedule
    entries and seeded draws key on the index; without it, operations
    are identified by ``(op class, due time)`` — equally stable, but
    schedule entries must then use that pair as key.
    """

    def __init__(self, inner, plan: FaultPlan, seed: int = 0,
                 operations=None) -> None:
        self.inner = inner
        self.plan = plan
        self.seed = seed
        self._index_of = ({id(op): i for i, op in enumerate(operations)}
                          if operations is not None else None)
        self._lock = threading.Lock()
        self._attempts: dict = {}
        self._injected: dict[FaultKind, int] = {k: 0 for k in FaultKind}
        self._injected_by_class: dict[str, int] = {}

    # -- accounting --------------------------------------------------------

    @property
    def injected_total(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def injected_counts(self) -> dict[str, int]:
        """Fault-kind name → times injected (one per faulted attempt)."""
        with self._lock:
            return {kind.value: count
                    for kind, count in self._injected.items()}

    def injected_by_class(self) -> dict[str, int]:
        """Op-class name → injected fault count."""
        with self._lock:
            return dict(self._injected_by_class)

    # -- the connector protocol --------------------------------------------

    def _key(self, operation):
        if self._index_of is not None:
            index = self._index_of.get(id(operation))
            if index is not None:
                return index
        due = getattr(operation, "due_time", 0)
        return (operation.op_class, due)

    def _count(self, kind: FaultKind, op_class: str) -> None:
        with self._lock:
            self._injected[kind] += 1
            self._injected_by_class[op_class] = \
                self._injected_by_class.get(op_class, 0) + 1

    def execute(self, operation) -> None:
        op_class = operation.op_class
        key = self._key(operation)
        spec: FaultSpec | None = self.plan.decide(self.seed, key, op_class)
        if spec is None:
            return self.inner.execute(operation)
        with self._lock:
            attempt = self._attempts[key] = self._attempts.get(key, 0) + 1
        if spec.kind is FaultKind.ABORT:
            if attempt <= spec.attempts:
                self._count(spec.kind, op_class)
                raise InjectedTransientError(
                    f"injected abort #{attempt} for {op_class} "
                    f"(key {key})")
            return self.inner.execute(operation)
        if spec.kind is FaultKind.LATENCY:
            self._count(spec.kind, op_class)
            if spec.delay_seconds > 0:
                time.sleep(spec.delay_seconds)
            return self.inner.execute(operation)
        # FATAL: every attempt fails — a correct policy never makes a
        # second one.
        self._count(spec.kind, op_class)
        raise InjectedFatalError(
            f"injected fatal SUT error for {op_class} (key {key})")

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()
