"""The driver's resilience policy: retries, timeouts, degradation.

Real LDBC driver runs treat deadlock-victim aborts and slow operations
as expected events — the driver must "sustain the configured
acceleration" against a SUT that aborts, stalls or times out.  This
module packages that behavior as an explicit, testable policy:

* **classification** — only :class:`~repro.errors.TransientError`
  (plus the conventional OS-level ``ConnectionError``/``TimeoutError``)
  is retried; anything else — including
  :class:`~repro.errors.FatalSUTError` — surfaces immediately;
* **backoff** — exponential with *decorrelated jitter* (AWS
  architecture-blog variant): each sleep is drawn uniformly from
  ``[base, 3 * previous]``, capped, from a seeded
  :class:`~repro.rng.RandomStream` so runs are reproducible;
* **timeouts** — a per-operation wall-clock budget spanning all
  attempts, checked between them.  An attempt's own deadline lives in
  its transport (the wire channel's, the shard router's): an
  in-process call cannot be interrupted, and a retry whose first
  attempt did land is the SUT's to answer as a replay;
* **degradation** — when retries are exhausted, ``FAIL_FAST`` re-raises
  (today's behavior) while ``DEGRADE`` records the operation as
  *skipped* so the run — and dependency tracking — keeps going;
* a per-partition **circuit breaker**: a failure budget bounding how
  many operations one partition may skip before the run is declared
  unhealthy and aborted anyway.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ..errors import DriverError, FatalSUTError, TransientError
from ..rng import RandomStream

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradePolicy",
    "RetryPolicy",
    "default_is_transient",
]


def default_is_transient(exc: BaseException) -> bool:
    """Is this failure worth retrying?

    :class:`~repro.errors.FatalSUTError` wins over everything; the
    repo's own transients carry the :class:`TransientError` marker;
    ``ConnectionError`` / ``TimeoutError`` are the conventional shapes a
    real driver sees from a networked SUT's deadlock aborts and stalls.
    """
    if isinstance(exc, FatalSUTError):
        return False
    return isinstance(exc, (TransientError, ConnectionError, TimeoutError))


class DegradePolicy(Enum):
    """What to do when an operation exhausts its retry budget."""

    #: Re-raise the final exception, failing the partition (and run).
    FAIL_FAST = "fail-fast"
    #: Record the operation as skipped and keep the partition running;
    #: dependency tracking still advances past the dead operation.
    DEGRADE = "degrade"


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler executes one operation against the connector."""

    #: Retries after the first attempt (0 = single attempt).
    max_retries: int = 0
    #: Lower bound (seconds) of every backoff sleep.
    base_backoff: float = 0.01
    #: Upper cap (seconds) on any single backoff sleep.
    max_backoff: float = 1.0
    #: Wall-clock budget for the operation across all attempts, checked
    #: after each failed one; None = unbounded.
    op_timeout: float | None = None
    #: Behavior on retry exhaustion (or an expired op budget).
    on_exhaustion: DegradePolicy = DegradePolicy.FAIL_FAST
    #: Max operations one partition may skip under DEGRADE before its
    #: circuit breaker trips and the partition fails anyway.
    failure_budget: int = 25
    #: Override transient classification (tests / chaos canary); None
    #: uses :func:`default_is_transient`.
    classify: Callable[[BaseException], bool] | None = None

    def is_transient(self, exc: BaseException) -> bool:
        if self.classify is not None:
            return bool(self.classify(exc))
        return default_is_transient(exc)

    def next_backoff(self, previous: float, stream: RandomStream) -> float:
        """Decorrelated jitter: uniform in ``[base, 3*previous]``, capped."""
        low = self.base_backoff
        high = max(low, 3.0 * previous)
        sleep = low + (high - low) * stream.random()
        return min(self.max_backoff, sleep)


class CircuitOpenError(DriverError):
    """A partition exceeded its failure budget under DEGRADE."""


class CircuitBreaker:
    """Per-partition failure budget (thread-safe).

    Counts operations the partition gave up on; once the budget is
    exceeded the breaker *trips*: graceful degradation is meant to ride
    out scattered faults, not to silently discard an arbitrarily large
    slice of the workload.
    """

    def __init__(self, partition: int, budget: int) -> None:
        self.partition = partition
        self.budget = budget
        self._lock = threading.Lock()
        self._skips = 0
        self.tripped = False

    @property
    def skips(self) -> int:
        with self._lock:
            return self._skips

    def record_skip(self) -> bool:
        """Count one skipped operation; True when this one trips it."""
        with self._lock:
            self._skips += 1
            if not self.tripped and self._skips > self.budget:
                self.tripped = True
                return True
            return False
