"""Exception hierarchy for the SNB Interactive reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  Subsystems
define narrower classes below; modules should raise the most specific type
that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TransientError(ReproError):
    """Marker: a failure that is expected to clear on retry.

    Deadlock-victim aborts, snapshot write-write conflicts and injected
    chaos aborts are transient: the LDBC driver treats them as normal
    events and replays the operation.  The scheduler's retry policy
    retries *only* exceptions classified transient (this marker, plus
    the conventional OS-level ``ConnectionError`` / ``TimeoutError``).
    """


class FatalSUTError(ReproError):
    """Marker: the system under test failed unrecoverably.

    Never retried, regardless of the retry budget: retrying a fatal
    error only delays surfacing it (and can mask data loss).
    """


class SchemaError(ReproError):
    """An entity or relation violates the SNB schema."""


class DatagenError(ReproError):
    """The data generator was configured or driven incorrectly."""


class StoreError(ReproError):
    """Base class for graph-store errors."""


class TransactionError(StoreError):
    """A transaction could not proceed (conflict, aborted, misuse)."""


class WriteConflictError(TransactionError, TransientError):
    """First-committer-wins conflict under snapshot isolation.

    Also a :class:`TransientError`: the losing transaction can simply
    run again against the newer snapshot, which is exactly what the
    driver's retry policy does.
    """


class TransactionStateError(TransactionError):
    """Operation on a transaction in the wrong state (e.g. after commit)."""


class NotFoundError(StoreError):
    """A vertex, edge or index entry does not exist."""


class DuplicateError(StoreError):
    """An entity with the same key already exists."""


class ShardError(StoreError):
    """Base class for sharded-store (router/worker) errors."""


class ShardTimeoutError(ShardError, TransientError):
    """A shard worker did not answer within the router's budget.

    Transient: the worker is serial, so its (late) response is drained
    and the retried operation is a replay of its update key — the retry
    can never double-apply.
    """


class ShardConnectionError(ShardError, FatalSUTError):
    """A shard worker process died or its pipe closed.

    Fatal: without supervision (no per-shard WAL to replay) a lost
    shard means lost state, and with supervision it is raised only
    once the restart budget is exhausted — either way retrying cannot
    recover it.  The payload identifies the failure precisely: which
    shard died, the update key of the request that was in flight
    (``None`` for reads and control-plane RPCs), and how many requests
    were queued against the shard at the time.
    """

    def __init__(self, message: str, *, shard_index: int | None = None,
                 key: tuple | None = None,
                 pending: int | None = None) -> None:
        detail = []
        if shard_index is not None:
            detail.append(f"shard={shard_index}")
        if key is not None:
            detail.append(f"key={key}")
        if pending is not None:
            detail.append(f"pending={pending}")
        if detail:
            message = f"{message} [{' '.join(detail)}]"
        super().__init__(message)
        self.shard_index = shard_index
        self.key = key
        self.pending = pending


class ShardRecoveringError(ShardError, TransientError):
    """A shard worker died and its supervised recovery is in progress.

    Transient: the supervisor is respawning the worker and replaying
    its WAL; the retried operation lands once recovery completes and
    the shard store's applied keys keep the retry exactly-once.
    """

    def __init__(self, message: str,
                 *, shard_index: int | None = None) -> None:
        super().__init__(message)
        self.shard_index = shard_index


class EngineError(ReproError):
    """Base class for relational-engine errors."""


class PlanError(EngineError):
    """A logical or physical plan is malformed."""


class CurationError(ReproError):
    """Parameter curation failed (e.g. not enough distinct bindings)."""


class DriverError(ReproError):
    """The workload driver was misconfigured or violated a dependency."""


class OperationTimeoutError(DriverError, TransientError):
    """An operation attempt exceeded its wall-clock budget.

    Raised when a request outlives its transport deadline (the wire
    client's).  Transient: the operation may be retried within its
    remaining per-operation budget, and a retried update that did land
    the first time is the SUT's to answer as a replay.
    """


class WorkloadError(ReproError):
    """Workload definition or query-mix configuration error."""


class BenchmarkError(ReproError):
    """Benchmark orchestration error (invalid run rules, missing data)."""
