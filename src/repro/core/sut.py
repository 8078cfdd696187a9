"""System-under-test adapters.

The benchmark core is SUT-agnostic: any object implementing
``execute(op: Operation) -> OperationResult`` can be measured.  Two
built-in SUTs mirror the paper's evaluation: the native-API graph store
(Sparksee's role) and the relational engine with explicit plans
(Virtuoso's role).

Both extend :class:`BaseSUT`, which owns the dispatch over the typed
operation union and the telemetry span bracketing; subclasses implement
the three private hooks.  The historical ``run_complex`` /
``run_short`` / ``run_update`` deprecation shims are gone: ``execute``
over the typed operation union is the only entry point; on the wire
:mod:`repro.net.codec` carries each operation and result positionally
(``[class index, *fields]``) over its sealed type registry.
"""

from __future__ import annotations

import threading
from typing import Protocol

from .. import telemetry
from ..datagen.update_stream import UpdateOperation
from ..engine.catalog import Catalog
from ..engine import snb_queries as engine_queries
from ..errors import BenchmarkError, WorkloadError
from ..queries.registry import COMPLEX_QUERIES, SHORT_QUERIES
from ..queries.updates import execute_update
from ..store.graph import GraphStore
from ..workload.operations import EntityRef
from .operation import (
    ComplexRead,
    Operation,
    OperationResult,
    ShortRead,
    Update,
    as_operation,
)


class SystemUnderTest(Protocol):
    """What the benchmark requires of a system."""

    name: str

    def execute(self, op: Operation) -> OperationResult:
        """Execute one operation of any class; returns its result."""
        ...


class BaseSUT:
    """Dispatch over the typed operation union, with span bracketing.

    In-process SUTs satisfy the connector contract directly (that is
    what lets :class:`repro.net.client.RemoteConnector` stand in for
    one): ``execute`` plus a ``close`` with nothing to release.  A SUT
    is safe to call from concurrent driver partitions and server
    workers; one without internal concurrency control serializes
    itself (:class:`EngineSUT`).
    """

    name = "base"

    def execute(self, op: Operation) -> OperationResult:
        op = as_operation(op)
        if telemetry.active:
            prefix = "update." if isinstance(op, Update) else "query."
            with telemetry.span(prefix + op.op_class, sut=self.name):
                value = self._run(op)
        else:
            value = self._run(op)
        return OperationResult(op.op_class, value)

    def _run(self, op: Operation):
        if isinstance(op, ComplexRead):
            return self._complex(op.query_id, op.params)
        if isinstance(op, ShortRead):
            return self._short(op.query_id, op.entity)
        self._update(op.operation)
        return None

    # -- subclass hooks ----------------------------------------------------

    def _complex(self, query_id: int, params: object):
        raise NotImplementedError

    def _short(self, query_id: int, entity: EntityRef):
        raise NotImplementedError

    def _update(self, operation: UpdateOperation) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """In-process SUTs hold no external resources."""

    # -- oracle ------------------------------------------------------------

    def snapshot(self) -> dict[str, list]:
        """Canonical whole-graph snapshot (see
        :mod:`repro.validation.snapshot`)."""
        raise NotImplementedError

    def digest(self) -> str:
        """Final-state digest: byte-comparable across every SUT."""
        from ..validation.snapshot import snapshot_digest

        return snapshot_digest(self.snapshot())


class StoreSUT(BaseSUT):
    """The MVCC property-graph store (native-API implementation)."""

    name = "graph-store"

    def __init__(self, store: GraphStore) -> None:
        self.store = store

    @classmethod
    def for_network(cls, network) -> "StoreSUT":
        """A fresh store SUT bulk-loaded with a generated network."""
        from ..store.loader import load_network

        return cls(load_network(network))

    def _complex(self, query_id: int, params: object):
        entry = COMPLEX_QUERIES.get(query_id)
        if entry is None:
            raise WorkloadError(f"unknown complex query Q{query_id}")
        with self.store.transaction() as txn:
            return entry.run(txn, params)

    def _short(self, query_id: int, entity: EntityRef):
        entry = SHORT_QUERIES.get(query_id)
        if entry is None:
            raise WorkloadError(f"unknown short query S{query_id}")
        with self.store.transaction() as txn:
            return entry.run(txn, entity.id)

    def _update(self, operation: UpdateOperation) -> None:
        # The store owns exactly-once: a replay commits nothing.
        execute_update(self.store, operation)

    def snapshot(self) -> dict[str, list]:
        from ..validation.snapshot import snapshot_store

        return snapshot_store(self.store)


class EngineSUT(BaseSUT):
    """The relational engine (explicit-plan implementation)."""

    name = "relational-engine"

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        #: The catalog mutates bare lists (no internal concurrency
        #: control): every operation and snapshot holds this lock.
        self._lock = threading.Lock()
        #: Natural keys of the applied updates; under ``_lock``.
        self._applied: set[tuple] = set()
        #: Updates that found their key applied and did nothing.
        self.replay_count = 0

    @classmethod
    def for_network(cls, network) -> "EngineSUT":
        """A fresh engine SUT bulk-loaded with a generated network."""
        from ..engine.catalog import load_catalog

        return cls(load_catalog(network))

    def _run(self, op: Operation):
        with self._lock:
            return super()._run(op)

    def _complex(self, query_id: int, params: object):
        run = engine_queries.ENGINE_COMPLEX.get(query_id)
        if run is None:
            raise WorkloadError(f"unknown complex query Q{query_id}")
        return run(self.catalog, params)

    def _short(self, query_id: int, entity: EntityRef):
        run = engine_queries.ENGINE_SHORT.get(query_id)
        if run is None:
            raise WorkloadError(f"unknown short query S{query_id}")
        return run(self.catalog, entity.id)

    @property
    def applied_count(self) -> int:
        """Updates applied (replays excluded)."""
        return len(self._applied)

    def _update(self, operation: UpdateOperation) -> None:
        # Runs under ``_lock``.  The key is recorded only once the
        # insert returned: a failed attempt leaves the retry to apply.
        key = operation.natural_key
        if key in self._applied:
            self.replay_count += 1
            return
        engine_queries.execute_engine_update(self.catalog, operation)
        self._applied.add(key)

    def snapshot(self) -> dict[str, list]:
        from ..validation.snapshot import snapshot_catalog

        with self._lock:
            return snapshot_catalog(self.catalog)


def load_sut(kind: str, bulk, *, shards: int = 0, remote: str | None = None,
             **shard_options) -> SystemUnderTest:
    """The SUT a ``--sut``/``--shards``/``--remote`` combination names.

    ``kind`` is ``"store"``, ``"engine"`` or ``"sharded"`` (the store
    across ``shards or 2`` workers, the label golden checks and replay
    bundles persist).  ``remote`` (``host:port``) connects to a ``repro
    serve`` instance, which owns the bulk-loaded state; ``shards`` > 0
    partitions the store across worker processes, configured by
    ``shard_options`` (:meth:`ShardedStoreSUT.for_network`).
    """
    if kind == "sharded":
        kind, shards = "store", shards or 2
    if kind not in ("store", "engine"):
        raise BenchmarkError(f"unknown SUT {kind!r}")
    if shards > 0 and remote is not None:
        raise BenchmarkError(
            "--shards spawns the sharded SUT in-process; start the "
            "server with --shards instead of combining it with --remote")
    if shards > 0 and kind != "store":
        raise BenchmarkError(
            "--shards partitions the graph store; use --sut store")
    if remote is not None:
        from ..net.client import RemoteConnector

        return RemoteConnector.parse(remote)
    if shards > 0:
        from ..shard import ShardedStoreSUT

        return ShardedStoreSUT.for_network(bulk, shards, **shard_options)
    if kind == "store":
        return StoreSUT.for_network(bulk)
    return EngineSUT.for_network(bulk)
