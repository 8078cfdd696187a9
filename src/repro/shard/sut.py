"""The sharded store as a system under test.

``ShardedStoreSUT`` extends :class:`repro.core.sut.BaseSUT`, so it
plugs into everything that consumes the unified SUT API unchanged: the
interactive benchmark, the differential and golden validators, the
chaos harness's fault-injecting connector, and — because it also
satisfies the connector contract (``execute``/``close``) — the wire
server under ``repro serve``.

Reads run the ordinary query registry against the router's
:class:`~repro.shard.router.ShardedTransaction`; updates go through
the router's epoch-locked (two-phase when cross-shard) commit; the
final-state ``digest()`` is the merged canonical snapshot digest, the
exact oracle every other SUT is judged by.
"""

from __future__ import annotations

from ..core.sut import BaseSUT
from ..datagen.update_stream import UpdateOperation
from ..errors import WorkloadError
from ..queries.registry import COMPLEX_QUERIES, SHORT_QUERIES
from ..workload.operations import EntityRef
from .router import ShardRouter
from .worker import ShardFaultPlan


class ShardedStoreSUT(BaseSUT):
    """N worker processes + a router, behind the one-SUT interface."""

    name = "sharded-store"

    def __init__(self, router: ShardRouter) -> None:
        self.router = router

    @classmethod
    def for_network(cls, network, num_shards: int, *,
                    faults: ShardFaultPlan | None = None,
                    request_timeout: float = 30.0,
                    start_method: str | None = None,
                    wal_dir: str | None = None,
                    sync_wal: bool = False,
                    max_restarts: int = 8,
                    ) -> "ShardedStoreSUT":
        """Partition + bulk-load a generated network across workers."""
        return cls(ShardRouter.spawn(
            network, num_shards, faults=faults,
            request_timeout=request_timeout, start_method=start_method,
            wal_dir=wal_dir, sync_wal=sync_wal,
            max_restarts=max_restarts))

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    # -- BaseSUT hooks -----------------------------------------------------

    def _complex(self, query_id: int, params: object):
        entry = COMPLEX_QUERIES.get(query_id)
        if entry is None:
            raise WorkloadError(f"unknown complex query Q{query_id}")
        with self.router.transaction() as txn:
            return entry.run(txn, params)

    def _short(self, query_id: int, entity: EntityRef):
        entry = SHORT_QUERIES.get(query_id)
        if entry is None:
            raise WorkloadError(f"unknown short query S{query_id}")
        with self.router.transaction() as txn:
            return entry.run(txn, entity.id)

    def _update(self, operation: UpdateOperation) -> None:
        self.router.execute_update(operation)

    # -- oracle / lifecycle ------------------------------------------------

    def snapshot(self) -> dict[str, list[dict]]:
        """Merged canonical whole-graph snapshot (the digest input)."""
        return self.router.snapshot()

    def stats(self) -> dict:
        return self.router.stats()

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        self.router.close()
