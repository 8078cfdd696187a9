"""Multi-process sharded execution of the graph store.

The scale-out answer to the paper's Table 5: partition the SNB graph
by person-hash across worker processes (each its own interpreter, its
own GIL), route point operations to the owning shard, scatter-gather
the 2-hop traversals with per-shard partial aggregation, and commit
cross-shard updates two-phase under a router-held epoch — all while
preserving the canonical final-state digest byte for byte, so every
existing oracle (crosscheck, differential, chaos, golden) applies to
the sharded path unchanged.
"""

from .router import ShardRouter, ShardedTransaction
from .routing import (
    ShardLoad,
    ShardWrites,
    anchor_shard,
    is_static,
    owner_of,
    partition_bulk,
    partition_writes,
)
from .supervisor import WorkerSupervisor
from .sut import ShardedStoreSUT
from .txlog import CoordinatorLog
from .worker import (
    InjectedWorkerAbortError,
    ShardDurability,
    ShardFaultPlan,
)

__all__ = [
    "CoordinatorLog",
    "InjectedWorkerAbortError",
    "ShardDurability",
    "ShardFaultPlan",
    "ShardLoad",
    "WorkerSupervisor",
    "ShardRouter",
    "ShardWrites",
    "ShardedStoreSUT",
    "ShardedTransaction",
    "anchor_shard",
    "is_static",
    "owner_of",
    "partition_bulk",
    "partition_writes",
]
