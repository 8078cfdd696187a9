"""Supervised recovery of crashed shard workers.

A dead worker pipe used to be the end of the run (fatal
:class:`~repro.errors.ShardConnectionError`).  With a shard WAL
directory configured, the router hands the failure to this supervisor
instead, which turns a ``kill -9`` into a bounded, observable episode:

1. **detect** — the failed :class:`~repro.shard.router.ShardHandle`
   arrives with the cause;
2. **respawn** — a new worker process for the same shard slice; its
   ``__init__`` bulk-loads and replays the shard WAL before serving, so
   the acked state, the store's applied keys, and the in-doubt
   2PC stages are all back;
3. **resolve** — the staged update keys the worker reports are matched
   against the coordinator log; decided ops roll forward/back, the
   undecided ones stay staged for their still-live router thread;
4. **re-issue** — the request that hit the dead pipe is retried on the
   new worker (through the supervised path, so a worker that dies
   again recovers again, up to the budget).

Concurrency: one recovery at a time per shard (a non-blocking
per-shard lock).  A caller that loses the race does not queue behind
the respawn — it raises :class:`~repro.errors.ShardRecoveringError`,
which is *transient*, so the driver's retry policy backs off and
retries exactly as it would for any other transient failure.  The
``max_restarts`` budget bounds the whole run; when it is exhausted the
supervisor degrades to the original fatal error (with the shard/op
payload), which is what trips PR 4's circuit breaker.

Telemetry: ``shard.supervisor.restarts`` counts respawns and a
``shard.supervisor.recover`` span brackets each recovery episode;
:meth:`WorkerSupervisor.stats` reports restarts per shard and the
recovery-time distribution the bench quotes as p50/p95.
"""

from __future__ import annotations

import threading
import time

from .. import telemetry
from ..errors import ShardConnectionError, ShardRecoveringError
from ..net.channel import Channel
from .router import PipeTransport
from .routing import ShardLoad
from .worker import ShardDurability, ShardFaultPlan, shard_worker_main

#: Telemetry counter: one increment per worker respawn.
RESTART_COUNTER = "shard.supervisor.restarts"

#: Span name bracketing one recovery episode (respawn → resolved).
RECOVER_SPAN = "shard.supervisor.recover"


class WorkerSupervisor:
    """Respawns dead shard workers and replays them back to health."""

    def __init__(self, router, loads: list[ShardLoad], context,
                 faults: ShardFaultPlan,
                 durability: ShardDurability,
                 max_restarts: int = 8) -> None:
        self.router = router
        self.loads = {load.shard_index: load for load in loads}
        self.context = context
        self.faults = faults
        self.durability = durability
        self.max_restarts = max_restarts
        self.restarts_by_shard: dict[int, int] = {
            load.shard_index: 0 for load in loads}
        self.recovery_seconds: list[float] = []
        self._recovery_locks = {
            load.shard_index: threading.Lock() for load in loads}
        self._counter_lock = threading.Lock()

    @property
    def restarts(self) -> int:
        with self._counter_lock:
            return sum(self.restarts_by_shard.values())

    # -- the supervised failure path --------------------------------------

    def recover_and_reissue(self, handle, method: str, args: tuple,
                            timeout: float, *, key: tuple | None,
                            cause: ShardConnectionError,
                            observed_gen: int):
        """Bring the shard back, then retry the failed request on it.

        ``observed_gen`` is the handle generation the caller saw before
        its call: if another thread already respawned the worker (the
        generation moved), the respawn is skipped and the request goes
        straight to the new incarnation.
        """
        lock = self._recovery_locks[handle.index]
        if not lock.acquire(blocking=False):
            # Someone else is mid-recovery on this shard; don't queue
            # behind a multi-second respawn — fail transient and let
            # the driver's backoff absorb the wait.
            raise ShardRecoveringError(
                f"shard {handle.index} recovery in progress",
                shard_index=handle.index) from cause
        try:
            if handle.generation == observed_gen:
                while True:
                    try:
                        self._respawn(handle, cause)
                        break
                    except ShardConnectionError as died_again:
                        # The *respawned* worker died during its own
                        # recovery RPCs — respawn again, against the
                        # same budget (whose exhaustion is final).
                        if getattr(died_again, "budget_exhausted",
                                   False):
                            raise
                        cause = died_again
        finally:
            lock.release()
        return self.router._call_handle(handle, method, args, timeout,
                                        key=key)

    # -- respawn + replay + resolve ----------------------------------------

    def _respawn(self, handle, cause: ShardConnectionError) -> None:
        with self._counter_lock:
            if sum(self.restarts_by_shard.values()) >= self.max_restarts:
                exhausted = ShardConnectionError(
                    f"shard {handle.index} worker died and the "
                    f"supervisor restart budget "
                    f"({self.max_restarts}) is exhausted",
                    shard_index=handle.index, key=cause.key,
                    pending=handle.pending)
                exhausted.budget_exhausted = True
                raise exhausted from cause
            self.restarts_by_shard[handle.index] += 1
        started = time.monotonic()
        wall_start = time.time()
        telemetry.counter(RESTART_COUNTER).inc()
        load = self.loads[handle.index]
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=shard_worker_main,
            args=(child_conn, load, self.faults, self.durability),
            name=f"repro-shard-{handle.index}-r"
                 f"{self.restarts_by_shard[handle.index]}",
            daemon=True)
        process.start()
        child_conn.close()
        old_process, old_channel = handle.process, handle.channel
        # The generation moves last, so a caller that sees it moved also
        # sees the new channel; one still holding the old (dead) channel
        # fails and recover_and_reissue() sends it on to the new one.
        handle.process = process
        handle.channel = Channel(PipeTransport(parent_conn))
        handle.generation += 1
        old_channel.close()
        if old_process.is_alive():
            old_process.terminate()
        control = self.router._control_timeout
        handle.call("ping", (), control)
        staged = handle.call("staged_keys", (), control)
        decisions = {}
        for key in staged:
            decision = self.router.txlog.decision(key)
            if decision is not None:
                decisions[key] = decision
        resolution = {"commit": 0, "abort": 0, "kept": len(staged)}
        if decisions:
            resolution = handle.call("resolve", (decisions,), control)
        elapsed = time.monotonic() - started
        with self._counter_lock:
            self.recovery_seconds.append(elapsed)
        telemetry.add_span(
            RECOVER_SPAN, wall_start, wall_start + elapsed,
            shard=handle.index, generation=handle.generation,
            staged=len(staged), rolled_forward=resolution["commit"],
            rolled_back=resolution["abort"])

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        with self._counter_lock:
            seconds = list(self.recovery_seconds)
            by_shard = dict(self.restarts_by_shard)
        report = {
            "restarts": sum(by_shard.values()),
            "max_restarts": self.max_restarts,
            "restarts_by_shard": by_shard,
        }
        if seconds:
            report["recovery_p50_ms"] = round(
                telemetry.percentile(seconds, 0.50) * 1000.0, 3)
            report["recovery_p95_ms"] = round(
                telemetry.percentile(seconds, 0.95) * 1000.0, 3)
        return report
