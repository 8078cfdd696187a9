"""The shard router: one process orchestrating N worker shards.

The router owns one duplex pipe per worker, wrapped in a request
channel, and exposes three things:

* a **read transaction** (:class:`ShardedTransaction`) implementing the
  whole :class:`repro.store.graph.Transaction` read API, so every SNB
  query — all 14 complex reads and 7 short reads — runs against the
  sharded store *unchanged*.  Point reads dispatch straight to the
  owning shard; the batched primitives every query is written over
  (``neighbors_many``, ``vertex_many``) scatter one request per
  involved shard and merge the partial adjacency/property maps the
  workers aggregate locally; whole-label scans
  (``vertices``/``edges``/``lookup``/``scan_range``) scatter-gather
  across all shards, static-only labels excepted (shard 0 alone).
* an **update commit**: the update's insert logic runs router-side
  against a write recorder; the recorded write-set is partitioned by
  the placement rules and applied under a router-held commit epoch —
  directly when one shard is involved, two-phase (prepare everywhere,
  then commit everywhere) when the write-set straddles shards, e.g. a
  friendship between persons on different shards.  Every write carries
  the update's natural key: worker applies are exactly-once.
* the **merged canonical snapshot**: per-shard snapshots concatenated
  section-wise and re-sorted by canonical JSON — byte-identical to the
  single-process snapshot by the placement invariant, which is what
  lets every digest oracle in the repo (crosscheck, chaos, golden)
  judge the sharded store with no new machinery.

Failure taxonomy at the pipe boundary mirrors the wire protocol: a
worker exception travels back by name and re-raises as its original
:mod:`repro.errors` class; a response missing its deadline raises
:class:`~repro.errors.ShardTimeoutError` (transient — the serial worker
plus the store's applied keys make the retry safe); a dead worker raises
:class:`~repro.errors.ShardConnectionError` (fatal).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Iterator

from .. import errors as _errors
from .. import telemetry
from ..datagen.update_stream import UpdateOperation
from ..errors import (
    DuplicateError,
    FatalSUTError,
    NotFoundError,
    ShardConnectionError,
    ShardError,
    ShardTimeoutError,
    TransientError,
)
from ..net.channel import Channel
from ..queries.updates import executor_for
from ..store.graph import Direction
from .routing import (
    STATIC_LABELS,
    ShardWrites,
    is_static,
    owner_of,
    partition_bulk,
    partition_writes,
)
from .txlog import COORDINATOR_LOG, CoordinatorLog
from .worker import ShardDurability, ShardFaultPlan, shard_worker_main

#: Mutation-canary hook (see :mod:`repro.validation.canary`): when set
#: to a shard index, scatter-gather reads silently drop that shard's
#: partial results — a seeded routing bug the validation harness must
#: catch via golden reads / checkpoint digests.
_canary_drop_shard: int | None = None


def default_start_method() -> str:
    """``fork`` when the platform offers it (worker startup is ~free),
    else ``spawn``.  The worker code itself is spawn-safe either way —
    CI and the test suite exercise ``spawn`` explicitly."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"


def _decode_error(payload: tuple[str, str, bool]) -> BaseException:
    """Re-raise a worker error surrogate as its taxonomy class."""
    name, message, transient = payload
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls(message)
    if name == "InjectedWorkerAbortError":
        from .worker import InjectedWorkerAbortError
        return InjectedWorkerAbortError(message)
    if transient:
        return TransientError(f"shard worker {name}: {message}")
    return FatalSUTError(f"shard worker {name}: {message}")


class PipeTransport:
    """A worker pipe as a :class:`~repro.net.channel.Channel` transport:
    ``(seq, method, args)`` out, ``(seq, status, payload)`` back."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, seq: int, request: tuple) -> None:
        self.conn.send((seq, *request))

    def poll(self, timeout: float) -> bool:
        return self.conn.poll(timeout)

    def recv(self) -> tuple:
        seq, status, payload = self.conn.recv()
        return seq, (status, payload)

    def close(self) -> None:
        self.conn.close()


class ShardHandle:
    """Router-side endpoint of one worker: its process and channel.

    The :class:`~repro.net.channel.Channel` carries one request at a
    time and drops the late answer of a timed-out call; the worker is
    serial, so that answer always precedes the next one.

    ``generation`` counts worker incarnations: the supervisor bumps it
    after it swaps in a respawned process and channel, which is how a
    failed caller distinguishes "my worker is still dead" from "someone
    already recovered it".  ``pending`` counts requests currently queued
    or in flight on this shard — part of the dead-worker error payload.
    """

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.channel = Channel(PipeTransport(conn))
        self.timeouts = 0
        self.generation = 0
        self.pending = 0

    def call(self, method: str, args: tuple, timeout: float,
             key: tuple | None = None):
        self.pending += 1
        try:
            status, payload = self.channel.call((method, args), timeout)
        except TimeoutError:
            self.timeouts += 1
            raise ShardTimeoutError(
                f"shard {self.index} did not answer {method} "
                f"within {timeout:.3f}s") from None
        except ConnectionError as exc:
            raise ShardConnectionError(
                f"shard worker died during {method} "
                f"(pid {self.process.pid})",
                shard_index=self.index, key=key,
                pending=self.pending) from exc
        finally:
            self.pending -= 1
        if status == "ok":
            return payload
        raise _decode_error(payload)


class ShardRouter:
    """Process/pipe management plus the read and commit protocols."""

    def __init__(self, handles: list[ShardHandle],
                 request_timeout: float = 30.0,
                 txlog: CoordinatorLog | None = None) -> None:
        self.handles = handles
        self.num_shards = len(handles)
        self.request_timeout = request_timeout
        #: Router-held commit epoch: all update commits serialize here,
        #: which is what makes the two-phase window (prepare on some
        #: shards, not yet committed on others) invisible to every
        #: other writer.
        self._commit_lock = threading.Lock()
        self._epoch = 0
        self._closed = False
        self._updates = 0
        self._multi_shard_updates = 0
        #: Routed updates every involved worker had already applied.
        self._replays = 0
        self._gather_pool = None
        self._pool_lock = threading.Lock()
        #: Coordinator decision log; always present (in-memory when no
        #: WAL directory), durable when the run has one.
        self.txlog = txlog or CoordinatorLog()
        #: Installed by :meth:`spawn` when durability is configured;
        #: ``None`` means a dead worker stays fatal (the pre-recovery
        #: behaviour).
        self.supervisor = None

    # -- construction ------------------------------------------------------

    @classmethod
    def spawn(cls, network, num_shards: int, *,
              faults: ShardFaultPlan | None = None,
              request_timeout: float = 30.0,
              start_method: str | None = None,
              wal_dir: str | os.PathLike | None = None,
              sync_wal: bool = False,
              max_restarts: int = 8) -> "ShardRouter":
        """Partition a bulk network and spawn one worker per shard.

        With ``wal_dir`` the run is crash-tolerant: each worker keeps a
        WAL there, the router keeps its 2PC coordinator log there, and
        a :class:`~repro.shard.supervisor.WorkerSupervisor` (budgeted
        by ``max_restarts``) respawns dead workers.  Spawning into a
        directory that already holds WALs is a *cold restart*: workers
        replay their logs and in-doubt 2PC stages resolve by the
        coordinator log (presumed abort when undecided).
        """
        if num_shards < 1:
            raise ShardError(f"num_shards must be >= 1, got {num_shards}")
        context = multiprocessing.get_context(
            start_method or default_start_method())
        faults = faults or ShardFaultPlan()
        durability = None
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            durability = ShardDurability(os.fspath(wal_dir),
                                         sync=sync_wal)
        elif faults.has_crash_faults:
            raise ShardError(
                "crash faults (kill/torn rates) require a shard WAL "
                "directory — killing a WAL-less worker loses "
                "acknowledged state by construction")
        loads = partition_bulk(network, num_shards)
        handles: list[ShardHandle] = []
        try:
            for load in loads:
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=shard_worker_main,
                    args=(child_conn, load, faults, durability),
                    name=f"repro-shard-{load.shard_index}",
                    daemon=True)
                process.start()
                child_conn.close()
                handles.append(ShardHandle(load.shard_index, process,
                                           parent_conn))
            txlog = CoordinatorLog(
                os.path.join(durability.wal_dir, COORDINATOR_LOG)
                if durability is not None else None,
                sync_every_append=sync_wal)
            router = cls(handles, request_timeout=request_timeout,
                         txlog=txlog)
            # Liveness probe: a worker that failed to import/load must
            # surface here, not as a hang on the first real operation.
            for handle in handles:
                handle.call("ping", (), timeout=max(request_timeout, 30.0))
            if durability is not None:
                from .supervisor import WorkerSupervisor
                router.supervisor = WorkerSupervisor(
                    router, loads, context, faults, durability,
                    max_restarts=max_restarts)
                router._resolve_cold_restart()
            return router
        except BaseException:
            for handle in handles:
                if handle.process.is_alive():
                    handle.process.terminate()
            raise

    def _resolve_cold_restart(self) -> None:
        """Settle in-doubt 2PC stages replayed from pre-existing WALs.

        Cold restart means no router thread is mid-commit, so every
        undecided stage is *presumed abort*: the coordinator logs its
        decision before sending any commit RPC, so an op with no
        logged decision was never committed anywhere.
        """
        control = self._control_timeout
        for handle in self.handles:
            staged = handle.call("staged_keys", (), control)
            if not staged:
                continue
            decisions = {
                key: (self.txlog.decision(key) or "abort")
                for key in staged}
            handle.call("resolve", (decisions,), control)

    # -- plumbing ----------------------------------------------------------

    def _call_handle(self, handle: ShardHandle, method: str, args: tuple,
                     timeout: float, key: tuple | None = None):
        """One supervised RPC: a dead worker triggers recovery + retry.

        Every data-plane RPC funnels through here.  Without a
        supervisor (no WAL directory) the dead-worker error propagates
        fatal exactly as before.
        """
        generation = handle.generation
        try:
            return handle.call(method, args, timeout, key=key)
        except ShardConnectionError as exc:
            if self.supervisor is None or self._closed:
                raise
            return self.supervisor.recover_and_reissue(
                handle, method, args, timeout, key=key,
                cause=exc, observed_gen=generation)

    def call(self, shard: int, method: str, *args,
             key: tuple | None = None):
        """One RPC to one shard."""
        return self._call_handle(self.handles[shard], method, args,
                                 self.request_timeout, key=key)

    def _pool(self):
        with self._pool_lock:
            if self._gather_pool is None:
                from concurrent.futures import ThreadPoolExecutor
                self._gather_pool = ThreadPoolExecutor(
                    max_workers=max(4, 2 * self.num_shards),
                    thread_name_prefix="shard-gather")
            return self._gather_pool

    @property
    def _control_timeout(self) -> float:
        """Floor for control-plane RPCs (snapshot, stats, shutdown).

        Chaos soaks shrink ``request_timeout`` far below a full-shard
        snapshot's cost to force data-plane timeouts; the control plane
        must not inherit that.
        """
        return max(self.request_timeout, 30.0)

    def _fan_out(self, jobs: list[tuple]) -> list:
        """Run ``(handle, method, args, timeout)`` RPCs at once; results
        in job order.

        The last job runs on the calling thread and only the others on
        the pool (each blocks in ``poll``/``recv`` with the GIL
        released, so worker-side partial aggregation still runs in
        parallel): a fan-out of N costs N-1 thread hand-offs, and a
        single target none.  Every future is collected before the first
        error, in job order, is re-raised, so no RPC is left in flight.
        """
        if not jobs:
            return []
        futures = [self._pool().submit(self._call_handle, *job)
                   for job in jobs[:-1]]
        try:
            tail, tail_error = self._call_handle(*jobs[-1]), None
        except BaseException as exc:  # re-raised below, in job order
            tail, tail_error = None, exc
        for error in [future.exception() for future in futures] \
                + [tail_error]:
            if error is not None:
                raise error
        return [future.result() for future in futures] + [tail]

    def gather(self, method: str, *args, timeout: float | None = None,
               ) -> list:
        """The same RPC on every shard; per-shard results in index order."""
        timeout = self.request_timeout if timeout is None else timeout
        return self._fan_out([(h, method, args, timeout)
                              for h in self.handles
                              if h.index != _canary_drop_shard])

    def call_many(self, per_shard: dict[int, tuple]) -> dict[int, Any]:
        """Different arguments per shard, one fan-out; shard → result."""
        items = [(shard, call) for shard, call in per_shard.items()
                 if shard != _canary_drop_shard]
        results = self._fan_out([
            (self.handles[shard], method, tuple(args), self.request_timeout)
            for shard, (method, *args) in items])
        return dict(zip((shard for shard, __ in items), results))

    # -- reads -------------------------------------------------------------

    def transaction(self) -> "ShardedTransaction":
        return ShardedTransaction(self)

    # -- updates -----------------------------------------------------------

    def execute_update(self, operation: UpdateOperation) -> None:
        """Route one SNB update through the sharded commit protocol."""
        executor = executor_for(operation.kind)
        recorder = _WriteRecorder()
        executor(recorder, operation.payload)
        per_shard = partition_writes(recorder.new_vertices,
                                     recorder.new_edges, self.num_shards)
        involved = sorted(shard for shard, writes in per_shard.items()
                          if writes)
        if not involved:
            return
        key = operation.natural_key
        with self._commit_lock:
            self._epoch += 1
            self._updates += 1
            if len(involved) == 1:
                shard = involved[0]
                writes = per_shard[shard]
                replay = self.call(shard, "apply", key, writes.vertices,
                                   writes.halves, key=key) == "replayed"
            else:
                self._multi_shard_updates += 1
                replay = self._two_phase(key, involved, per_shard)
            if replay:
                self._replays += 1

    def _two_phase(self, key: tuple, involved: list[int],
                   per_shard: dict[int, ShardWrites]) -> bool:
        """Prepare everywhere, log the decision, then send it.

        A prepare failure (duplicate, injected abort, timeout) logs
        **abort**, aborts the already-staged shards and re-raises;
        since nothing was applied, the retry starts clean.  On success
        the coordinator logs **commit** *before* the first commit RPC —
        that append is the commit point: a worker that dies holding a
        prepared stage rolls forward iff that record exists.  Commits
        cannot fail semantically (validation happened at prepare and
        the epoch lock excludes other writers); a commit *timeout*
        still applies worker-side, and the retry's prepares then answer
        "already-applied".  Only staged shards get a commit; if none
        staged, the update is a replay: log **abort**, return True.
        """
        self.txlog.log_begin(key, involved)
        prepared: list[int] = []
        try:
            for shard in involved:
                writes = per_shard[shard]
                if self.call(shard, "prepare", key, writes.vertices,
                             writes.halves, key=key) == "prepared":
                    prepared.append(shard)
        except BaseException:
            self.txlog.log_abort(key)
            for shard in prepared:
                try:
                    self.call(shard, "abort", key, key=key)
                except ShardError:
                    pass
            raise
        if not prepared:
            self.txlog.log_abort(key)
            return True
        self.txlog.log_commit(key)
        for shard in prepared:
            self.call(shard, "commit", key, key=key)
        return False

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict[str, list[dict]]:
        """Canonical whole-graph snapshot, merged across shards."""
        from ..validation.canonical import canonical_json

        parts = self.gather("snapshot", timeout=self._control_timeout)
        merged: dict[str, list[dict]] = {}
        for section in parts[0]:
            rows: list[dict] = []
            for part in parts:
                rows.extend(part[section])
            merged[section] = sorted(rows, key=canonical_json)
        return merged

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> dict:
        """Router counters plus each worker's own counters."""
        shards = []
        for handle in self.handles:
            try:
                worker = handle.call("stats", (), self._control_timeout)
            except ShardError:
                worker = {"shard": handle.index, "dead": True}
            worker["router_timeouts"] = handle.timeouts
            shards.append(worker)
        report = {
            "num_shards": self.num_shards,
            "updates": self._updates,
            "multi_shard_updates": self._multi_shard_updates,
            "replays": self._replays,
            "epoch": self._epoch,
            "coordinator": self.txlog.stats(),
            "shards": shards,
        }
        if self.supervisor is not None:
            report["supervisor"] = self.supervisor.stats()
        return report

    def close(self) -> None:
        """Drain spans, stop workers; idempotent."""
        if self._closed:
            return
        self._closed = True
        clock_offset = time.perf_counter() - time.time()
        for handle in self.handles:
            try:
                if telemetry.active:
                    spans = handle.call("drain_spans", (),
                                        min(self._control_timeout, 5.0))
                    pid = handle.process.pid
                    for name, wall_start, wall_end, attrs in spans:
                        telemetry.add_span(
                            name, wall_start + clock_offset,
                            wall_end + clock_offset, thread_id=pid,
                            thread_name=f"shard-{handle.index}-{pid}",
                            **attrs)
                handle.call("shutdown", (),
                            min(self._control_timeout, 5.0))
            except ShardError:
                pass
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            handle.channel.close()
        if self._gather_pool is not None:
            self._gather_pool.shutdown(wait=False)
        self.txlog.close()


class _WriteRecorder:
    """Write-API stand-in for a Transaction while building a write-set.

    The SNB-Interactive update workload is insert-only, so only the
    insert methods are implemented; the recorded shapes are exactly a
    Transaction's ``new_vertices``/``new_edges``.
    """

    def __init__(self) -> None:
        self.new_vertices: dict[tuple[str, int], dict] = {}
        self.new_edges: list[tuple[str, int, int, dict | None]] = []

    def insert_vertex(self, label: str, vid: int, props: dict) -> None:
        key = (label, vid)
        if key in self.new_vertices:
            raise DuplicateError(f"{label}:{vid} inserted twice in txn")
        self.new_vertices[key] = props

    def insert_edge(self, label: str, src: int, dst: int,
                    props: dict | None = None) -> None:
        self.new_edges.append((label, src, dst, props))

    def insert_undirected_edge(self, label: str, a: int, b: int,
                               props: dict | None = None) -> None:
        self.insert_edge(label, a, b, props)
        self.insert_edge(label, b, a, props)

    def update_vertex(self, label: str, vid: int, **changes) -> None:
        raise ShardError(
            "the sharded store routes insert-only SNB updates; "
            f"in-place update of {label}:{vid} is not supported")


class ShardedTransaction:
    """Read-only Transaction facade over the router.

    Implements every read primitive of
    :class:`repro.store.graph.Transaction`, so the whole query registry
    runs unmodified.  Each primitive reads at the owning workers'
    current committed snapshots; under the sequential validation modes
    (crosscheck, differential, golden) that is exactly the single-store
    semantics.  Writes go through :meth:`ShardRouter.execute_update`,
    never through this facade.
    """

    def __init__(self, router: ShardRouter) -> None:
        self.router = router

    # Context-manager protocol so ``with sut.router.transaction()``
    # reads exactly like the single-store code path.
    def __enter__(self) -> "ShardedTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    # -- point reads -------------------------------------------------------

    def _owner(self, vid: int) -> int:
        return owner_of(vid, self.router.num_shards)

    def vertex(self, label: str, vid: int) -> dict | None:
        return self.router.call(self._owner(vid), "vertex", label, vid)

    def require_vertex(self, label: str, vid: int) -> dict:
        props = self.vertex(label, vid)
        if props is None:
            raise NotFoundError(f"{label}:{vid} not visible")
        return props

    def vertex_exists(self, label: str, vid: int) -> bool:
        return self.vertex(label, vid) is not None

    def neighbors(self, edge_label: str, vid: int,
                  direction: Direction = Direction.OUT,
                  ) -> list[tuple[int, dict | None]]:
        if not is_static(vid):
            return self.router.call(self._owner(vid), "neighbors",
                                    edge_label, vid, direction)
        return self.neighbors_many(edge_label, [vid], direction)[vid]

    def degree(self, edge_label: str, vid: int,
               direction: Direction = Direction.OUT) -> int:
        return len(self.neighbors(edge_label, vid, direction))

    # -- batched primitives (per-shard partial aggregation) ---------------

    def vertex_many(self, label: str, vids) -> dict[int, dict]:
        per_shard: dict[int, list[int]] = {}
        for vid in vids:
            per_shard.setdefault(self._owner(vid), []).append(vid)
        if not per_shard:
            return {}
        results = self.router.call_many({
            shard: ("vertex_many", label, group)
            for shard, group in per_shard.items()})
        merged: dict[int, dict] = {}
        for part in results.values():
            merged.update(part)
        return merged

    def neighbors_many(self, edge_label: str, vids,
                       direction: Direction = Direction.OUT,
                       ) -> dict[int, list[tuple[int, dict | None]]]:
        """One scatter per involved shard; workers aggregate their
        owned slice of the batch locally and the router merges the
        partial adjacency maps — the path every SNB read expands its
        frontiers through."""
        static: list[int] = []
        per_shard: dict[int, list[int]] = {}
        for vid in vids:
            if is_static(vid):
                static.append(vid)
            else:
                per_shard.setdefault(self._owner(vid), []).append(vid)
        merged: dict[int, list[tuple[int, dict | None]]] = {}
        if per_shard:
            results = self.router.call_many({
                shard: ("neighbors_many", edge_label, group, direction)
                for shard, group in per_shard.items()})
            for part in results.values():
                merged.update(part)
        if static:
            # Static anchors' halves follow the non-static endpoints,
            # which may live anywhere: every shard answers the whole
            # static batch and the partial lists concatenate in shard
            # order.
            for vid in static:
                merged[vid] = []
            for part in self.router.gather("neighbors_many", edge_label,
                                           static, direction):
                for vid, pairs in part.items():
                    merged[vid].extend(pairs)
        return merged

    # -- scans -------------------------------------------------------------

    def lookup(self, vertex_label: str, prop: str, value) -> list[int]:
        found: list[int] = []
        for part in self.router.gather("lookup", vertex_label, prop,
                                       value):
            found.extend(part)
        return found

    def scan_range(self, vertex_label: str, prop: str, low=None,
                   high=None, *, reverse: bool = False,
                   ) -> Iterator[tuple[Any, int]]:
        import heapq

        parts = self.router.gather("scan_range", vertex_label, prop,
                                   low, high, reverse)
        # Each shard's index yields (key, vid) already key-ordered;
        # a k-way merge on the key keeps the global key order (ties
        # resolve in shard order, which every consumer re-sorts past).
        yield from heapq.merge(
            *parts, key=lambda pair: pair[0], reverse=reverse)

    def _scan(self, method: str, label: str) -> list:
        """Per-shard partials of a whole-label scan; a static-only label
        lives on shard 0 alone, so nobody else is asked."""
        if label in STATIC_LABELS:
            return [self.router.call(0, method, label)]
        return self.router.gather(method, label)

    def vertices(self, label: str) -> Iterator[tuple[int, dict]]:
        for part in self._scan("vertices", label):
            yield from part

    def edges(self, edge_label: str,
              ) -> Iterator[tuple[int, int, dict | None]]:
        for part in self.router.gather("edges", edge_label):
            yield from part

    def count_vertices(self, label: str) -> int:
        return sum(self._scan("count_vertices", label))
