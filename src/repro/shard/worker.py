"""The shard worker process: one store partition behind a pipe.

Spawn-safety rule: the worker entry point and everything it touches
are module-level, the whole configuration (the shard's pre-partitioned
bulk slice, the fault plan, the durability settings) arrives as
picklable process arguments, and nothing is inherited from parent
interpreter state — so ``spawn``, ``fork`` and ``forkserver`` all
work.

The worker is deliberately *serial*: it owns a local
:class:`~repro.store.graph.GraphStore` holding only the vertices and
adjacency halves routed to it, and answers requests from its pipe one
at a time.  Serial execution is what makes the router's retry story
airtight — responses come back in request order, so a timed-out
request's late response is always drained before the retry's, and the
store's applied keys (each write carries the update's ``natural_key``)
make every retried write a replay — the in-process SUTs' rule.

Durability (:class:`ShardDurability`): every write event is appended to
the shard's own WAL (:class:`repro.store.wal.ShardWAL`) *before* it is
acknowledged on the pipe, so a ``kill -9`` after the ack can never lose
the write.  A respawned worker rebuilds itself in ``__init__`` —
bulk-load the shard slice, replay the WAL (which also reconstructs the
store's applied keys and the in-doubt 2PC stages) — before it
serves a single request, so the supervisor's recovery RPCs always see a
fully recovered shard.

Chaos hooks: a :class:`ShardFaultPlan` injects deterministic, seeded
*worker aborts* (a transient raise before any state change), *response
delays* (the worker applies, then stalls past the router's budget — the
retry must be absorbed by the applied keys, never double-applied), and
three *crash* faults — ``kill_rate`` (die before the ack: half the
draws before anything durable happened, half after the WAL append and
state apply), ``kill_after_prepare`` (ack the 2PC prepare, then die —
the in-doubt window), and ``torn_wal_rate`` (die mid-WAL-append,
leaving a torn trailing record).  Crash faults persist a spent marker
to a sidecar file *before* dying so the respawned worker never re-fires
them; each fault fires at most once per update key, so a perturbed
run converges to the fault-free digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass

from .. import telemetry
from ..errors import TransientError
from ..store.graph import GraphStore
from ..store.wal import (
    TORN_RECORD_COUNTER,
    ShardWAL,
    read_shard_log,
    replay_shard_log,
)
from .routing import ShardLoad, load_shard

#: Worker-side span buffer bound — enough for the soak sizes the tests
#: run, without letting a long benchmark grow worker memory unbounded.
_SPAN_BUFFER = 4096

#: Fault kinds whose spent markers must survive the crash they cause.
_CRASH_KINDS = ("kill", "kill_prepare", "torn")


class InjectedWorkerAbortError(TransientError):
    """A seeded worker-side abort (chaos); clears on retry."""


@dataclass(frozen=True)
class ShardDurability:
    """Where a shard's durable state lives (picklable).

    One directory shared by all shards of a run: per-shard WAL files,
    per-shard crash-fault spent files, and the router's coordinator
    log.  ``sync`` turns on fsync-per-append (the real durability
    guarantee; off by default because the tests' kill faults are
    process kills, which never lose OS-buffered writes).
    """

    wal_dir: str
    sync: bool = False

    def wal_path(self, shard_index: int) -> str:
        return os.path.join(self.wal_dir, f"shard-{shard_index}.wal")

    def spent_path(self, shard_index: int) -> str:
        return os.path.join(self.wal_dir, f"shard-{shard_index}.spent")


@dataclass(frozen=True)
class ShardFaultPlan:
    """Deterministic worker-side fault schedule (picklable).

    Rates are per update key; draws are seeded hashes of
    ``(seed, salt, repr(key))`` so runs are reproducible and different
    faults can be made to hit the same operation.  ``delay_seconds``
    must exceed the router's request timeout for the delay to surface
    as a :class:`~repro.errors.ShardTimeoutError` retry.  The crash
    rates (``kill_rate``, ``kill_after_prepare``, ``torn_wal_rate``)
    require a :class:`ShardDurability` — killing a WAL-less worker
    would genuinely lose acknowledged state, which is the one outcome
    the chaos harness exists to rule out.
    """

    abort_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    kill_rate: float = 0.0
    kill_after_prepare: float = 0.0
    torn_wal_rate: float = 0.0
    seed: int = 0

    def _draw(self, salt: str, key: tuple) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{salt}:{key!r}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def should_abort(self, key: tuple) -> bool:
        return self.abort_rate > 0.0 and \
            self._draw("abort", key) < self.abort_rate

    def should_delay(self, key: tuple) -> bool:
        return self.delay_rate > 0.0 and \
            self._draw("delay", key) < self.delay_rate

    def should_kill(self, key: tuple) -> bool:
        return self.kill_rate > 0.0 and \
            self._draw("kill", key) < self.kill_rate

    def kill_phase(self, key: tuple) -> str:
        """Where a ``kill_rate`` death lands: ``pre`` (before the WAL
        append — nothing durable; retry re-applies) or ``post`` (after
        WAL + state apply, before the ack — retry must replay)."""
        return "pre" if self._draw("killphase", key) < 0.5 else "post"

    def should_kill_after_prepare(self, key: tuple) -> bool:
        return self.kill_after_prepare > 0.0 and \
            self._draw("killprep", key) < self.kill_after_prepare

    def should_tear(self, key: tuple) -> bool:
        return self.torn_wal_rate > 0.0 and \
            self._draw("torn", key) < self.torn_wal_rate

    @property
    def has_crash_faults(self) -> bool:
        return self.kill_rate > 0.0 or self.kill_after_prepare > 0.0 \
            or self.torn_wal_rate > 0.0


def _encode_error(exc: BaseException) -> tuple[str, str, bool]:
    """(type name, message, transient?) — picklable error surrogate."""
    return (type(exc).__name__, str(exc),
            isinstance(exc, (TransientError, TimeoutError,
                             ConnectionError)))


class _WorkerState:
    """Everything one worker process owns."""

    def __init__(self, load: ShardLoad, faults: ShardFaultPlan,
                 durability: ShardDurability | None = None) -> None:
        self.shard_index = load.shard_index
        self.store: GraphStore = load_shard(load)
        self.faults = faults
        #: update key → (vertices, halves) staged by a 2PC prepare.
        self.staged: dict[tuple, tuple[list, list]] = {}
        self.spans: deque = deque(maxlen=_SPAN_BUFFER)
        self.requests = 0
        self.replayed = 0
        self.fault_counts = {"abort": 0, "delay": 0}
        self._fault_spent: set[tuple[str, tuple]] = set()
        #: Set by a fault that must ack first and die after; honored by
        #: the serving loop immediately after ``conn.send``.
        self.exit_after_send = False
        self.wal: ShardWAL | None = None
        self._spent_handle = None
        self.crash_fault_counts = {kind: 0 for kind in _CRASH_KINDS}
        self.recovered_ops = 0
        self.recovered_staged = 0
        self.torn_wal_records = 0
        self.resolved = {"commit": 0, "abort": 0}
        if durability is not None:
            self._recover(durability)

    # -- durability / recovery --------------------------------------------

    def _recover(self, durability: ShardDurability) -> None:
        """Replay this shard's WAL, then reopen it for appending.

        Runs before the serving loop touches the pipe, so by the time
        the supervisor's post-respawn ``ping`` is answered the shard's
        state, applied keys and in-doubt stages are all back.  Replay
        bypasses the fault hooks — recovery must not re-fire the crash
        that caused it (the spent file guarantees that anyway, but
        recovery is also exercised with live fault plans).
        """
        wal_path = durability.wal_path(self.shard_index)
        if os.path.exists(wal_path):
            # Delta against the inherited value: under ``fork`` the
            # child starts with the parent's counter state.
            torn_before = telemetry.counter(TORN_RECORD_COUNTER).value
            records = read_shard_log(wal_path)
            self.torn_wal_records = \
                telemetry.counter(TORN_RECORD_COUNTER).value - torn_before
            self.staged = replay_shard_log(self.store, records)
            self.recovered_ops = self.store.applied_count
            self.recovered_staged = len(self.staged)
        self.wal = ShardWAL(wal_path, sync_every_append=durability.sync)
        self._load_spent(durability.spent_path(self.shard_index))

    def _load_spent(self, spent_path: str) -> None:
        """Crash-fault markers persisted by previous incarnations: one
        JSON line ``[kind, key]`` each."""
        if os.path.exists(spent_path):
            with open(spent_path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        kind, key = json.loads(line)
                    except ValueError:
                        continue
                    marker = (kind, tuple(key))
                    if marker not in self._fault_spent:
                        self._fault_spent.add(marker)
                        self.crash_fault_counts[kind] += 1
        self._spent_handle = open(spent_path, "a", encoding="utf-8")

    def _spend_crash(self, kind: str, key: tuple) -> bool:
        """Durably mark a crash fault fired; False if already spent.

        The marker must hit the file *before* the process dies, or the
        respawned worker would re-fire the kill on the retried op
        forever.
        """
        if self.wal is None or (kind, key) in self._fault_spent:
            return False
        self._fault_spent.add((kind, key))
        self.crash_fault_counts[kind] += 1
        self._spent_handle.write(json.dumps([kind, key]) + "\n")
        self._spent_handle.flush()
        os.fsync(self._spent_handle.fileno())
        return True

    @staticmethod
    def _die() -> None:
        """Simulate ``kill -9``: no cleanup, no ack, no flush."""
        os._exit(1)

    # -- chaos ------------------------------------------------------------

    def _maybe_fault(self, key: tuple) -> None:
        """Fire each seeded fault at most once per update key."""
        if self.faults.should_delay(key) and \
                ("delay", key) not in self._fault_spent:
            self._fault_spent.add(("delay", key))
            self.fault_counts["delay"] += 1
            time.sleep(self.faults.delay_seconds)
        if self.faults.should_abort(key) and \
                ("abort", key) not in self._fault_spent:
            self._fault_spent.add(("abort", key))
            self.fault_counts["abort"] += 1
            raise InjectedWorkerAbortError(
                f"injected worker abort on shard {self.shard_index} "
                f"for {key}")

    def _maybe_kill(self, key: tuple, phase: str) -> None:
        if self.faults.should_kill(key) and \
                self.faults.kill_phase(key) == phase and \
                self._spend_crash("kill", key):
            self._die()

    def _maybe_tear(self, key: tuple, act: str, vertices: list,
                    halves: list) -> None:
        if self.faults.should_tear(key) and \
                self._spend_crash("torn", key):
            self.wal.tear(act, key, vertices, halves)
            self._die()

    # -- write path -------------------------------------------------------

    def apply(self, key: tuple, vertices: list, halves: list) -> str:
        """Single-shard commit: WAL, then apply atomically, then ack."""
        if not self.store.validate_shard_writes(key, vertices):
            self.replayed += 1
            return "replayed"
        self._maybe_fault(key)
        self._maybe_kill(key, "pre")
        self._maybe_tear(key, "apply", vertices, halves)
        if self.wal is not None:
            self.wal.log_apply(key, vertices, halves)
        self.store.apply_shard_writes(key, vertices, halves)
        self._maybe_kill(key, "post")
        return "applied"

    def prepare(self, key: tuple, vertices: list, halves: list) -> str:
        """2PC phase 1: validate and stage; nothing becomes visible."""
        if not self.store.validate_shard_writes(key, vertices):
            self.replayed += 1
            return "already-applied"
        self._maybe_fault(key)
        self._maybe_kill(key, "pre")
        self._maybe_tear(key, "prepare", vertices, halves)
        if self.wal is not None:
            self.wal.log_prepare(key, vertices, halves)
        self.staged[key] = (vertices, halves)
        if self.faults.should_kill_after_prepare(key) and \
                self._spend_crash("kill_prepare", key):
            # Ack the prepare, then die — the canonical in-doubt
            # window; recovery must resolve by the coordinator log.
            self.exit_after_send = True
        return "prepared"

    def commit(self, key: tuple) -> str:
        """2PC phase 2: apply the staged slice.  A commit re-issued after
        recovery rolled its stage forward is a replay."""
        if key not in self.staged and \
                not self.store.validate_shard_writes(key, ()):
            self.replayed += 1
            return "replayed"
        vertices, halves = self.staged.pop(key)
        if self.wal is not None:
            self.wal.log_mark(key, "commit")
        self.store.apply_shard_writes(key, vertices, halves)
        return "committed"

    def abort(self, key: tuple) -> str:
        if self.staged.pop(key, None) is not None \
                and self.wal is not None:
            self.wal.log_mark(key, "abort")
        return "aborted"

    # -- supervised recovery RPCs -----------------------------------------

    def staged_keys(self) -> list[tuple]:
        return list(self.staged.keys())

    def resolve(self, decisions: dict[tuple, str]) -> dict[str, int]:
        """Resolve in-doubt stages by the coordinator's decisions.

        Bypasses the fault hooks — resolution is recovery.  Keys with
        no entry in ``decisions`` stay staged (during live recovery the
        owning router thread is still mid-2PC and will decide).
        """
        report = {"commit": 0, "abort": 0, "kept": 0}
        for key in list(self.staged.keys()):
            decision = decisions.get(key)
            if decision == "commit":
                self.commit(key)
                report["commit"] += 1
                self.resolved["commit"] += 1
            elif decision == "abort":
                self.abort(key)
                report["abort"] += 1
                self.resolved["abort"] += 1
            else:
                report["kept"] += 1
        return report

    # -- read path --------------------------------------------------------

    def dispatch(self, method: str, args: tuple):
        self.requests += 1
        if method == "apply":
            return self.apply(*args)
        if method == "prepare":
            return self.prepare(*args)
        if method == "commit":
            return self.commit(*args)
        if method == "abort":
            return self.abort(*args)
        if method == "staged_keys":
            return self.staged_keys()
        if method == "resolve":
            return self.resolve(*args)
        if method == "snapshot":
            from ..validation.snapshot import snapshot_store
            return snapshot_store(self.store)
        if method == "busy":
            # CPU-bound spin for the scale-up benchmark: the work runs
            # on this process's own GIL, which is the whole point.
            deadline = time.perf_counter() + args[0]
            while time.perf_counter() < deadline:
                pass
            return None
        if method == "drain_spans":
            drained = list(self.spans)
            self.spans.clear()
            return drained
        if method == "stats":
            faults = dict(self.fault_counts)
            faults.update(self.crash_fault_counts)
            return {
                "pid": os.getpid(),
                "shard": self.shard_index,
                "requests": self.requests,
                "commits": self.store.commit_count,
                "applied": self.store.applied_count,
                "replayed": self.replayed,
                "staged": len(self.staged),
                "faults": faults,
                "wal_records": (self.wal.records_logged
                                if self.wal is not None else 0),
                "recovered_ops": self.recovered_ops,
                "recovered_staged": self.recovered_staged,
                "resolved": dict(self.resolved),
                "torn_wal_records": self.torn_wal_records,
            }
        if method == "ping":
            return os.getpid()
        return self._read(method, args)

    def _read(self, method: str, args: tuple):
        with self.store.transaction() as txn:
            if method == "vertex":
                return txn.vertex(*args)
            if method == "vertex_many":
                return txn.vertex_many(*args)
            if method == "neighbors":
                return list(txn.neighbors(*args))
            if method == "neighbors_many":
                return txn.neighbors_many(*args)
            if method == "lookup":
                return txn.lookup(*args)
            if method == "scan_range":
                label, prop, low, high, reverse = args
                return list(txn.scan_range(label, prop, low, high,
                                           reverse=reverse))
            if method == "vertices":
                return list(txn.vertices(*args))
            if method == "edges":
                return list(txn.edges(*args))
            if method == "count_vertices":
                return txn.count_vertices(*args)
        raise ValueError(f"unknown shard RPC {method!r}")


def shard_worker_main(conn, load: ShardLoad, faults: ShardFaultPlan,
                      durability: ShardDurability | None = None) -> None:
    """Process entry point: serve requests until ``shutdown``.

    Every request is answered — errors travel back as picklable
    ``(type name, message, transient?)`` surrogates the router re-raises
    onto the taxonomy — and per-request wall-clock spans are buffered
    for the router to stitch onto per-shard telemetry tracks.  Recovery
    (WAL replay) happens inside ``_WorkerState(...)`` before the first
    ``recv``, so a respawned worker is whole before it serves.
    """
    state = _WorkerState(load, faults, durability)
    track = f"shard-{load.shard_index}"
    while True:
        try:
            seq, method, args = conn.recv()
        except (EOFError, OSError):
            break
        if method == "shutdown":
            conn.send((seq, "ok", None))
            break
        started = time.time()
        try:
            payload = state.dispatch(method, args)
        except BaseException as exc:
            status, payload = "err", _encode_error(exc)
        else:
            status = "ok"
        state.spans.append((f"{track}.{method}", started, time.time(),
                            {"shard": load.shard_index, "ok":
                             status == "ok"}))
        try:
            conn.send((seq, status, payload))
        except (BrokenPipeError, OSError):
            break
        if state.exit_after_send:
            state._die()
    conn.close()
