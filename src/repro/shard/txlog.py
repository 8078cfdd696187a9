"""The router-side coordinator log for cross-shard 2PC.

The router is the 2PC coordinator, and this log is its durable memory
of every decision: ``begin`` when a cross-shard commit starts,
``commit`` *before* any commit RPC goes out (the commit point), and
``abort`` before the abort RPCs.  Recovery of a crashed shard worker
then resolves its in-doubt stages deterministically:

==================  =====================  ==========================
coordinator log      shard WAL              resolution
==================  =====================  ==========================
``commit`` logged    ``prepare`` staged     roll **forward** (apply)
``abort`` logged     ``prepare`` staged     roll **back** (discard)
no decision (live)   ``prepare`` staged     leave staged — the owning
                                            router thread is mid-2PC
                                            and will decide
no decision (cold)   ``prepare`` staged     presumed **abort**: the
                                            decision is logged before
                                            any commit RPC, so an
                                            undecided op was never
                                            committed anywhere
==================  =====================  ==========================

A replay whose every prepare answers "already-applied" staged nothing,
so it closes its ``begin`` with ``abort`` and sends no further RPC.

Because the decision record hits the log before the corresponding RPCs,
a decided op is decided forever — a worker that crashed after acking
prepare learns the outcome from here, never by guessing.

The log is always usable in-memory; give it a path to make decisions
survive router restarts (``--shard-wal-dir``).  The file shares the
torn-tail-tolerant append-log substrate of :mod:`repro.store.wal`.
"""

from __future__ import annotations

import os
import threading

from ..errors import ShardError
from ..store.wal import AppendLog, read_records

#: File name of the coordinator log inside the shard WAL directory.
COORDINATOR_LOG = "coordinator.log"

_TXLOG_KEYS = ("act", "op")


class CoordinatorLog:
    """Durable (optionally) record of every cross-shard 2PC decision."""

    def __init__(self, path: str | os.PathLike | None = None,
                 sync_every_append: bool = False) -> None:
        #: update key → "commit" | "abort"; last decision wins on
        #: replay (a retried op that aborted once and committed later
        #: must resolve commit).
        self._decisions: dict[tuple, str] = {}
        self._begun: dict[tuple, list[int]] = {}
        self._lock = threading.Lock()
        self._log: AppendLog | None = None
        if path is not None:
            path = os.fspath(path)
            if os.path.exists(path):
                for record in read_records(path, _TXLOG_KEYS):
                    self._replay(record)
            self._log = AppendLog(path,
                                  sync_every_append=sync_every_append)

    def _replay(self, record: dict) -> None:
        act, key = record["act"], tuple(record["op"])
        if act == "begin":
            self._begun[key] = list(record.get("shards", []))
        elif act in ("commit", "abort"):
            self._decisions[key] = act
        else:
            raise ShardError(f"unknown coordinator-log act {act!r}")

    @property
    def path(self) -> str | None:
        return self._log.path if self._log is not None else None

    @property
    def durable(self) -> bool:
        return self._log is not None

    def _append(self, record: dict) -> None:
        if self._log is not None:
            self._log.append(record)

    # -- the 2PC protocol hooks (called by the router) ---------------------

    def log_begin(self, key: tuple, shards: list[int]) -> None:
        with self._lock:
            self._begun[key] = list(shards)
            # A re-run of an op that aborted before is a fresh attempt:
            # clear the stale abort so the new outcome decides it.
            if self._decisions.get(key) == "abort":
                del self._decisions[key]
            self._append({"act": "begin", "op": key,
                          "shards": list(shards)})

    def log_commit(self, key: tuple) -> None:
        """THE commit point — must be called before any commit RPC."""
        with self._lock:
            self._decisions[key] = "commit"
            self._append({"act": "commit", "op": key})

    def log_abort(self, key: tuple) -> None:
        with self._lock:
            self._decisions[key] = "abort"
            self._append({"act": "abort", "op": key})

    # -- recovery queries --------------------------------------------------

    def decision(self, key: tuple) -> str | None:
        """``"commit"``, ``"abort"``, or ``None`` while undecided."""
        with self._lock:
            return self._decisions.get(key)

    def in_doubt(self) -> list[tuple]:
        """Ops begun but never decided (interesting on cold restart)."""
        with self._lock:
            return [op for op in self._begun
                    if op not in self._decisions]

    def stats(self) -> dict:
        with self._lock:
            commits = sum(1 for act in self._decisions.values()
                          if act == "commit")
            return {
                "begun": len(self._begun),
                "committed": commits,
                "aborted": len(self._decisions) - commits,
                "durable": self.durable,
            }

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
