"""Write-ahead logging and recovery for the graph store.

The benchmark requires full ACID; the in-memory MVCC store provides
atomicity, consistency and isolation, and this module supplies the D:
every commit appends one JSON line describing its write set *before*
the writes are applied (classic WAL discipline), and
:func:`recover_store` rebuilds a store from the bulk-load dataset plus
the log — mirroring a real deployment, where the 32-month bulk data
comes from CSVs and only the DML stream needs logging.

Two record formats share the same append/read machinery
(:class:`AppendLog` / :func:`read_records`):

* the **single-store commit log** (:class:`WriteAheadLog`) — one record
  per committed transaction, keyed by commit timestamp;
* the **shard WAL** (:class:`ShardWAL`) — one record per shard-worker
  write event, keyed by the update's natural key
  (:attr:`~repro.datagen.update_stream.UpdateOperation.natural_key`,
  stored as a JSON list and read back as a tuple).  ``apply`` records
  carry a single-shard commit's write slice; ``prepare`` records
  persist a 2PC stage (so an in-doubt transaction survives a worker
  crash between prepare and commit); ``commit``/``abort`` marks
  resolve a stage.  Replay re-applies with the key, which rebuilds
  both the shard's state *and* the store's applied keys, so a retried
  op can never double-apply across a crash.

Property values are JSON-encoded with tuples rendered as lists and
restored as tuples on replay, so a recovered store is
read-indistinguishable from the original.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from typing import IO, Any

from .. import telemetry
from ..errors import StoreError

#: Telemetry counter incremented for every torn/partial record skipped
#: during log reading (crash mid-append leaves at most one).
TORN_RECORD_COUNTER = "store.wal.torn_records"

#: The keys every well-formed single-store commit record carries.
_RECORD_KEYS = ("ts", "inserts", "updates", "edges")

#: The keys every well-formed shard WAL record carries.
_SHARD_RECORD_KEYS = ("act", "op")

from ..schema.dataset import SocialNetwork
from .graph import GraphStore
from .loader import load_network


def _encode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_encode_value(item) for item in value]
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    return value


def _encode_props(props: dict | None) -> dict | None:
    if props is None:
        return None
    return {key: _encode_value(value) for key, value in props.items()}


def _decode_props(props: dict | None) -> dict | None:
    if props is None:
        return None
    return {key: _decode_value(value) for key, value in props.items()}


def _truncate_torn_tail(path: str) -> None:
    """Cut an unterminated (torn) final line off an append log."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size == 0:
        return
    with open(path, "rb+") as handle:
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        position, last_newline = size, -1
        while position > 0 and last_newline < 0:
            start = max(0, position - 4096)
            handle.seek(start)
            chunk = handle.read(position - start)
            index = chunk.rfind(b"\n")
            if index >= 0:
                last_newline = start + index
            position = start
        handle.truncate(last_newline + 1 if last_newline >= 0 else 0)


class AppendLog:
    """Append-only JSON-lines file: the shared WAL substrate.

    One line per record, flushed on every append (optionally fsynced),
    guarded by a lock so concurrent committers interleave whole lines.
    """

    def __init__(self, path: str | os.PathLike,
                 sync_every_append: bool = False) -> None:
        self.path = os.fspath(path)
        # A crash mid-append leaves a partial trailing line with no
        # newline; appending after it would weld the next record onto
        # the fragment and turn a recoverable torn tail into mid-file
        # corruption.  Drop the fragment before reopening for append
        # (readers have already counted it by the time a recovering
        # writer gets here).
        _truncate_torn_tail(self.path)
        self._handle: IO[str] = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.sync_every_append = sync_every_append
        self.appended = 0

    def append(self, record: dict) -> int:
        """Persist one record; returns the serialized byte length."""
        line = json.dumps(record, separators=(",", ":"))
        self.append_line(line)
        return len(line) + 1

    def append_line(self, line: str) -> None:
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.sync_every_append:
                os.fsync(self._handle.fileno())
            self.appended += 1

    def append_torn(self, record: dict) -> None:
        """Write HALF a record and stop — the chaos crash-mid-append.

        Deliberately leaves the file with an unparsable trailing line
        (no newline, truncated JSON) exactly as a power cut mid-write
        would; the reader must skip it and count it as torn.
        """
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._handle.write(line[:max(1, len(line) // 2)])
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_records(path: str | os.PathLike,
                 required_keys: tuple[str, ...]) -> list[dict]:
    """Parse all records of an append log (oldest first).

    A torn final record (crash mid-append) is skipped with a warning —
    the ``store.wal.torn_records`` telemetry counter and a
    :class:`UserWarning` — as a recovering database would.  Torn covers
    both an unparsable trailing line and a truncation that still parses
    as JSON but lost some of the record's fields.  Corruption *before*
    the final record cannot come from a clean crash mid-append and
    raises :class:`~repro.errors.StoreError` instead of silently
    dropping committed data.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    while lines and not lines[-1]:
        lines.pop()
    records = []
    for position, line in enumerate(lines):
        if not line:
            continue
        record: dict | None
        try:
            parsed = json.loads(line)
            record = parsed if isinstance(parsed, dict) and all(
                key in parsed for key in required_keys) else None
        except json.JSONDecodeError:
            record = None
        if record is not None:
            records.append(record)
            continue
        if position != len(lines) - 1:
            raise StoreError(
                f"corrupt WAL record at line {position + 1} of "
                f"{os.fspath(path)} (not the final record; refusing "
                f"to drop committed data)")
        telemetry.counter(TORN_RECORD_COUNTER).inc()
        warnings.warn(
            f"skipping torn trailing WAL record in {os.fspath(path)} "
            f"(crash mid-append)", stacklevel=2)
    return records


# ---------------------------------------------------------------------------
# the single-store commit log
# ---------------------------------------------------------------------------

class WriteAheadLog:
    """Append-only commit log (one JSON line per commit)."""

    def __init__(self, path: str | os.PathLike,
                 sync_every_commit: bool = False) -> None:
        self._log = AppendLog(path, sync_every_append=sync_every_commit)

    @property
    def path(self) -> str:
        return self._log.path

    @property
    def sync_every_commit(self) -> bool:
        return self._log.sync_every_append

    @property
    def commits_logged(self) -> int:
        return self._log.appended

    def log_commit(self, ts: int, new_vertices, updated_vertices,
                   new_edges) -> None:
        """Persist one commit's write set (called before it applies)."""
        record = {
            "ts": ts,
            "inserts": [[label, vid, _encode_props(props)]
                        for (label, vid), props
                        in new_vertices.items()],
            "updates": [[label, vid, _encode_props(changes)]
                        for (label, vid), changes
                        in updated_vertices.items()],
            "edges": [[label, src, dst, _encode_props(props)]
                      for label, src, dst, props in new_edges],
        }
        if telemetry.active:
            with telemetry.span("store.wal.commit", ts=ts):
                self._log.append(record)
        else:
            self._log.append(record)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_log(path: str | os.PathLike) -> list[dict]:
    """Parse all commit records of a single-store log (oldest first)."""
    return read_records(path, _RECORD_KEYS)


def recover_store(bulk: SocialNetwork, wal_path: str | os.PathLike,
                  ) -> GraphStore:
    """Rebuild a store: bulk-load the base data, replay the log."""
    store = load_network(bulk)
    for record in read_log(wal_path):
        with store.transaction() as txn:
            for label, vid, props in record["inserts"]:
                txn.insert_vertex(label, vid, _decode_props(props))
            for label, vid, changes in record["updates"]:
                txn.update_vertex(label, vid,
                                  **_decode_props(changes))
            for label, src, dst, props in record["edges"]:
                txn.insert_edge(label, src, dst,
                                _decode_props(props))
    return store


def attach_wal(store: GraphStore, wal: WriteAheadLog) -> None:
    """Hook a WAL into a store's commit path.

    The log write happens after validation succeeds (so aborted
    commits never reach the log) and before the commit is acknowledged
    to the caller — once ``commit()`` returns, the commit is on disk.
    Raises if the store already has a WAL attached.
    """
    if getattr(store, "_wal", None) is not None:
        raise StoreError("store already has a write-ahead log")
    store._wal = wal
    original_apply = store._apply_commit

    def apply_with_wal(txn):
        ts = original_apply(txn)
        wal.log_commit(ts, txn.new_vertices, txn.updated_vertices,
                       txn.new_edges)
        return ts

    store._apply_commit = apply_with_wal


# ---------------------------------------------------------------------------
# the shard WAL (per-worker, keyed by the update's natural key)
# ---------------------------------------------------------------------------

def _encode_writes(vertices: list, halves: list) -> dict:
    return {
        "vertices": [[label, vid, _encode_props(props)]
                     for label, vid, props in vertices],
        "halves": [[label, direction, anchor, other,
                    _encode_props(props)]
                   for label, direction, anchor, other, props
                   in halves],
    }


def _decode_writes(record: dict) -> tuple[list, list]:
    vertices = [(label, vid, _decode_props(props))
                for label, vid, props in record.get("vertices", [])]
    halves = [(label, direction, anchor, other, _decode_props(props))
              for label, direction, anchor, other, props
              in record.get("halves", [])]
    return vertices, halves


class ShardWAL:
    """One shard worker's write-ahead log.

    Every write event is appended *before* the worker acknowledges it
    on the pipe, so an acknowledged update is always recoverable:

    * ``apply`` — a single-shard commit's write slice (the common case);
    * ``prepare`` — a 2PC stage: the slice is persisted but not yet
      visible, so an in-doubt transaction survives a crash between
      prepare and commit and can be rolled forward or back by the
      coordinator's decision;
    * ``commit`` / ``abort`` — resolution marks for a prior prepare.
    """

    def __init__(self, path: str | os.PathLike,
                 sync_every_append: bool = False) -> None:
        self._log = AppendLog(path, sync_every_append=sync_every_append)

    @property
    def path(self) -> str:
        return self._log.path

    @property
    def records_logged(self) -> int:
        return self._log.appended

    def log_apply(self, key: tuple, vertices: list,
                  halves: list) -> None:
        self._log.append({"act": "apply", "op": key,
                          **_encode_writes(vertices, halves)})

    def log_prepare(self, key: tuple, vertices: list,
                    halves: list) -> None:
        self._log.append({"act": "prepare", "op": key,
                          **_encode_writes(vertices, halves)})

    def log_mark(self, key: tuple, act: str) -> None:
        """Append a bare ``commit``/``abort`` resolution mark."""
        self._log.append({"act": act, "op": key})

    def tear(self, act: str, key: tuple, vertices: list,
             halves: list) -> None:
        """Chaos hook: write half the record (crash mid-append)."""
        self._log.append_torn({"act": act, "op": key,
                               **_encode_writes(vertices, halves)})

    def close(self) -> None:
        self._log.close()


def read_shard_log(path: str | os.PathLike) -> list[dict]:
    """Parse a shard WAL (oldest first; torn tail skipped + counted)."""
    return read_records(path, _SHARD_RECORD_KEYS)


def replay_shard_log(store: GraphStore, records: list[dict],
                     ) -> dict[tuple, tuple]:
    """Re-apply a shard WAL onto a freshly bulk-loaded shard store.

    Every write re-applies with its key, so the store's applied keys
    come back with its state and a record logged twice applies once.
    Returns the in-doubt 2PC stages (prepared, never resolved) awaiting
    the coordinator's decision.
    """
    staged: dict[tuple, tuple] = {}
    for record in records:
        act, key = record["act"], tuple(record["op"])
        if act == "apply":
            store.apply_shard_writes(key, *_decode_writes(record))
        elif act == "prepare":
            if store.validate_shard_writes(key, ()):
                staged[key] = _decode_writes(record)
        elif act == "commit":
            stage = staged.pop(key, None)
            if stage is not None:
                store.apply_shard_writes(key, *stage)
            elif store.validate_shard_writes(key, ()):
                raise StoreError(
                    f"shard WAL commit mark for {key} without a "
                    f"preceding prepare record")
        elif act == "abort":
            staged.pop(key, None)
        else:
            raise StoreError(f"unknown shard WAL act {act!r}")
    return staged
