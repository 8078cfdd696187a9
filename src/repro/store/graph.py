"""The MVCC property-graph store and its transactions.

Concurrency design (documented here because it is the point of the SUT):

* Every committed write is tagged with a commit timestamp drawn from a
  global counter.  A transaction's *snapshot* is the counter value at its
  start (snapshot isolation) or at each read (read committed).
* Readers never take locks: vertex version chains, adjacency lists and
  index postings are append-only, and the commit counter is advanced only
  **after** all of a commit's writes are applied, so a snapshot can never
  observe a partially applied commit.
* Commits serialize on a single mutex; before applying, a commit validates
  its write set first-committer-wins: any record touched by a commit newer
  than the transaction's snapshot raises
  :class:`~repro.errors.WriteConflictError` (or
  :class:`~repro.errors.DuplicateError` for conflicting inserts).
* Exactly-once lives here too: a transaction carrying an update's
  natural key (:attr:`Transaction.key`) commits at most once.  The key is
  checked under the commit mutex before validation and recorded with the
  writes, so a replay — a retry whose answer was lost, or a duplicate
  racing on another connection — commits nothing and counts one replay.

Because SNB-Interactive updates are pure inserts, snapshot isolation is
serializable for this workload — precisely the observation the paper makes
in "Rules and Metrics".
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Iterable, Iterator

from .. import telemetry
from ..errors import (
    DuplicateError,
    NotFoundError,
    TransactionStateError,
    WriteConflictError,
)
from .indexes import HashIndex, OrderedIndex


class IsolationLevel(Enum):
    """Supported isolation levels."""

    SNAPSHOT = "snapshot"
    READ_COMMITTED = "read-committed"


class Direction(Enum):
    """Edge traversal direction."""

    OUT = "out"
    IN = "in"


class _VertexRecord:
    """Version chain of one vertex: ``(commit ts, props-or-None)`` pairs."""

    __slots__ = ("versions",)

    def __init__(self) -> None:
        self.versions: list[tuple[int, dict[str, Any] | None]] = []

    def visible(self, snapshot: int) -> dict[str, Any] | None:
        """Latest version at or before ``snapshot`` (None if tombstoned)."""
        versions = self.versions
        if versions and versions[-1][0] <= snapshot:
            return versions[-1][1]
        for ts, props in reversed(versions):
            if ts <= snapshot:
                return props
        return None

    @property
    def last_ts(self) -> int:
        return self.versions[-1][0] if self.versions else 0


class _EdgeRecord:
    """One directed adjacency entry."""

    __slots__ = ("other", "props", "ts")

    def __init__(self, other: int, props: dict[str, Any] | None,
                 ts: int) -> None:
        self.other = other
        self.props = props
        self.ts = ts


class GraphStore:
    """In-memory transactional property graph."""

    def __init__(self) -> None:
        self._vertices: dict[str, dict[int, _VertexRecord]] = {}
        self._out: dict[str, dict[int, list[_EdgeRecord]]] = {}
        self._in: dict[str, dict[int, list[_EdgeRecord]]] = {}
        self._hash_indexes: dict[tuple[str, str], HashIndex] = {}
        self._ordered_indexes: dict[tuple[str, str], OrderedIndex] = {}
        self._commit_lock = threading.Lock()
        self._last_committed = 0
        self._commits = 0
        self._aborts = 0
        #: Natural keys of the committed keyed transactions.
        self._applied: set[tuple] = set()
        self._replays = 0
        #: Optional :class:`repro.faults.ConflictInjector`.  When
        #: attached, a seeded fraction of commits raise a genuine
        #: :class:`~repro.errors.WriteConflictError` before validation,
        #: exercising the MVCC abort path end-to-end (chaos testing).
        self.fault_injector = None

    # -- schema ----------------------------------------------------------

    def create_hash_index(self, vertex_label: str, prop: str) -> None:
        """Register an equality index (must exist before inserts use it)."""
        self._hash_indexes.setdefault((vertex_label, prop), HashIndex())

    def create_ordered_index(self, vertex_label: str, prop: str) -> None:
        """Register a range-scannable index."""
        self._ordered_indexes.setdefault((vertex_label, prop),
                                         OrderedIndex())

    # -- transactions ------------------------------------------------------

    def transaction(self, isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
                    ) -> "Transaction":
        """Begin a transaction (usable as a context manager)."""
        return Transaction(self, isolation)

    @property
    def last_committed(self) -> int:
        """Commit timestamp of the newest fully applied commit."""
        return self._last_committed

    @property
    def commit_count(self) -> int:
        return self._commits

    @property
    def abort_count(self) -> int:
        return self._aborts

    @property
    def applied_count(self) -> int:
        """Keyed commits applied (replays excluded)."""
        return len(self._applied)

    @property
    def replay_count(self) -> int:
        """Keyed commits that found their key applied and did nothing."""
        return self._replays

    # -- internals used by Transaction ------------------------------------

    def _vertex_table(self, label: str) -> dict[int, _VertexRecord]:
        return self._vertices.setdefault(label, {})

    def _adjacency(self, label: str, direction: Direction,
                   ) -> dict[int, list[_EdgeRecord]]:
        table = self._out if direction is Direction.OUT else self._in
        return table.setdefault(label, {})

    def _apply_commit(self, txn: "Transaction") -> int:
        """Validate and apply a transaction's write set; return commit ts."""
        if telemetry.active:
            with telemetry.span(
                    "store.commit",
                    inserts=len(txn.new_vertices),
                    updates=len(txn.updated_vertices),
                    edges=len(txn.new_edges)):
                return self._apply_commit_locked(txn)
        return self._apply_commit_locked(txn)

    def _apply_commit_locked(self, txn: "Transaction") -> int:
        with self._commit_lock:
            if self.fault_injector is not None:
                self.fault_injector.before_commit(txn)
            key = txn.key
            if key is not None and key in self._applied:
                self._replays += 1
                return 0
            snapshot = txn.snapshot
            for (label, vid), props in txn.new_vertices.items():
                record = self._vertex_table(label).get(vid)
                if record is not None and record.visible(
                        self._last_committed) is not None:
                    if record.last_ts > snapshot:
                        raise DuplicateError(
                            f"concurrent insert of {label}:{vid}")
                    raise DuplicateError(f"{label}:{vid} already exists")
            for (label, vid) in txn.updated_vertices:
                record = self._vertex_table(label).get(vid)
                if record is None or not record.versions:
                    raise NotFoundError(f"{label}:{vid} does not exist")
                if record.last_ts > snapshot:
                    raise WriteConflictError(
                        f"write-write conflict on {label}:{vid}")

            ts = self._last_committed + 1
            for (label, vid), props in txn.new_vertices.items():
                table = self._vertex_table(label)
                record = table.get(vid)
                if record is None:
                    record = table[vid] = _VertexRecord()
                record.versions.append((ts, props))
                self._index_vertex(label, vid, props, ts)
            for (label, vid), changes in txn.updated_vertices.items():
                record = self._vertex_table(label)[vid]
                base = record.visible(self._last_committed) or {}
                merged = {**base, **changes}
                record.versions.append((ts, merged))
                self._index_vertex(label, vid, changes, ts)
            for label, src, dst, props in txn.new_edges:
                self._adjacency(label, Direction.OUT).setdefault(
                    src, []).append(_EdgeRecord(dst, props, ts))
                self._adjacency(label, Direction.IN).setdefault(
                    dst, []).append(_EdgeRecord(src, props, ts))
            if key is not None:
                self._applied.add(key)
            # Publish: the new snapshot becomes visible atomically here.
            self._last_committed = ts
            self._commits += 1
            return ts

    def _index_vertex(self, label: str, vid: int, props: dict[str, Any],
                      ts: int) -> None:
        for (index_label, prop), index in self._hash_indexes.items():
            if index_label == label and prop in props:
                index.insert(props[prop], vid, ts)
        for (index_label, prop), index in self._ordered_indexes.items():
            if index_label == label and prop in props:
                index.insert(props[prop], vid, ts)

    # -- bulk-load fast path (no transaction, store must be quiescent) ----

    def bulk_insert_vertices(self, label: str,
                             rows: list[tuple[int, dict[str, Any]]]) -> None:
        """Load vertices at timestamp 1 without transaction overhead."""
        table = self._vertex_table(label)
        for vid, props in rows:
            if vid in table:
                raise DuplicateError(f"{label}:{vid} already exists")
            record = _VertexRecord()
            record.versions.append((1, props))
            table[vid] = record
        for (index_label, prop), index in self._hash_indexes.items():
            if index_label == label:
                for vid, props in rows:
                    if prop in props:
                        index.insert(props[prop], vid, 1)
        for (index_label, prop), index in self._ordered_indexes.items():
            if index_label == label:
                sortable = sorted((props[prop], vid, 1)
                                  for vid, props in rows if prop in props)
                if len(index) == 0:
                    index.extend_sorted(sortable)
                else:
                    for key, vid, ts in sortable:
                        index.insert(key, vid, ts)
        if self._last_committed < 1:
            self._last_committed = 1

    def bulk_insert_edges(self, label: str,
                          rows: list[tuple[int, int, dict | None]]) -> None:
        """Load directed edges at timestamp 1."""
        out_table = self._adjacency(label, Direction.OUT)
        in_table = self._adjacency(label, Direction.IN)
        for src, dst, props in rows:
            out_table.setdefault(src, []).append(_EdgeRecord(dst, props, 1))
            in_table.setdefault(dst, []).append(_EdgeRecord(src, props, 1))
        if self._last_committed < 1:
            self._last_committed = 1

    def bulk_insert_edge_halves(self, label: str,
                                halves: list[tuple[str, int, int,
                                                   dict | None]]) -> None:
        """Load directed adjacency *halves* at timestamp 1.

        A shard worker stores only the halves anchored at vertices it
        owns: each row is ``(direction value, anchor, other, props)``
        and lands in exactly one adjacency table — unlike
        :meth:`bulk_insert_edges`, which writes both the OUT and the IN
        record of every edge.
        """
        for dir_value, anchor, other, props in halves:
            self._adjacency(label, Direction(dir_value)).setdefault(
                anchor, []).append(_EdgeRecord(other, props, 1))
        if self._last_committed < 1:
            self._last_committed = 1

    # -- shard-worker apply path ------------------------------------------

    def apply_shard_writes(self, key: tuple,
                           new_vertices: list[tuple[str, int, dict]],
                           edge_halves: list[tuple[str, str, int, int,
                                                   dict | None]]) -> int:
        """Apply one routed write-set atomically; returns the commit ts.

        This is the worker half of the sharded commit: the router has
        already run the update's insert logic and partitioned the
        resulting write-set, so this shard receives plain vertex rows
        ``(label, vid, props)`` plus adjacency halves
        ``(label, direction value, anchor, other, props)`` — only the
        halves anchored at vertices this shard owns.  ``key`` is the
        update's natural key and follows :meth:`_apply_commit_locked`:
        an applied key is a replay that commits nothing (returns 0),
        and a vertex already visible raises
        :class:`~repro.errors.DuplicateError` with nothing applied or
        recorded.
        """
        with self._commit_lock:
            if not self.validate_shard_writes(key, new_vertices):
                self._replays += 1
                return 0
            ts = self._last_committed + 1
            for label, vid, props in new_vertices:
                table = self._vertex_table(label)
                record = table.get(vid)
                if record is None:
                    record = table[vid] = _VertexRecord()
                record.versions.append((ts, props))
                self._index_vertex(label, vid, props, ts)
            for label, dir_value, anchor, other, props in edge_halves:
                self._adjacency(label, Direction(dir_value)).setdefault(
                    anchor, []).append(_EdgeRecord(other, props, ts))
            self._applied.add(key)
            self._last_committed = ts
            self._commits += 1
            return ts

    def validate_shard_writes(self, key: tuple,
                              new_vertices: list[tuple[str, int, dict]],
                              ) -> bool:
        """First-committer-wins check for a routed write-set (prepare).

        False when ``key`` is already applied: a replay has nothing to
        stage.
        """
        if key in self._applied:
            return False
        for label, vid, __ in new_vertices:
            record = self._vertex_table(label).get(vid)
            if record is not None and record.visible(
                    self._last_committed) is not None:
                raise DuplicateError(f"{label}:{vid} already exists")
        return True


class Transaction:
    """A unit of work against the store; use as a context manager.

    Reads see the transaction's snapshot plus its own uncommitted writes.
    """

    #: The update's natural key
    #: (:attr:`~repro.datagen.update_stream.UpdateOperation.natural_key`);
    #: a keyed transaction whose key is already applied commits nothing.
    key: tuple | None = None

    def __init__(self, store: GraphStore, isolation: IsolationLevel) -> None:
        self.store = store
        self.isolation = isolation
        self._start_snapshot = store.last_committed
        self._done = False
        self.new_vertices: dict[tuple[str, int], dict[str, Any]] = {}
        self.updated_vertices: dict[tuple[str, int], dict[str, Any]] = {}
        self.new_edges: list[tuple[str, int, int, dict | None]] = []

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._done:
            self.commit()
        elif not self._done:
            self.abort()

    @property
    def snapshot(self) -> int:
        """The snapshot reads are served from."""
        if self.isolation is IsolationLevel.READ_COMMITTED:
            return self.store.last_committed
        return self._start_snapshot

    def commit(self) -> int:
        """Apply the write set; returns the commit timestamp (0 if empty
        or a replay)."""
        self._check_open()
        self._done = True
        if not (self.new_vertices or self.updated_vertices
                or self.new_edges):
            return 0
        try:
            return self.store._apply_commit(self)
        except Exception:
            self.store._aborts += 1
            raise

    def abort(self) -> None:
        """Discard the write set."""
        self._check_open()
        self._done = True
        if self.new_vertices or self.updated_vertices or self.new_edges:
            self.store._aborts += 1

    def _check_open(self) -> None:
        if self._done:
            raise TransactionStateError("transaction already finished")

    # -- writes -------------------------------------------------------------

    def insert_vertex(self, label: str, vid: int,
                      props: dict[str, Any]) -> None:
        self._check_open()
        key = (label, vid)
        if key in self.new_vertices:
            raise DuplicateError(f"{label}:{vid} inserted twice in txn")
        self.new_vertices[key] = props

    def update_vertex(self, label: str, vid: int, **changes: Any) -> None:
        self._check_open()
        key = (label, vid)
        if key in self.new_vertices:
            self.new_vertices[key] = {**self.new_vertices[key], **changes}
            return
        merged = {**self.updated_vertices.get(key, {}), **changes}
        self.updated_vertices[key] = merged

    def insert_edge(self, label: str, src: int, dst: int,
                    props: dict[str, Any] | None = None) -> None:
        self._check_open()
        self.new_edges.append((label, src, dst, props))

    def insert_undirected_edge(self, label: str, a: int, b: int,
                               props: dict[str, Any] | None = None) -> None:
        """Store an undirected edge as two directed ones."""
        self.insert_edge(label, a, b, props)
        self.insert_edge(label, b, a, props)

    # -- reads --------------------------------------------------------------

    def vertex(self, label: str, vid: int) -> dict[str, Any] | None:
        """Properties of a vertex, or None if not visible."""
        self._check_open()
        if not self.new_vertices and not self.updated_vertices:
            # Read-only fast path: no tuple keys, no overlay merging.
            table = self.store._vertices.get(label)
            record = table.get(vid) if table is not None else None
            return record.visible(self.snapshot) \
                if record is not None else None
        own = self.new_vertices.get((label, vid))
        committed = None
        record = self.store._vertices.get(label, {}).get(vid)
        if record is not None:
            committed = record.visible(self.snapshot)
        if own is not None:
            return {**(committed or {}), **own}
        if committed is not None:
            changes = self.updated_vertices.get((label, vid))
            if changes:
                return {**committed, **changes}
        return committed

    def require_vertex(self, label: str, vid: int) -> dict[str, Any]:
        """Like :meth:`vertex` but raises if missing."""
        props = self.vertex(label, vid)
        if props is None:
            raise NotFoundError(f"{label}:{vid} not visible")
        return props

    def vertex_exists(self, label: str, vid: int) -> bool:
        return self.vertex(label, vid) is not None

    def vertex_many(self, label: str, vids: Iterable[int],
                    ) -> dict[int, dict[str, Any]]:
        """Batched :meth:`vertex`: vid → props for the *visible* subset.

        One round trip on the sharded store (each shard resolves its
        owned slice of the batch).  Read-only transactions — every SNB
        read, and every shard worker serving one — take a tight loop:
        the open check, the table and the snapshot are resolved once.
        """
        self._check_open()
        if self.new_vertices or self.updated_vertices:
            lookups = ((vid, self.vertex(label, vid)) for vid in vids)
            return {vid: props for vid, props in lookups
                    if props is not None}
        result: dict[int, dict[str, Any]] = {}
        table = self.store._vertices.get(label)
        if table is None:
            return result
        snapshot = self.snapshot
        find = table.get
        for vid in vids:
            record = find(vid)
            if record is None:
                continue
            props = record.visible(snapshot)
            if props is not None:
                result[vid] = props
        return result

    def neighbors(self, edge_label: str, vid: int,
                  direction: Direction = Direction.OUT,
                  ) -> Iterator[tuple[int, dict[str, Any] | None]]:
        """Visible ``(other id, edge props)`` pairs, then own edge writes."""
        self._check_open()
        snapshot = self.snapshot
        table = (self.store._out if direction is Direction.OUT
                 else self.store._in).get(edge_label)
        if table is not None:
            # Take a length snapshot so concurrent appends past it (from
            # commits newer than our snapshot anyway) are not scanned.
            records = table.get(vid)
            if records is not None:
                for position in range(len(records)):
                    record = records[position]
                    if record.ts <= snapshot:
                        yield record.other, record.props
        for label, src, dst, props in self.new_edges:
            if label != edge_label:
                continue
            if direction is Direction.OUT and src == vid:
                yield dst, props
            elif direction is Direction.IN and dst == vid:
                yield src, props

    def neighbors_many(self, edge_label: str, vids: Iterable[int],
                       direction: Direction = Direction.OUT,
                       ) -> dict[int, list[tuple[int, dict | None]]]:
        """Batched :meth:`neighbors`: vid → materialized pair list.

        Every SNB read expands whole frontiers through this, so the
        sharded store can scatter one request per shard and aggregate
        partial adjacency maps instead of paying one round trip per
        vertex.  Each list keeps the vertex's adjacency order.  Without
        own edge writes it is a tight loop: open check, table and
        snapshot resolved once, per-record visibility inline (records
        appended meanwhile carry a newer timestamp and are filtered
        like any other invisible record).
        """
        self._check_open()
        if self.new_edges:
            return {vid: list(self.neighbors(edge_label, vid, direction))
                    for vid in vids}
        store = self.store
        table = (store._out if direction is Direction.OUT
                 else store._in).get(edge_label)
        if table is None:
            return {vid: [] for vid in vids}
        snapshot = self.snapshot
        find = table.get
        return {vid: [(record.other, record.props)
                      for record in find(vid, ())
                      if record.ts <= snapshot]
                for vid in vids}

    def degree(self, edge_label: str, vid: int,
               direction: Direction = Direction.OUT) -> int:
        """Number of visible neighbors."""
        return sum(1 for __ in self.neighbors(edge_label, vid, direction))

    def lookup(self, vertex_label: str, prop: str, value: Any) -> list[int]:
        """Equality index lookup."""
        if telemetry.active:
            with telemetry.span("store.index.lookup",
                                label=vertex_label, prop=prop) as span:
                found = self._lookup(vertex_label, prop, value)
                span.set("matches", len(found))
                return found
        return self._lookup(vertex_label, prop, value)

    def _lookup(self, vertex_label: str, prop: str,
                value: Any) -> list[int]:
        self._check_open()
        index = self.store._hash_indexes.get((vertex_label, prop))
        if index is None:
            raise NotFoundError(
                f"no hash index on {vertex_label}.{prop}")
        found = index.lookup(value, self.snapshot)
        for (label, vid), props in self.new_vertices.items():
            if label == vertex_label and props.get(prop) == value:
                found.append(vid)
        return found

    def scan_range(self, vertex_label: str, prop: str, low: Any = None,
                   high: Any = None, *, reverse: bool = False,
                   ) -> Iterator[tuple[Any, int]]:
        """Ordered index range scan: yields ``(key, vertex id)``."""
        self._check_open()
        index = self.store._ordered_indexes.get((vertex_label, prop))
        if index is None:
            raise NotFoundError(
                f"no ordered index on {vertex_label}.{prop}")
        if telemetry.active:
            # Range scans are consumed lazily, so a span would mostly
            # measure the consumer; count them instead.
            telemetry.counter("store.index.range_scans").inc()
        yield from index.range(low, high, snapshot=self.snapshot,
                               reverse=reverse)

    def vertices(self, label: str,
                 ) -> Iterator[tuple[int, dict[str, Any]]]:
        """All visible ``(vertex id, props)`` pairs of one label.

        A full-label scan at the transaction's snapshot (plus its own
        uncommitted inserts); the validation harness uses it to build
        canonical whole-graph state snapshots.
        """
        self._check_open()
        snapshot = self.snapshot
        # list(): a commit on another thread may add keys mid-scan.
        table = self.store._vertices.get(label, {})
        for vid, record in list(table.items()):
            props = record.visible(snapshot)
            if props is not None:
                yield vid, props
        for (lbl, vid), props in self.new_vertices.items():
            if lbl == label:
                yield vid, props

    def edges(self, edge_label: str,
              ) -> Iterator[tuple[int, int, dict[str, Any] | None]]:
        """All visible ``(src, dst, props)`` triples of one edge label.

        Scans the OUT adjacency tables at the snapshot; undirected edges
        (stored as two directed records) yield both directions.
        """
        self._check_open()
        snapshot = self.snapshot
        table = self.store._out.get(edge_label, {})
        for src, records in list(table.items()):
            for position in range(len(records)):
                record = records[position]
                if record.ts <= snapshot:
                    yield src, record.other, record.props
        for label, src, dst, props in self.new_edges:
            if label == edge_label:
                yield src, dst, props

    def count_vertices(self, label: str) -> int:
        """Number of visible vertices with the label (scan)."""
        self._check_open()
        snapshot = self.snapshot
        table = self.store._vertices.get(label, {})
        total = sum(1 for record in list(table.values())
                    if record.visible(snapshot) is not None)
        total += sum(1 for (lbl, __) in self.new_vertices if lbl == label)
        return total
