"""Row storage for the relational engine: schemas, tables, indexes.

Tables are append-only lists of tuples (the update workload is
insert-only), with four index kinds:

* a **primary-key** dict (unique column → row),
* **hash indexes** (column → list of rows) for foreign keys,
* one **ordered index** per table (sorted ``(value, row)`` pairs) for
  range scans, e.g. ``message.creation_date``,
* **adjacencies** (:class:`Adjacency`, source → neighbour list) over an
  edge table's ``(from, to)`` column pair, for graph traversals.

Each table keeps simple statistics (row count, per-column distinct counts
on indexed columns) which the cardinality estimator consumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator

from ..errors import DuplicateError, EngineError, NotFoundError


class Schema:
    """Ordered column names of a table or operator output."""

    __slots__ = ("columns", "_positions")

    def __init__(self, columns: Iterable[str]) -> None:
        self.columns = tuple(columns)
        self._positions = {name: i for i, name in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise EngineError(f"duplicate column in schema {self.columns}")

    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError as exc:
            raise EngineError(
                f"no column {column!r} in {self.columns}") from exc

    def __contains__(self, column: str) -> bool:
        return column in self._positions

    def __len__(self) -> int:
        return len(self.columns)

    def concat(self, other: "Schema", prefix: str = "") -> "Schema":
        """Schema of a join output; ``prefix`` disambiguates collisions.

        Repeated self-joins keep prefixing (``inner_inner_x``) until the
        name is unique, so any pipeline depth stays well-formed.
        """
        merged = list(self.columns)
        taken = set(merged)
        effective = prefix or "rhs_"
        for column in other.columns:
            name = column
            while name in taken:
                name = f"{effective}{name}"
            taken.add(name)
            merged.append(name)
        return Schema(merged)


class Adjacency:
    """Per-source neighbour lists of one edge relation, in row order.

    :meth:`Table.create_adjacency` builds it once from the table's rows
    and :meth:`Table.insert` appends every later row to it, so one
    object stays current for the table's lifetime.  ``frontier_bfs``
    runs level-batched BFS (one list extend per frontier node, one set
    difference per level), ``gather`` concatenates neighbour lists.
    """

    __slots__ = ("_from", "_to", "_targets", "_edges")

    def __init__(self, from_position: int, to_position: int,
                 rows: Iterable[tuple] = ()) -> None:
        self._from = from_position
        self._to = to_position
        self._targets: dict[Any, list] = {}
        # A counter, not a sum over ``_targets``: a reader's ``len()``
        # must not iterate the dict an inserting thread grows.
        self._edges = 0
        for row in rows:
            self.add(row)

    def add(self, row: tuple) -> None:
        source = row[self._from]
        targets = self._targets.get(source)
        if targets is None:
            targets = self._targets[source] = []
        targets.append(row[self._to])
        self._edges += 1

    def __len__(self) -> int:
        return self._edges

    def neighbors(self, node: Any) -> list:
        """The live neighbour list of ``node`` (empty if none); like
        :meth:`Table.probe`, callers must not mutate it."""
        return self._targets.get(node, [])

    def gather(self, nodes: Iterable[Any]) -> list:
        """All neighbors of ``nodes`` concatenated (with duplicates)."""
        out: list = []
        extend = out.extend
        get = self._targets.get
        for node in nodes:
            targets = get(node)
            if targets is not None:
                extend(targets)
        return out

    def frontier_bfs(self, source: Any,
                     max_hops: int) -> Iterator[tuple[list, int]]:
        """Yield ``(frontier_nodes, depth)`` per BFS level, excluding
        the source; stops when a level is empty or depth exceeds
        ``max_hops``."""
        seen = {source}
        frontier = [source]
        for depth in range(1, max_hops + 1):
            fresh = set(self.gather(frontier))
            fresh.difference_update(seen)
            if not fresh:
                return
            seen.update(fresh)
            frontier = list(fresh)
            yield frontier, depth


class Table:
    """One relational table with its indexes and statistics."""

    def __init__(self, name: str, schema: Schema,
                 primary_key: str | None = None) -> None:
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = []
        self.primary_key = primary_key
        self._pk_index: dict[Any, tuple] = {}
        self._hash_indexes: dict[str, dict[Any, list[tuple]]] = {}
        self._ordered_column: str | None = None
        self._ordered_index: list[tuple[Any, tuple]] = []
        # Parallel key array so range scans bisect without copying.
        self._ordered_keys: list[Any] = []
        self._adjacencies: dict[tuple[str, str], Adjacency] = {}

    # -- schema -------------------------------------------------------------

    def create_hash_index(self, column: str) -> None:
        self.schema.position(column)  # validates
        if column not in self._hash_indexes:
            index: dict[Any, list[tuple]] = {}
            position = self.schema.position(column)
            for row in self.rows:
                index.setdefault(row[position], []).append(row)
            self._hash_indexes[column] = index

    def create_ordered_index(self, column: str) -> None:
        if self._ordered_column is not None \
                and self._ordered_column != column:
            raise EngineError(
                f"{self.name} already has an ordered index on "
                f"{self._ordered_column}")
        position = self.schema.position(column)
        self._ordered_column = column
        self._ordered_index = sorted(
            (row[position], row) for row in self.rows)
        self._ordered_keys = [entry[0] for entry in self._ordered_index]

    def create_adjacency(self, from_column: str, to_column: str) -> None:
        """Declare an :class:`Adjacency` over ``(from_column,
        to_column)``, built once from the current rows.

        Like the other indexes it is declared before the table is
        shared: a build on a reader's first traversal could miss the
        row of an insert running on another thread at that moment.
        """
        key = (from_column, to_column)
        if key not in self._adjacencies:
            self._adjacencies[key] = Adjacency(
                self.schema.position(from_column),
                self.schema.position(to_column), self.rows)

    # -- mutation -------------------------------------------------------------

    def insert(self, row: tuple) -> None:
        """Append a row, maintaining all indexes and adjacencies.

        The row is published to ``rows`` *last*, so a concurrent reader
        (a driver partition on another thread) that sees it counted in
        ``rows`` finds it in every index and adjacency too.
        """
        if len(row) != len(self.schema):
            raise EngineError(
                f"row arity {len(row)} != schema arity "
                f"{len(self.schema)} for {self.name}")
        positions = self.schema._positions
        if self.primary_key is not None:
            key = row[positions[self.primary_key]]
            if key in self._pk_index:
                raise DuplicateError(
                    f"{self.name}.{self.primary_key}={key} exists")
            self._pk_index[key] = row
        for column, index in self._hash_indexes.items():
            index.setdefault(row[positions[column]], []).append(row)
        if self._ordered_column is not None:
            value = row[positions[self._ordered_column]]
            position = bisect_right(self._ordered_keys, value)
            self._ordered_keys.insert(position, value)
            self._ordered_index.insert(position, (value, row))
        if self._adjacencies:
            for adjacency in self._adjacencies.values():
                adjacency.add(row)
        self.rows.append(row)

    def bulk_load(self, rows: Iterable[tuple]) -> None:
        """Insert many rows (index maintenance amortized)."""
        for row in rows:
            self.insert(row)

    # -- access ---------------------------------------------------------------

    def by_pk(self, key: Any) -> tuple:
        try:
            return self._pk_index[key]
        except KeyError as exc:
            raise NotFoundError(
                f"{self.name}.{self.primary_key}={key} missing") from exc

    def get_pk(self, key: Any) -> tuple | None:
        return self._pk_index.get(key)

    def probe(self, column: str, value: Any) -> list[tuple]:
        """Hash-index lookup (empty list if no match)."""
        index = self._hash_indexes.get(column)
        if index is None:
            raise EngineError(f"no hash index on {self.name}.{column}")
        return index.get(value, [])

    def has_hash_index(self, column: str) -> bool:
        return column in self._hash_indexes

    def range_scan(self, low: Any = None, high: Any = None,
                   reverse: bool = False) -> Iterator[tuple]:
        """Rows with ordered-index value in ``[low, high]``."""
        if self._ordered_column is None:
            raise EngineError(f"no ordered index on {self.name}")
        keys = self._ordered_keys
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_right(keys, high)
        indices = range(start, stop)
        if reverse:
            indices = reversed(indices)
        for i in indices:
            yield self._ordered_index[i][1]

    def adjacency(self, from_column: str, to_column: str) -> Adjacency:
        """The :class:`Adjacency` declared over ``(from_column,
        to_column)`` — the same object across inserts."""
        adjacency = self._adjacencies.get((from_column, to_column))
        if adjacency is None:
            raise EngineError(
                f"no adjacency on {self.name}"
                f"({from_column} → {to_column})")
        return adjacency

    # -- statistics -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def distinct_count(self, column: str) -> int:
        """Distinct values on an indexed column (cheap via the index)."""
        index = self._hash_indexes.get(column)
        if index is not None:
            return len(index)
        if column == self.primary_key:
            return len(self._pk_index)
        position = self.schema.position(column)
        return len({row[position] for row in self.rows})

    def average_fanout(self, column: str) -> float:
        """Mean rows per distinct value of an indexed column."""
        distinct = self.distinct_count(column)
        if distinct == 0:
            return 0.0
        return self.row_count / distinct
