"""Row storage for the relational engine: schemas, tables, indexes.

Tables are append-only lists of tuples (the update workload is
insert-only), with three index kinds:

* a **primary-key** dict (unique column → row),
* **hash indexes** (column → list of rows) for foreign keys,
* one **ordered index** per table (sorted ``(value, row)`` pairs) for
  range scans, e.g. ``message.creation_date``.

Each table keeps simple statistics (row count, per-column distinct counts
on indexed columns) which the cardinality estimator consumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator

from ..errors import DuplicateError, EngineError, NotFoundError
from ..store.csr import CSRGraph


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
        # Lazily packed CSR adjacency per (from, to) column pair; the
        # epoch is the row count at build time (tables are append-only,
        # so a changed count is the only possible invalidation).
        self._csr: dict[tuple[str, str], tuple[int, CSRGraph]] = {}

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

    # -- mutation -------------------------------------------------------------

    def insert(self, row: tuple) -> None:
        """Append a row, maintaining all indexes.

        The row is published to ``rows`` *last*: ``len(rows)`` is the
        epoch :meth:`csr` stamps its cache with, so every row an epoch
        counts must already be in the indexes a concurrent reader (a
        driver partition on another thread) builds from.
        """
        if len(row) != len(self.schema):
            raise EngineError(
                f"row arity {len(row)} != schema arity "
                f"{len(self.schema)} for {self.name}")
        if self.primary_key is not None:
            key = row[self.schema.position(self.primary_key)]
            if key in self._pk_index:
                raise DuplicateError(
                    f"{self.name}.{self.primary_key}={key} exists")
            self._pk_index[key] = row
        for column, index in self._hash_indexes.items():
            value = row[self.schema.position(column)]
            index.setdefault(value, []).append(row)
        if self._ordered_column is not None:
            value = row[self.schema.position(self._ordered_column)]
            position = bisect_right(self._ordered_keys, value)
            self._ordered_keys.insert(position, value)
            self._ordered_index.insert(position, (value, row))
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

    def csr(self, from_column: str, to_column: str) -> CSRGraph:
        """Packed adjacency over ``(from_column, to_column)`` edges.

        Built lazily and cached per row-count epoch; the hash-index
        postings (when present) provide the same per-source neighbor
        order as a row scan, so both builds produce identical graphs.

        The epoch is read *before* the build and :meth:`insert`
        publishes ``rows`` last, so a graph cached under epoch *n* holds
        at least the first *n* rows even when another thread inserts
        mid-build: a cache hit can never be missing a published row.
        """
        key = (from_column, to_column)
        entry = self._csr.get(key)
        epoch = len(self.rows)
        if entry is not None and entry[0] == epoch:
            return entry[1]
        from_position = self.schema.position(from_column)
        to_position = self.schema.position(to_column)
        index = self._hash_indexes.get(from_column)
        if index is not None:
            # list(): iterating the live dict while another thread
            # inserts a new key raises "dictionary changed size".
            postings = list(index.items())
            graph = CSRGraph.from_adjacency(
                {source: [row[to_position] for row in rows]
                 for source, rows in postings})
        else:
            graph = CSRGraph.from_edges(
                (row[from_position], row[to_position])
                for row in self.rows)
        self._csr[key] = (epoch, graph)
        return graph

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
