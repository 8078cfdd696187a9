"""Physical operators: operators exchange chunks.

Every operator produces a stream of :class:`~.chunks.Chunk` batches —
parallel column arrays — under a :class:`~.rows.Schema`, and does its
work as bulk list comprehensions / ``zip`` transposes / set operations;
iterating an operator is the row view over that stream.
``TransitiveExpand`` expands whole BFS frontiers at once against the
edge table's maintained adjacency (:meth:`~.rows.Table.adjacency`).

Operators count the tuples they produce (``tuples_out``, ``len(chunk)``
per emitted chunk) — these are the *de facto* intermediate result
cardinalities the parameter-curation cost function ``C_out`` is defined
over (paper §4.1: "as opposed to estimates of C_out ... we use the de
facto amounts of intermediate result cardinalities"), and what the
Figure 4 bench reports per plan node.  A consumer that abandons
iteration early (Limit, Q13's shortest path) leaves its producer's
count at the chunks actually pulled; the full-materialization counts
the benches and tests compare are unaffected.
"""

from __future__ import annotations

import operator as _op
from collections import Counter
from itertools import repeat as _repeat
from typing import Any, Callable, Iterable, Iterator

from .. import telemetry
from ..errors import EngineError
from .chunks import CHUNK_SIZE, Chunk, chunk_rows
from .predicates import Predicate
from .rows import Schema, Table


class Operator:
    """Base class: a chunk stream (iterable as tuples) with a schema."""

    def __init__(self, schema: Schema, label: str) -> None:
        self.schema = schema
        self.label = label
        self.tuples_out = 0
        self.children: list["Operator"] = []
        #: Optimizer-estimated output rows (set during planning; None
        #: for hand-built trees).  Rendered by EXPLAIN next to actuals.
        self.estimated_rows: float | None = None

    def _produce_chunks(self) -> Iterator[Chunk]:
        raise NotImplementedError

    def chunks(self) -> Iterator[Chunk]:
        """Chunk stream with counting and (optional) tracing."""
        if telemetry.active:
            return self._chunks_traced()
        return self._chunks_plain()

    def _chunks_plain(self) -> Iterator[Chunk]:
        for chunk in self._produce_chunks():
            self.tuples_out += len(chunk)
            yield chunk

    def _chunks_traced(self) -> Iterator[Chunk]:
        # The span covers this operator's whole iteration, including
        # time spent suspended while the consumer works; children pulled
        # inside _produce_chunks() nest under it.  The tuples_out
        # attribute is what feeds ``explain(show_actuals=True)`` and the
        # trace view, and is recorded even when a consumer (Limit, TopK)
        # abandons the iterator early.
        with telemetry.span("engine." + self.label) as span:
            try:
                for chunk in self._produce_chunks():
                    self.tuples_out += len(chunk)
                    yield chunk
            finally:
                span.set("tuples_out", self.tuples_out)

    def __iter__(self) -> Iterator[tuple]:
        # Row view of the chunk stream; counting happens in chunks().
        for chunk in self.chunks():
            yield from chunk.rows()

    def execute(self) -> list[tuple]:
        """Materialize the full result."""
        return list(self)

    def execute_columns(self) -> list[list]:
        """Materialize the full result as parallel column arrays."""
        columns: list[list] = [[] for _ in self.schema.columns]
        for chunk in self.chunks():
            for acc, column in zip(columns, chunk.columns):
                acc.extend(column)
        return columns

    def reset_counters(self) -> None:
        self.tuples_out = 0
        for child in self.children:
            child.reset_counters()


def _keep_indices(predicate, schema: Schema):
    """Normalize a residual into a ``columns → surviving indices`` pass.

    A declarative :class:`~.predicates.Predicate` scans only the columns
    it names; a plain row callable (hand-built trees) sees row tuples.
    """
    if isinstance(predicate, Predicate):
        predicate.resolve(schema)
        return predicate.keep_indices
    return lambda columns: [i for i, row in enumerate(zip(*columns))
                            if predicate(row)]


def _filtered(chunks: Iterable[Chunk], keep) -> Iterator[Chunk]:
    """The non-empty chunks of survivors of a ``_keep_indices`` pass."""
    for chunk in chunks:
        kept = keep(chunk.columns)
        if kept:
            yield chunk if len(kept) == len(chunk) \
                else chunk.gather(kept)


class Scan(Operator):
    """Full table scan with an optional residual predicate."""

    def __init__(self, table: Table,
                 predicate: Callable[[tuple], bool] | Predicate | None
                 = None) -> None:
        super().__init__(table.schema, f"scan({table.name})")
        self.table = table
        self._keep = None if predicate is None \
            else _keep_indices(predicate, table.schema)

    def _produce_chunks(self) -> Iterator[Chunk]:
        rows = self.table.rows
        width = len(self.schema)
        # List slices, not chunk_rows(): a hash join's build side scans
        # whole tables, and a slice is one copy, not one hop per row.
        chunks = (Chunk.from_rows(rows[start:start + CHUNK_SIZE], width)
                  for start in range(0, len(rows), CHUNK_SIZE))
        if self._keep is None:
            return chunks
        return _filtered(chunks, self._keep)


class IndexRangeScan(Operator):
    """Ordered-index range scan (message.creation_date et al.)."""

    def __init__(self, table: Table, low: Any = None, high: Any = None,
                 reverse: bool = False) -> None:
        super().__init__(table.schema,
                         f"ixrange({table.name})[{low}..{high}]")
        self.table = table
        self.low = low
        self.high = high
        self.reverse = reverse

    def _produce_chunks(self) -> Iterator[Chunk]:
        return chunk_rows(
            self.table.range_scan(self.low, self.high, self.reverse),
            len(self.schema))


class KeyLookup(Operator):
    """Primary-key or hash-index point lookups from a key iterable."""

    def __init__(self, table: Table, keys: Iterable[Any],
                 column: str | None = None) -> None:
        name = column or table.primary_key
        super().__init__(table.schema, f"lookup({table.name}.{name})")
        self.table = table
        self.keys = keys
        self.column = column

    def _produce_chunks(self) -> Iterator[Chunk]:
        width = len(self.schema)
        if self.column is None:
            yield from chunk_rows(
                filter(None, map(self.table.get_pk, self.keys)), width)
            return
        # One bulk extend per key's posting list, not one hop per row.
        rows: list[tuple] = []
        for matches in map(self.table.probe, _repeat(self.column),
                           self.keys):
            rows.extend(matches)
            if len(rows) >= CHUNK_SIZE:
                yield Chunk.from_rows(rows, width)
                rows = []
        if rows:
            yield Chunk.from_rows(rows, width)


class Filter(Operator):
    """Residual predicate over any input operator.

    Accepts either a declarative :class:`~.predicates.Predicate`,
    evaluated column-at-a-time, or a plain row callable (hand-built
    trees).
    """

    def __init__(self, child: Operator,
                 predicate: Callable[[tuple], bool] | Predicate,
                 label: str = "filter") -> None:
        super().__init__(child.schema, label)
        self.child = child
        self.children = [child]
        self._keep = _keep_indices(predicate, child.schema)

    def _produce_chunks(self) -> Iterator[Chunk]:
        return _filtered(self.child.chunks(), self._keep)


class Project(Operator):
    """Column projection / renaming."""

    def __init__(self, child: Operator, columns: list[str],
                 output_names: list[str] | None = None) -> None:
        schema = Schema(output_names or columns)
        super().__init__(schema, f"project({','.join(columns)})")
        self.child = child
        self.children = [child]
        self.positions = [child.schema.position(c) for c in columns]

    def _produce_chunks(self) -> Iterator[Chunk]:
        positions = self.positions
        for chunk in self.child.chunks():
            yield Chunk([chunk.columns[p] for p in positions])


class IndexNestedLoopJoin(Operator):
    """For each outer row, probe an index on the inner table.

    The optimal choice when the outer side is small (Fig. 4's ⨝1/⨝2:
    "This is best done by looking up these 120 tuples in the index on the
    primary key of Friends, i.e. by performing an index nested loop
    join").
    """

    def __init__(self, outer: Operator, inner: Table, outer_key: str,
                 inner_column: str | None = None,
                 label: str | None = None,
                 residual: "Predicate | None" = None) -> None:
        schema = outer.schema.concat(inner.schema, prefix="inner_")
        name = label or (f"inl({inner.name} on "
                         f"{inner_column or inner.primary_key})")
        super().__init__(schema, name)
        self.outer = outer
        self.children = [outer]
        self.inner = inner
        self.outer_position = outer.schema.position(outer_key)
        self.inner_column = inner_column
        # Late materialization: a pushed-down residual is evaluated on
        # candidate (outer index, inner row) pairs BEFORE the joined
        # columns are assembled, so rejected rows are never copied.
        self.residual = residual
        if residual is not None:
            residual.resolve(schema)

    def _produce_chunks(self) -> Iterator[Chunk]:
        position = self.outer_position
        if self.inner_column is None:
            # Probe the pk dict directly: map(dict.get, keys) stays in C
            # end to end, skipping 1 Python frame per key.
            get_pk = self.inner._pk_index.get
            for chunk in self.outer.chunks():
                keys = chunk.columns[position]
                # Batch the pk probes through map/filter so the common
                # all-hits case never enters a Python-level loop body.
                rows = list(map(get_pk, keys))
                inner_rows: list[tuple] = list(filter(None, rows))
                if len(inner_rows) == len(rows):
                    indices: list[int] = list(range(len(rows)))
                else:
                    indices = [i for i, row in enumerate(rows)
                               if row is not None]
                if indices:
                    yield self._gathered(chunk, indices, inner_rows)
        else:
            # Same trick for hash-index probes: resolve the index dict
            # once, then each chunk is one C-level map over the keys.
            index = self.inner._hash_indexes.get(self.inner_column)
            if index is None:
                raise EngineError(
                    f"no hash index on {self.inner.name}."
                    f"{self.inner_column}")
            lookup = index.get
            for chunk in self.outer.chunks():
                keys = chunk.columns[position]
                indices = []
                inner_rows = []
                for i, matches in enumerate(map(lookup, keys)):
                    if matches:
                        indices.extend(_repeat(i, len(matches)))
                        inner_rows.extend(matches)
                if indices:
                    yield self._gathered(chunk, indices, inner_rows)

    def _gathered(self, chunk: Chunk, indices: list[int],
                  inner_rows: list[tuple]) -> Chunk:
        if self.residual is not None:
            lazy = _LazyJoinColumns(chunk, indices, inner_rows,
                                    len(chunk.columns))
            kept = self.residual.keep_indices(lazy)
            if len(kept) != len(indices):
                indices = list(map(indices.__getitem__, kept))
                inner_rows = list(map(inner_rows.__getitem__, kept))
        outer_columns = [list(map(column.__getitem__, indices))
                         for column in chunk.columns]
        inner_columns = [list(column) for column in zip(*inner_rows)] \
            if inner_rows else [[] for __ in self.inner.schema.columns]
        return Chunk(outer_columns + inner_columns)


class _LazyJoinColumns:
    """Column view over un-materialized join candidates.

    Supplies ``predicate.keep_indices`` with exactly the columns it
    touches: an outer column is gathered through the candidate index
    list, an inner column is extracted straight from the matched rows —
    the full joined chunk is never built for rows the residual rejects.
    """

    __slots__ = ("_chunk", "_indices", "_inner_rows", "_outer_width")

    def __init__(self, chunk: Chunk, indices: list[int],
                 inner_rows: list[tuple], outer_width: int) -> None:
        self._chunk = chunk
        self._indices = indices
        self._inner_rows = inner_rows
        self._outer_width = outer_width

    def __getitem__(self, position: int):
        # Returns a lazy iterator, not a list: the predicate's single
        # map/compress pass consumes it without an intermediate copy.
        if position < self._outer_width:
            column = self._chunk.columns[position]
            return map(column.__getitem__, self._indices)
        picker = _op.itemgetter(position - self._outer_width)
        return map(picker, self._inner_rows)


class HashJoin(Operator):
    """Build a hash table on the build side, probe with the probe side.

    The optimal choice when both inputs are large or the inner side has
    no usable index (Fig. 4's ⨝3: "the inputs of the last ⨝3 are too
    large, and the corresponding index is not available in Post, so Hash
    join is the optimal algorithm here").
    """

    def __init__(self, build: Operator, probe: Operator, build_key: str,
                 probe_key: str, label: str | None = None,
                 prefix: str = "build_") -> None:
        # Output column order is probe ++ build so that a hash join is
        # plan-compatible with an INL join of the same step (outer side
        # first); ``prefix`` disambiguates colliding column names.
        schema = probe.schema.concat(build.schema, prefix=prefix)
        super().__init__(schema, label or "hashjoin")
        self.build = build
        self.probe = probe
        self.children = [build, probe]
        self.build_position = build.schema.position(build_key)
        self.probe_position = probe.schema.position(probe_key)

    def _produce_chunks(self) -> Iterator[Chunk]:
        # Build: accumulate row tuples and a key → row-index multimap.
        table: dict[Any, list[int]] = {}
        build_rows: list[tuple] = []
        build_position = self.build_position
        for chunk in self.build.chunks():
            base = len(build_rows)
            build_rows.extend(chunk.rows())
            keys = chunk.columns[build_position]
            for i, key in enumerate(keys):
                bucket = table.get(key)
                if bucket is None:
                    bucket = table[key] = []
                bucket.append(base + i)
        # Probe: per chunk, gather matching probe indices and build rows.
        probe_position = self.probe_position
        get = table.get
        for chunk in self.probe.chunks():
            keys = chunk.columns[probe_position]
            indices: list[int] = []
            matches: list[int] = []
            for i, key in enumerate(keys):
                bucket = get(key)
                if bucket:
                    indices.extend([i] * len(bucket))
                    matches.extend(bucket)
            if not indices:
                continue
            probe_columns = [[column[i] for i in indices]
                            for column in chunk.columns]
            build_columns = list(
                zip(*(build_rows[j] for j in matches)))
            yield Chunk(probe_columns + build_columns)


class Sort(Operator):
    """Full sort on a key function."""

    def __init__(self, child: Operator,
                 key: Callable[[tuple], Any],
                 descending: bool = False) -> None:
        super().__init__(child.schema, "sort")
        self.child = child
        self.children = [child]
        self.key = key
        self.descending = descending

    def _produce_chunks(self) -> Iterator[Chunk]:
        rows: list[tuple] = []
        for chunk in self.child.chunks():
            rows.extend(chunk.rows())
        rows.sort(key=self.key, reverse=self.descending)
        yield from chunk_rows(rows, len(self.schema))


class TopK(Operator):
    """Sort + limit fused (bounded memory)."""

    def __init__(self, child: Operator, key: Callable[[tuple], Any],
                 k: int, descending: bool = False) -> None:
        super().__init__(child.schema, f"top{k}")
        self.child = child
        self.children = [child]
        self.key = key
        self.k = k
        self.descending = descending

    def _select(self, rows: Iterable[tuple]) -> list[tuple]:
        import heapq

        if self.descending:
            return heapq.nsmallest(self.k, rows,
                                   key=lambda r: _neg(self.key(r)))
        return heapq.nsmallest(self.k, rows, key=self.key)

    def _produce_chunks(self) -> Iterator[Chunk]:
        rows: list[tuple] = []
        for chunk in self.child.chunks():
            rows.extend(chunk.rows())
        yield Chunk.from_rows(self._select(rows), len(self.schema))


def _neg(key):
    """Negate a sort key for descending heapq selection."""
    if isinstance(key, tuple):
        return tuple(_neg(part) for part in key)
    if isinstance(key, (int, float)):
        return -key
    raise EngineError(f"cannot order descending on {type(key)}")


class Limit(Operator):
    """First ``k`` rows of the input."""

    def __init__(self, child: Operator, k: int) -> None:
        super().__init__(child.schema, f"limit({k})")
        self.child = child
        self.children = [child]
        self.k = k

    def _produce_chunks(self) -> Iterator[Chunk]:
        remaining = self.k
        if remaining <= 0:
            return
        for chunk in self.child.chunks():
            size = len(chunk)
            if size <= remaining:
                yield chunk
                remaining -= size
                if remaining == 0:
                    return
            else:
                yield Chunk([column[:remaining]
                             for column in chunk.columns])
                return


class Distinct(Operator):
    """Duplicate elimination (hash-based)."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child.schema, "distinct")
        self.child = child
        self.children = [child]

    def _produce_chunks(self) -> Iterator[Chunk]:
        seen: set[tuple] = set()
        width = len(self.schema)
        for chunk in self.child.chunks():
            fresh: list[tuple] = []
            for row in chunk.rows():
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            if len(fresh) == len(chunk):
                yield chunk
            elif fresh:
                yield Chunk.from_rows(fresh, width)


class GroupAggregate(Operator):
    """Hash group-by with count/sum/min/max aggregates.

    ``aggregates`` maps output column name to ``(kind, input column)``
    where kind is one of ``count``, ``sum``, ``min``, ``max``.
    """

    def __init__(self, child: Operator, group_by: list[str],
                 aggregates: dict[str, tuple[str, str | None]]) -> None:
        schema = Schema(list(group_by) + list(aggregates))
        super().__init__(schema, f"groupby({','.join(group_by)})")
        self.child = child
        self.children = [child]
        self.group_positions = [child.schema.position(c) for c in group_by]
        self.aggregates = [
            (kind, child.schema.position(column)
             if column is not None else None)
            for kind, column in aggregates.values()]

    def _accumulate(self, groups: dict, key: tuple, row: tuple) -> None:
        state = groups.get(key)
        if state is None:
            state = groups[key] = [None] * len(self.aggregates)
        for i, (kind, position) in enumerate(self.aggregates):
            value = row[position] if position is not None else 1
            current = state[i]
            if kind == "count":
                state[i] = (current or 0) + 1
            elif kind == "sum":
                state[i] = (current or 0) + value
            elif kind == "min":
                state[i] = value if current is None \
                    else min(current, value)
            elif kind == "max":
                state[i] = value if current is None \
                    else max(current, value)
            else:
                raise EngineError(f"unknown aggregate {kind}")

    def _produce_chunks(self) -> Iterator[Chunk]:
        count_only = all(kind == "count"
                         for kind, _ in self.aggregates)
        groups: dict[tuple, list] = {}
        counts: dict[tuple, int] = {}
        for chunk in self.child.chunks():
            key_columns = [chunk.columns[p]
                           for p in self.group_positions]
            keys = zip(*key_columns) if len(key_columns) > 1 \
                else zip(key_columns[0])
            if count_only:
                # Pure count group-by collapses to a Counter update —
                # one C-level pass per chunk, no per-row state lists.
                counter = Counter(keys)
                for key, count in counter.items():
                    counts[key] = counts.get(key, 0) + count
            else:
                for key, row in zip(keys, chunk.rows()):
                    self._accumulate(groups, key, row)
        if count_only:
            n_aggs = len(self.aggregates)
            rows = [key + (count,) * n_aggs
                    for key, count in counts.items()]
        else:
            rows = [key + tuple(state)
                    for key, state in groups.items()]
        yield from chunk_rows(rows, len(self.schema))


class Union(Operator):
    """Bag union of same-schema inputs."""

    def __init__(self, inputs: list[Operator]) -> None:
        if not inputs:
            raise EngineError("union of nothing")
        super().__init__(inputs[0].schema, "union")
        self.inputs = inputs
        self.children = list(inputs)

    def _produce_chunks(self) -> Iterator[Chunk]:
        for child in self.inputs:
            yield from child.chunks()


class TransitiveExpand(Operator):
    """Bounded-depth BFS over a two-column edge table.

    The "vendor-specific extension to SQL" (paper §1: Virtuoso introduces
    "shortcuts for recursive SQL subqueries to run specific graph
    algorithms inside SQL queries").  Output schema: ``(node, distance)``
    for 1 ≤ distance ≤ max_depth, excluding the source.

    Expands whole BFS frontiers against the edge table's adjacency,
    which ``Table.insert`` keeps current (one list extend per frontier
    node, one set difference per level)
    and emits one chunk per level — so a consumer that stops early
    (Q13's shortest path) abandons the BFS at a level boundary.
    """

    def __init__(self, edges: Table, source: Any, max_depth: int,
                 from_column: str = "person1_id",
                 to_column: str = "person2_id") -> None:
        super().__init__(Schema(("node", "distance")),
                         f"transitive({edges.name},d≤{max_depth})")
        self.edges = edges
        self.source = source
        self.max_depth = max_depth
        self.from_column = from_column
        self.to_column = to_column

    def _produce_chunks(self) -> Iterator[Chunk]:
        adjacency = self.edges.adjacency(self.from_column, self.to_column)
        for frontier, depth in adjacency.frontier_bfs(self.source,
                                                      self.max_depth):
            yield Chunk([frontier, [depth] * len(frontier)])


def collect_cardinalities(root: Operator) -> dict[str, int]:
    """Post-execution ``label → tuples_out`` over the whole plan tree."""
    result: dict[str, int] = {}

    def visit(op: Operator) -> None:
        result[op.label] = op.tuples_out
        for child in op.children:
            visit(child)

    visit(root)
    return result
