"""CSR-style packed adjacency: contiguous neighbor arrays.

The per-row representations (the store's ``_EdgeRecord`` lists, the
engine's ``knows`` hash-index postings) pay a Python-object hop per
neighbor per traversal.  A :class:`CSRGraph` packs all neighbors into
one flat target list plus a ``node → (start, stop)`` bounds dict, so
BFS frontiers expand with slice-and-extend (C-level bulk copies) and
level dedup is one ``set.difference_update``.

The consumer is the engine: :meth:`repro.engine.rows.Table.csr` packs
an edge table lazily per row-count epoch for ``TransitiveExpand`` and
Q14's shortest-path BFS.  The graph store reads its MVCC
``_EdgeRecord`` lists directly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence


class CSRGraph:
    """Immutable packed adjacency built from one logical snapshot."""

    __slots__ = ("_bounds", "_targets")

    def __init__(self, bounds: dict[Hashable, tuple[int, int]],
                 targets: list) -> None:
        self._bounds = bounds
        self._targets = targets

    @classmethod
    def from_adjacency(
            cls, adjacency: Mapping[Hashable, Iterable]) -> "CSRGraph":
        targets: list = []
        bounds: dict[Hashable, tuple[int, int]] = {}
        for node, neighbors in adjacency.items():
            start = len(targets)
            targets.extend(neighbors)
            bounds[node] = (start, len(targets))
        return cls(bounds, targets)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple]) -> "CSRGraph":
        """Build from ``(source, target)`` pairs, preserving row order."""
        adjacency: dict[Hashable, list] = {}
        for source, target in edges:
            bucket = adjacency.get(source)
            if bucket is None:
                bucket = adjacency[source] = []
            bucket.append(target)
        return cls.from_adjacency(adjacency)

    def __len__(self) -> int:
        return len(self._targets)

    def neighbors(self, node: Hashable) -> Sequence:
        bounds = self._bounds.get(node)
        if bounds is None:
            return ()
        return self._targets[bounds[0]:bounds[1]]

    def gather(self, nodes: Iterable[Hashable]) -> list:
        """All neighbors of ``nodes`` concatenated (with duplicates)."""
        out: list = []
        extend = out.extend
        targets = self._targets
        get = self._bounds.get
        for node in nodes:
            bounds = get(node)
            if bounds is not None:
                extend(targets[bounds[0]:bounds[1]])
        return out

    def frontier_bfs(self, source: Hashable,
                     max_hops: int) -> Iterable[tuple[list, int]]:
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
