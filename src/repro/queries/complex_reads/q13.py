"""Q13 — Single shortest path.

"Given PersonX and PersonY, find the shortest path between them in the
subgraph induced by the Knows relationships.  Return the length of this
path."  Returns -1 if the persons are not connected.

Implemented as a bidirectional BFS — the classic optimization for
point-to-point shortest path in a small-diameter social graph — that
fetches each level's adjacency in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ...store.loader import EdgeLabel

QUERY_ID = 13


@dataclass(frozen=True)
class Q13Params:
    """The two endpoints."""

    person_x_id: int
    person_y_id: int


@dataclass(frozen=True)
class Q13Result:
    """Shortest path length (-1 when unreachable)."""

    length: int


def run(txn: Transaction, params: Q13Params) -> list[Q13Result]:
    """Execute Q13: bidirectional BFS over *knows*."""
    source, target = params.person_x_id, params.person_y_id
    if source == target:
        return [Q13Result(0)]
    forward = {source: 0}
    backward = {target: 0}
    forward_frontier = [source]
    backward_frontier = [target]
    while forward_frontier and backward_frontier:
        # Expand the smaller frontier by one full level; only after the
        # level completes is the minimum crossing distance exact.
        if len(forward_frontier) <= len(backward_frontier):
            frontier, seen, other = forward_frontier, forward, backward
        else:
            frontier, seen, other = backward_frontier, backward, forward
        adjacency = txn.neighbors_many(EdgeLabel.KNOWS, frontier)
        best: int | None = None
        next_frontier = []
        for person_id in frontier:
            for neighbor, __ in adjacency[person_id]:
                if neighbor in other:
                    candidate = seen[person_id] + 1 + other[neighbor]
                    if best is None or candidate < best:
                        best = candidate
                if neighbor not in seen:
                    seen[neighbor] = seen[person_id] + 1
                    next_frontier.append(neighbor)
        if best is not None:
            return [Q13Result(best)]
        frontier[:] = next_frontier
    return [Q13Result(-1)]
