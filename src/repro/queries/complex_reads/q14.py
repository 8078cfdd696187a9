"""Q14 — Weighted paths.

"Given PersonX and PersonY, find all weighted paths of the shortest length
between them in the subgraph induced by the Knows relationship.  The
weight of the path takes into consideration amount of Posts/Comments
exchanged."

Weighting follows the SNB specification: every reply of one endpoint to a
*post* of the other contributes 1.0 to the pair's interaction weight,
every reply to a *comment* contributes 0.5; the path weight is the sum
over consecutive pairs.  Paths are returned sorted by weight descending.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ...store.loader import EdgeLabel, VertexLabel
from ..helpers import (
    creators_of_many,
    is_post,
    messages_of_many,
    require_many,
)

QUERY_ID = 14
#: Safety valve: social graphs can hold combinatorially many equal-length
#: paths; the spec does not cap them, but an implementation must bound its
#: memory.  The cap is far above anything the benchmark produces.
MAX_PATHS = 1000


@dataclass(frozen=True)
class Q14Params:
    """The two endpoints."""

    person_x_id: int
    person_y_id: int


@dataclass(frozen=True)
class Q14Result:
    """One shortest path with its interaction weight."""

    path: tuple[int, ...]
    weight: float


def run(txn: Transaction, params: Q14Params) -> list[Q14Result]:
    """Execute Q14: enumerate all shortest paths and weight them."""
    source, target = params.person_x_id, params.person_y_id
    if source == target:
        return [Q14Result((source,), 0.0)]
    distances, adjacency = _bfs_levels(txn, source, target)
    if target not in distances:
        return []
    paths = _enumerate_shortest_paths(adjacency, distances, source, target)
    weights = _reply_weights(txn, {person for path in paths
                                   for person in path})
    results = [Q14Result(tuple(path), sum(
        weights[a].get(b, 0.0) + weights[b].get(a, 0.0)
        for a, b in zip(path, path[1:]))) for path in paths]
    results.sort(key=lambda r: (-r.weight, r.path))
    return results


def _bfs_levels(txn: Transaction, source: int, target: int,
                ) -> tuple[dict[int, int], dict[int, list]]:
    """Level-batched BFS from source through the target's level.

    Returns the distances and the adjacency lists it fetched — every
    vertex nearer than the target, plus the target itself — which is
    all the backward path enumeration reads.
    """
    distances = {source: 0}
    adjacency: dict[int, list] = {}
    frontier = [source]
    depth = 0
    while frontier and target not in distances:
        depth += 1
        level = txn.neighbors_many(EdgeLabel.KNOWS, frontier)
        adjacency.update(level)
        next_frontier = []
        for current in frontier:
            for neighbor, __ in level[current]:
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if target in distances:
        adjacency[target] = list(txn.neighbors(EdgeLabel.KNOWS, target))
    return distances, adjacency


def _enumerate_shortest_paths(adjacency: dict[int, list],
                              distances: dict[int, int],
                              source: int, target: int) -> list[list[int]]:
    """Walk backward from the target along strictly decreasing distances."""
    paths: list[list[int]] = []
    stack: list[list[int]] = [[target]]
    while stack and len(paths) < MAX_PATHS:
        partial = stack.pop()
        head = partial[-1]
        if head == source:
            paths.append(list(reversed(partial)))
            continue
        want = distances[head] - 1
        for neighbor, __ in adjacency[head]:
            if distances.get(neighbor) == want:
                stack.append(partial + [neighbor])
    return paths


def _reply_weights(txn: Transaction, people: set[int],
                   ) -> dict[int, dict[int, float]]:
    """Replier → author → weight of the replier's comments on the
    author's messages, for every replier in ``people``."""
    people = list(people)
    created = messages_of_many(txn, people)
    replies = {person: [message_id for message_id in created[person]
                        if not is_post(message_id)] for person in people}
    comments = require_many(txn, VertexLabel.COMMENT, (
        comment_id for person in people for comment_id in replies[person]))
    authors = creators_of_many(txn, {comment["reply_of_id"]
                                     for comment in comments.values()})
    weights: dict[int, dict[int, float]] = {}
    for replier in people:
        towards = weights[replier] = {}
        for comment_id in replies[replier]:
            parent_id = comments[comment_id]["reply_of_id"]
            author = authors[parent_id]
            towards[author] = towards.get(author, 0.0) \
                + (1.0 if is_post(parent_id) else 0.5)
    return weights
