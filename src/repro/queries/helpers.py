"""Shared traversal helpers for the SNB queries.

These are the building blocks the paper's complexity analysis refers to:
1-hop / 2-hop friendship circles (``O(D)`` / ``O(D²)`` neighborhoods),
message retrieval per creator, and discussion-tree navigation.

**Batch discipline.**  Every read is written level by level: expand a
whole frontier with one ``neighbors_many``, fetch that level's rows with
one ``vertex_many``, filter and aggregate locally, go to the next level.
No query calls a transaction primitive inside a loop over query data, so
a read costs a constant number of primitive calls plus one per BFS level
— on the sharded store, that many scatter-gathers instead of one round
trip per row.  Two rules keep results byte-identical across stores:
iterate the ids that were asked for, never a ``*_many`` result dict
(shard merge order differs from in-process order), and keep each
vertex's adjacency-list order.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import NotFoundError
from ..ids import EntityKind, is_kind
from ..store.graph import Direction, Transaction
from ..store.loader import EdgeLabel, VertexLabel


def friends_of(txn: Transaction, person_id: int) -> set[int]:
    """Direct friends (1-hop circle)."""
    return {other for other, __ in txn.neighbors(EdgeLabel.KNOWS,
                                                 person_id)}


def friends_within(txn: Transaction, person_id: int, max_hops: int,
                   ) -> dict[int, int]:
    """BFS over *knows*: person id → distance, for 1 ≤ distance ≤ max_hops.

    The start person is excluded (distance 0 is not reported).
    Expands one whole frontier per level through
    :meth:`~repro.store.graph.Transaction.neighbors_many`, so on the
    sharded store each level costs one scatter-gather (the workers
    aggregate the adjacency of their owned slice of the frontier)
    instead of one round trip per person.
    """
    distances: dict[int, int] = {person_id: 0}
    frontier = [person_id]
    depth = 0
    while frontier and depth < max_hops:
        depth += 1
        adjacency = txn.neighbors_many(EdgeLabel.KNOWS, frontier)
        next_frontier: list[int] = []
        for current in frontier:
            for other, __ in adjacency.get(current, ()):
                if other not in distances:
                    distances[other] = depth
                    next_frontier.append(other)
        frontier = next_frontier
    distances.pop(person_id, None)
    return distances


def two_hop_circle(txn: Transaction, person_id: int) -> set[int]:
    """Friends and friends-of-friends, excluding the person."""
    return set(friends_within(txn, person_id, 2))


def messages_of(txn: Transaction, person_id: int) -> list[int]:
    """Ids of posts and comments created by the person."""
    return [message_id for message_id, __ in txn.neighbors(
        EdgeLabel.HAS_CREATOR, person_id, Direction.IN)]


def messages_of_many(txn: Transaction, person_ids: Iterable[int],
                     ) -> dict[int, list[int]]:
    """Person id → ids of the messages they created, one batched call."""
    person_ids = list(person_ids)
    if not person_ids:
        return {}
    created = txn.neighbors_many(EdgeLabel.HAS_CREATOR, person_ids,
                                 Direction.IN)
    return {person_id: [message_id for message_id, __ in pairs]
            for person_id, pairs in created.items()}


def message_props(txn: Transaction, message_id: int) -> dict | None:
    """Properties of a post or comment, dispatching on the id space."""
    if is_kind(message_id, EntityKind.POST):
        return txn.vertex(VertexLabel.POST, message_id)
    return txn.vertex(VertexLabel.COMMENT, message_id)


def message_props_many(txn: Transaction, message_ids: Iterable[int],
                       ) -> dict[int, dict]:
    """Message id → props for the visible subset: one batched call per
    message kind (posts and comments live under different labels)."""
    posts: list[int] = []
    comments: list[int] = []
    for message_id in message_ids:
        (posts if is_post(message_id) else comments).append(message_id)
    found = txn.vertex_many(VertexLabel.POST, posts)
    found.update(txn.vertex_many(VertexLabel.COMMENT, comments))
    return found


def message_label(message_id: int) -> str:
    """Vertex label for a message id."""
    return (VertexLabel.POST if is_kind(message_id, EntityKind.POST)
            else VertexLabel.COMMENT)


def is_post(message_id: int) -> bool:
    return is_kind(message_id, EntityKind.POST)


def creator_of(txn: Transaction, message_id: int) -> int:
    """Author person id of a message."""
    for person_id, __ in txn.neighbors(EdgeLabel.HAS_CREATOR, message_id):
        return person_id
    raise LookupError(f"message {message_id} has no creator")


def creators_of_many(txn: Transaction, message_ids: Iterable[int],
                     ) -> dict[int, int]:
    """Message id → author person id, one batched call."""
    message_ids = list(message_ids)
    creators = txn.neighbors_many(EdgeLabel.HAS_CREATOR, message_ids)
    found = {}
    for message_id in message_ids:
        pairs = creators.get(message_id)
        if not pairs:
            raise LookupError(f"message {message_id} has no creator")
        found[message_id] = pairs[0][0]
    return found


def tags_of_many(txn: Transaction, message_ids: Iterable[int],
                 ) -> dict[int, set[int]]:
    """Message id → ids of the tags attached to it, one batched call."""
    message_ids = list(message_ids)
    if not message_ids:
        return {}
    tagged = txn.neighbors_many(EdgeLabel.HAS_TAG, message_ids)
    return {message_id: {tag_id for tag_id, __ in pairs}
            for message_id, pairs in tagged.items()}


def require_many(txn: Transaction, label: str, vids: Iterable[int],
                 ) -> dict[int, dict]:
    """Batched ``require_vertex``: vid → props, raising if one is missing."""
    vids = list(vids)
    if not vids:
        return {}
    found = txn.vertex_many(label, vids)
    if len(found) < len(vids):
        for vid in vids:
            if vid not in found:
                raise NotFoundError(f"{label}:{vid} not visible")
    return found


def persons_many(txn: Transaction, person_ids: Iterable[int],
                 ) -> dict[int, dict]:
    """Person id → props, one batched call; all must be visible."""
    return require_many(txn, VertexLabel.PERSON, person_ids)
