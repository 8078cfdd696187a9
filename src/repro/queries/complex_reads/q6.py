"""Q6 — Tag co-occurrence.

"Given a start Person and some Tag, find the other Tags that occur
together with this Tag on Posts that were created by Person's friends and
friends of friends.  Return top 10 Tags, sorted descending by the count of
Posts that were created by these Persons, which contain both this Tag and
the given Tag."
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ...store.loader import VertexLabel
from ..helpers import (
    is_post,
    messages_of_many,
    require_many,
    tags_of_many,
    two_hop_circle,
)

QUERY_ID = 6
LIMIT = 10


@dataclass(frozen=True)
class Q6Params:
    """Start person and the anchor tag."""

    person_id: int
    tag_id: int


@dataclass(frozen=True)
class Q6Result:
    """A co-occurring tag with its joint post count."""

    tag_name: str
    post_count: int


def run(txn: Transaction, params: Q6Params) -> list[Q6Result]:
    """Execute Q6: co-occurrence counts over the 2-hop circle's posts."""
    circle = two_hop_circle(txn, params.person_id)
    created = messages_of_many(txn, circle)
    post_ids = [message_id for friend_id in circle
                for message_id in created[friend_id]
                if is_post(message_id)]
    tags = tags_of_many(txn, post_ids)
    co_counts: dict[int, int] = {}
    for post_id in post_ids:
        if params.tag_id not in tags[post_id]:
            continue
        for tag_id in tags[post_id]:
            if tag_id != params.tag_id:
                co_counts[tag_id] = co_counts.get(tag_id, 0) + 1
    names = require_many(txn, VertexLabel.TAG, co_counts)
    rows = [Q6Result(names[tag_id]["name"], count)
            for tag_id, count in co_counts.items()]
    rows.sort(key=lambda r: (-r.post_count, r.tag_name))
    return rows[:LIMIT]
