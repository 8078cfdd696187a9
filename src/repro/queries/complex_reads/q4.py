"""Q4 — New Topics.

"Given a start Person, find the top 10 most popular Tags (by total number
of posts with the tag) that are attached to Posts that were created by
that Person's friends within a given time interval."

Per the SNB specification, only *new* topics count: tags that appear on
friend posts inside the window but on none before it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...sim_time import MILLIS_PER_DAY
from ...store.graph import Transaction
from ...store.loader import VertexLabel
from ..helpers import (
    friends_of,
    is_post,
    messages_of_many,
    require_many,
    tags_of_many,
)

QUERY_ID = 4
LIMIT = 10


@dataclass(frozen=True)
class Q4Params:
    """Start person and the [start, start + duration) window."""

    person_id: int
    start_date: int
    duration_days: int

    @property
    def end_date(self) -> int:
        return self.start_date + self.duration_days * MILLIS_PER_DAY


@dataclass(frozen=True)
class Q4Result:
    """A newly trending tag among the person's friends."""

    tag_name: str
    post_count: int


def run(txn: Transaction, params: Q4Params) -> list[Q4Result]:
    """Execute Q4: tags new to the window over friend posts."""
    friends = friends_of(txn, params.person_id)
    created = messages_of_many(txn, friends)
    post_ids = [message_id for friend_id in friends
                for message_id in created[friend_id]
                if is_post(message_id)]
    posts = txn.vertex_many(VertexLabel.POST, post_ids)
    post_ids = [post_id for post_id in post_ids if post_id in posts
                and posts[post_id]["creation_date"] < params.end_date]
    tags = tags_of_many(txn, post_ids)
    in_window: dict[int, int] = {}
    before_window: set[int] = set()
    for post_id in post_ids:
        if posts[post_id]["creation_date"] < params.start_date:
            before_window |= tags[post_id]
        else:
            for tag_id in tags[post_id]:
                in_window[tag_id] = in_window.get(tag_id, 0) + 1
    new_tags = [tag_id for tag_id in in_window
                if tag_id not in before_window]
    names = require_many(txn, VertexLabel.TAG, new_tags)
    rows = [Q4Result(names[tag_id]["name"], in_window[tag_id])
            for tag_id in new_tags]
    rows.sort(key=lambda r: (-r.post_count, r.tag_name))
    return rows[:LIMIT]
