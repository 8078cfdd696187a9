"""Q5 — New groups.

"Given a start Person, find the top 20 Forums the friends and friends of
friends of that Person joined after a given Date.  Sort results descending
by the number of Posts in each Forum that were created by any of these
Persons."

This is the query the paper uses to demonstrate why parameter curation is
needed (Fig. 5): its cost is driven by the size of the 2-hop friendship
circle, which has a multimodal, high-variance distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Direction, Transaction
from ...store.loader import EdgeLabel, VertexLabel
from ..helpers import require_many, two_hop_circle

QUERY_ID = 5
LIMIT = 20


@dataclass(frozen=True)
class Q5Params:
    """Start person and the minimum join date."""

    person_id: int
    min_date: int


@dataclass(frozen=True)
class Q5Result:
    """A forum with the number of in-circle posts."""

    forum_id: int
    forum_title: str
    post_count: int


def run(txn: Transaction, params: Q5Params) -> list[Q5Result]:
    """Execute Q5: freshly joined forums ranked by in-circle posts.

    The fan-outs — memberships of the 2-hop circle, posts of the joined
    forums, authors of those posts, titles of the ranked forums — each
    go through one batched primitive (this is the Fig. 5a stress query).
    """
    circle = two_hop_circle(txn, params.person_id)
    memberships = txn.neighbors_many(EdgeLabel.HAS_MEMBER, list(circle),
                                     Direction.IN)
    joined_forums: set[int] = set()
    for friend_id in circle:
        for forum_id, props in memberships.get(friend_id, ()):
            if props["joined_date"] > params.min_date:
                joined_forums.add(forum_id)
    containers = txn.neighbors_many(EdgeLabel.CONTAINER_OF,
                                    list(joined_forums))
    post_ids = {post_id for posts in containers.values()
                for post_id, __ in posts}
    posts = txn.vertex_many(VertexLabel.POST, list(post_ids))
    counts = []
    for forum_id in joined_forums:
        post_count = 0
        for post_id, __ in containers.get(forum_id, ()):
            post = posts.get(post_id)
            if post is not None and post["author_id"] in circle:
                post_count += 1
        counts.append((-post_count, forum_id))
    counts.sort()
    counts = counts[:LIMIT]
    forums = require_many(txn, VertexLabel.FORUM,
                          [forum_id for __, forum_id in counts])
    return [Q5Result(forum_id, forums[forum_id]["title"], -neg_count)
            for neg_count, forum_id in counts]
