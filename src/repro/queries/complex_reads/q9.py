"""Q9 — Latest Posts.

"Find the most recent 20 posts and comments from all friends, or
friends-of-friends of Person, but created before a Date.  Return posts,
their creators and creation dates, sort descending by creation date."

The paper's Section 3 uses Q9 as the choke-point worked example (Fig. 4):
the intended plan expands the friendship circle with index-nested-loop
joins and switches to a hash join for the voluminous message join; picking
the wrong join type costs ~50%.  The relational engine's Q9 plan
(:mod:`repro.engine.snb_plans`) reproduces exactly that trade-off; this
module is the graph-API formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ..helpers import (
    is_post,
    message_props_many,
    messages_of_many,
    persons_many,
    two_hop_circle,
)

QUERY_ID = 9
LIMIT = 20


@dataclass(frozen=True)
class Q9Params:
    """Start person and exclusive upper bound on message creation date."""

    person_id: int
    max_date: int


@dataclass(frozen=True)
class Q9Result:
    """One message from the 2-hop circle."""

    person_id: int
    first_name: str
    last_name: str
    message_id: int
    content: str
    creation_date: int
    is_post: bool


def run(txn: Transaction, params: Q9Params) -> list[Q9Result]:
    """Execute Q9: newest 2-hop-circle messages before the date."""
    circle = two_hop_circle(txn, params.person_id)
    created = messages_of_many(txn, circle)
    messages = message_props_many(
        txn, (message_id for friend_id in circle
              for message_id in created[friend_id]))
    candidates: list[tuple[int, int, int]] = []  # (-date, id, author)
    for friend_id in circle:
        for message_id in created[friend_id]:
            props = messages.get(message_id)
            if props is None or props["creation_date"] >= params.max_date:
                continue
            candidates.append((-props["creation_date"], message_id,
                               friend_id))
    candidates.sort()
    candidates = candidates[:LIMIT]
    persons = persons_many(txn, {author_id for __, __, author_id
                                 in candidates})
    results = []
    for neg_date, message_id, author_id in candidates:
        person = persons[author_id]
        props = messages[message_id]
        results.append(Q9Result(
            person_id=author_id,
            first_name=person["first_name"],
            last_name=person["last_name"],
            message_id=message_id,
            content=props["content"] or (props.get("image_file") or ""),
            creation_date=-neg_date,
            is_post=is_post(message_id),
        ))
    return results
