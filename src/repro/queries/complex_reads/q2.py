"""Q2 — Find the newest 20 posts and comments from your friends.

"Given a start Person, find (most recent) Posts and Comments from all of
that Person's friends, that were created before (and including) a given
Date.  Return the top 20 Posts/Comments, and the Person that created each
of them.  Sort results descending by creation date, and then ascending by
Post identifier."

This is the running example of the paper's parameter-curation section
(Fig. 6): the intermediate result sizes are |friends| and |their posts|.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ..helpers import (
    friends_of,
    is_post,
    message_props_many,
    messages_of_many,
    persons_many,
)

QUERY_ID = 2
LIMIT = 20


@dataclass(frozen=True)
class Q2Params:
    """Start person and inclusive upper bound on message creation date."""

    person_id: int
    max_date: int


@dataclass(frozen=True)
class Q2Result:
    """One message with its creator."""

    person_id: int
    first_name: str
    last_name: str
    message_id: int
    content: str
    creation_date: int
    is_post: bool


def run(txn: Transaction, params: Q2Params) -> list[Q2Result]:
    """Execute Q2: newest friend messages up to the date."""
    friends = friends_of(txn, params.person_id)
    created = messages_of_many(txn, friends)
    messages = message_props_many(
        txn, (message_id for friend_id in friends
              for message_id in created[friend_id]))
    candidates: list[tuple[int, int, int]] = []  # (-date, id, friend)
    for friend_id in friends:
        for message_id in created[friend_id]:
            props = messages.get(message_id)
            if props is None or props["creation_date"] > params.max_date:
                continue
            candidates.append((-props["creation_date"], message_id,
                               friend_id))
    candidates.sort()
    candidates = candidates[:LIMIT]
    persons = persons_many(txn, {friend_id for __, __, friend_id
                                 in candidates})
    results = []
    for neg_date, message_id, friend_id in candidates:
        person = persons[friend_id]
        props = messages[message_id]
        results.append(Q2Result(
            person_id=friend_id,
            first_name=person["first_name"],
            last_name=person["last_name"],
            message_id=message_id,
            content=props["content"] or (props.get("image_file") or ""),
            creation_date=-neg_date,
            is_post=is_post(message_id),
        ))
    return results
