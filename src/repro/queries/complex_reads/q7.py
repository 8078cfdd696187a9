"""Q7 — Recent likes.

"For the specified Person get the most recent likes of any of the person's
posts, and the latency between the corresponding post and the like.  Flag
Likes from outside the direct connections.  Return top 20 Likes, ordered
descending by creation date of the like."

Per the SNB specification only each liker's most recent like counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...sim_time import MILLIS_PER_MINUTE
from ...store.graph import Direction, Transaction
from ...store.loader import EdgeLabel
from ..helpers import (
    friends_of,
    message_props_many,
    messages_of,
    persons_many,
)

QUERY_ID = 7
LIMIT = 20


@dataclass(frozen=True)
class Q7Params:
    """The person whose content's likes are retrieved."""

    person_id: int


@dataclass(frozen=True)
class Q7Result:
    """One liker with their most recent like of the person's content."""

    liker_id: int
    first_name: str
    last_name: str
    like_date: int
    message_id: int
    message_content: str
    latency_minutes: int
    is_outside_connections: bool


def run(txn: Transaction, params: Q7Params) -> list[Q7Result]:
    """Execute Q7: most recent like per liker, friendship flagged."""
    friends = friends_of(txn, params.person_id)
    message_ids = messages_of(txn, params.person_id)
    likes = txn.neighbors_many(EdgeLabel.LIKES, message_ids, Direction.IN)
    #: liker id → (like date, message id)
    latest: dict[int, tuple[int, int]] = {}
    for message_id in message_ids:
        for liker_id, props in likes[message_id]:
            entry = (props["creation_date"], message_id)
            if liker_id not in latest or entry > latest[liker_id]:
                latest[liker_id] = entry
    if not latest:
        return []
    # The ranking needs neither names nor contents: fetch the top only.
    ranked = sorted(latest.items(),
                    key=lambda item: (-item[1][0], item[0]))[:LIMIT]
    persons = persons_many(txn, [liker_id for liker_id, __ in ranked])
    messages = message_props_many(
        txn, {message_id for __, (__, message_id) in ranked})
    rows = []
    for liker_id, (like_date, message_id) in ranked:
        person = persons[liker_id]
        message = messages[message_id]
        latency = (like_date - message["creation_date"]) \
            // MILLIS_PER_MINUTE
        rows.append(Q7Result(
            liker_id=liker_id,
            first_name=person["first_name"],
            last_name=person["last_name"],
            like_date=like_date,
            message_id=message_id,
            message_content=message["content"]
            or (message.get("image_file") or ""),
            latency_minutes=latency,
            is_outside_connections=liker_id not in friends,
        ))
    return rows
