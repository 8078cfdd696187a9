"""Q8 — Most recent replies.

"This query retrieves the 20 most recent reply comments to all the posts
and comments of Person, ordered descending by creation date."

The cheapest complex query (frequency 13 in Table 4): one hop to the
person's messages and one hop to their direct replies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Direction, Transaction
from ...store.loader import EdgeLabel, VertexLabel
from ..helpers import messages_of, persons_many, require_many

QUERY_ID = 8
LIMIT = 20


@dataclass(frozen=True)
class Q8Params:
    """The person whose content's replies are retrieved."""

    person_id: int


@dataclass(frozen=True)
class Q8Result:
    """One reply comment with its author."""

    comment_id: int
    creation_date: int
    content: str
    author_id: int
    first_name: str
    last_name: str


def run(txn: Transaction, params: Q8Params) -> list[Q8Result]:
    """Execute Q8: newest direct replies to the person's messages."""
    message_ids = messages_of(txn, params.person_id)
    replies = txn.neighbors_many(EdgeLabel.REPLY_OF, message_ids,
                                 Direction.IN)
    comment_ids = [comment_id for message_id in message_ids
                   for comment_id, __ in replies[message_id]]
    if not comment_ids:
        return []
    comments = require_many(txn, VertexLabel.COMMENT, comment_ids)
    # (-date, comment id)
    candidates = sorted((-comments[comment_id]["creation_date"], comment_id)
                        for comment_id in comment_ids)[:LIMIT]
    authors = persons_many(txn, {comments[comment_id]["author_id"]
                                 for __, comment_id in candidates})
    results = []
    for neg_date, comment_id in candidates:
        comment = comments[comment_id]
        author = authors[comment["author_id"]]
        results.append(Q8Result(
            comment_id=comment_id,
            creation_date=-neg_date,
            content=comment["content"],
            author_id=comment["author_id"],
            first_name=author["first_name"],
            last_name=author["last_name"],
        ))
    return results
