"""Q10 — Friend recommendation.

"Find top 10 friends of a friend who posts much about the interests of
Person and little about not interesting topics for the user.  The search
is restricted by the candidate's horoscopeSign.  Returns friends for whom
the difference between the total number of their posts about the interests
of the specified user and the total number of their posts about topics
that are not interests of the user, is as large as possible.  Sort the
result descending by this difference."

The horoscope restriction follows the SNB spec: the candidate's birthday
falls on or after the 21st of the given month or before the 22nd of the
next month.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...sim_time import date_from_millis
from ...store.graph import Transaction
from ...store.loader import EdgeLabel, VertexLabel
from ..helpers import (
    friends_of,
    is_post,
    messages_of_many,
    persons_many,
    require_many,
    tags_of_many,
)

QUERY_ID = 10
LIMIT = 10


@dataclass(frozen=True)
class Q10Params:
    """Start person and the horoscope month (1-12)."""

    person_id: int
    month: int


@dataclass(frozen=True)
class Q10Result:
    """A recommended friend-of-friend with the interest similarity score."""

    person_id: int
    first_name: str
    last_name: str
    similarity: int
    gender: str
    city_name: str


def _in_horoscope_window(birthday: int, month: int) -> bool:
    """Birthday on/after the 21st of ``month`` or before the 22nd of the
    following month."""
    moment = date_from_millis(birthday)
    next_month = month % 12 + 1
    if moment.month == month and moment.day >= 21:
        return True
    return moment.month == next_month and moment.day < 22


def run(txn: Transaction, params: Q10Params) -> list[Q10Result]:
    """Execute Q10: horoscope-restricted interest-based recommendation."""
    interests = {tag_id for tag_id, __ in txn.neighbors(
        EdgeLabel.HAS_INTEREST, params.person_id)}
    friends = friends_of(txn, params.person_id)
    circles = txn.neighbors_many(EdgeLabel.KNOWS, list(friends))
    fofs = {fof_id for friend_id in friends
            for fof_id, __ in circles[friend_id]
            if fof_id != params.person_id and fof_id not in friends}
    if not fofs:
        return []
    persons = persons_many(txn, fofs)
    candidates = [person_id for person_id in fofs if _in_horoscope_window(
        persons[person_id]["birthday"], params.month)]
    created = messages_of_many(txn, candidates)
    posts = {candidate_id: [message_id for message_id
                            in created[candidate_id] if is_post(message_id)]
             for candidate_id in candidates}
    tags = tags_of_many(txn, (post_id for candidate_id in candidates
                              for post_id in posts[candidate_id]))
    scores = []
    for candidate_id in candidates:
        common = sum(1 for post_id in posts[candidate_id]
                     if not tags[post_id].isdisjoint(interests))
        uncommon = len(posts[candidate_id]) - common
        scores.append((uncommon - common, candidate_id))
    scores.sort()
    scores = scores[:LIMIT]
    cities = require_many(txn, VertexLabel.PLACE, {
        persons[candidate_id]["city_id"] for __, candidate_id in scores})
    rows = []
    for neg_similarity, candidate_id in scores:
        person = persons[candidate_id]
        rows.append(Q10Result(
            person_id=candidate_id,
            first_name=person["first_name"],
            last_name=person["last_name"],
            similarity=-neg_similarity,
            gender=person["gender"],
            city_name=cities[person["city_id"]]["name"],
        ))
    return rows
