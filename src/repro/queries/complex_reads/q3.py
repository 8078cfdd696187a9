"""Q3 — Friends within 2 steps that recently traveled to countries X and Y.

"Find top 20 friends and friends of friends of a given Person who have
made a post or a comment in the foreign CountryX and CountryY within a
specified period of DurationInDays after a startDate.  Sorted results
descending by total number of posts."

"Foreign" means the message's country differs from the friend's home
country — the travel correlation the generator plants (a small fraction of
messages are geo-tagged abroad).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...sim_time import MILLIS_PER_DAY
from ...store.graph import Transaction
from ..helpers import (
    message_props_many,
    messages_of_many,
    persons_many,
    two_hop_circle,
)

QUERY_ID = 3
LIMIT = 20


@dataclass(frozen=True)
class Q3Params:
    """Start person, the two countries, and the time window."""

    person_id: int
    country_x_id: int
    country_y_id: int
    start_date: int
    duration_days: int

    @property
    def end_date(self) -> int:
        return self.start_date + self.duration_days * MILLIS_PER_DAY


@dataclass(frozen=True)
class Q3Result:
    """A traveler with message counts per country."""

    person_id: int
    first_name: str
    last_name: str
    x_count: int
    y_count: int

    @property
    def total(self) -> int:
        return self.x_count + self.y_count


def run(txn: Transaction, params: Q3Params) -> list[Q3Result]:
    """Execute Q3: two-country travelers in the 2-hop circle."""
    countries = (params.country_x_id, params.country_y_id)
    circle = two_hop_circle(txn, params.person_id)
    persons = persons_many(txn, circle)
    # Residents of either country are out: it would not be foreign.
    travelers = [friend_id for friend_id in circle
                 if persons[friend_id]["country_id"] not in countries]
    created = messages_of_many(txn, travelers)
    messages = message_props_many(
        txn, (message_id for friend_id in travelers
              for message_id in created[friend_id]))
    rows = []
    for friend_id in travelers:
        x_count = 0
        y_count = 0
        for message_id in created[friend_id]:
            props = messages.get(message_id)
            if props is None:
                continue
            when = props["creation_date"]
            if not params.start_date <= when < params.end_date:
                continue
            country = props["country_id"]
            if country == params.country_x_id:
                x_count += 1
            elif country == params.country_y_id:
                y_count += 1
        if x_count > 0 and y_count > 0:
            person = persons[friend_id]
            rows.append(Q3Result(friend_id, person["first_name"],
                                 person["last_name"], x_count, y_count))
    rows.sort(key=lambda r: (-(r.x_count + r.y_count), r.person_id))
    return rows[:LIMIT]
