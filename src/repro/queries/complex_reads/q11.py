"""Q11 — Job referral.

"Find top 10 friends of the specified Person, or a friend of her friend
(excluding the specified person), who has long worked in a company in a
specified Country.  Sort ascending by start date, and then ascending by
person identifier."
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ...store.loader import EdgeLabel, VertexLabel
from ..helpers import persons_many, require_many, two_hop_circle

QUERY_ID = 11
LIMIT = 10


@dataclass(frozen=True)
class Q11Params:
    """Start person, country of the workplace, and the year cutoff."""

    person_id: int
    country_id: int
    max_work_from: int


@dataclass(frozen=True)
class Q11Result:
    """A referral candidate with their workplace."""

    person_id: int
    first_name: str
    last_name: str
    organisation_name: str
    work_from: int


def run(txn: Transaction, params: Q11Params) -> list[Q11Result]:
    """Execute Q11: long-time employees in the country, 2-hop circle."""
    circle = two_hop_circle(txn, params.person_id)
    jobs = txn.neighbors_many(EdgeLabel.WORK_AT, list(circle))
    long_jobs = [(friend_id, org_id, props["work_from"])
                 for friend_id in circle
                 for org_id, props in jobs[friend_id]
                 if props["work_from"] < params.max_work_from]
    if not long_jobs:
        return []
    orgs = require_many(txn, VertexLabel.ORGANISATION,
                        {org_id for __, org_id, __ in long_jobs})
    # (work_from, person id, organisation name)
    ranked = sorted(
        (work_from, friend_id, orgs[org_id]["name"])
        for friend_id, org_id, work_from in long_jobs
        if orgs[org_id]["location_id"] == params.country_id)[:LIMIT]
    persons = persons_many(txn, {friend_id for __, friend_id, __ in ranked})
    return [Q11Result(
        person_id=friend_id,
        first_name=persons[friend_id]["first_name"],
        last_name=persons[friend_id]["last_name"],
        organisation_name=organisation_name,
        work_from=work_from,
    ) for work_from, friend_id, organisation_name in ranked]
