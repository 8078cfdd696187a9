"""Q1 — Extract description of friends with a given name.

"Given a person's firstName, return up to 20 people with the same first
name, sorted by increasing distance (max 3) from a given person, and for
people within the same distance sorted by last name.  Results should
include the list of workplaces and places of study."

Choke points: transitive expansion with early termination, index lookup
combined with traversal, multi-valued attribute retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ...store.loader import EdgeLabel, VertexLabel
from ..helpers import friends_within, require_many

QUERY_ID = 1
LIMIT = 20
MAX_DISTANCE = 3


@dataclass(frozen=True)
class Q1Params:
    """Query parameters: the start person and the first name to match."""

    person_id: int
    first_name: str


@dataclass(frozen=True)
class Q1Result:
    """One matching person with affiliation details."""

    person_id: int
    last_name: str
    distance: int
    birthday: int
    creation_date: int
    gender: str
    browser_used: str
    location_ip: str
    emails: tuple[str, ...]
    languages: tuple[str, ...]
    city_name: str
    universities: tuple[tuple[str, int, str], ...]
    companies: tuple[tuple[str, int, str], ...]


def run(txn: Transaction, params: Q1Params) -> list[Q1Result]:
    """Execute Q1: same-first-name persons by graph distance."""
    distances = friends_within(txn, params.person_id, MAX_DISTANCE)
    persons = txn.vertex_many(VertexLabel.PERSON, list(distances))
    matches = []
    for person_id, distance in distances.items():
        props = persons.get(person_id)
        if props is None or props["first_name"] != params.first_name:
            continue
        matches.append((distance, props["last_name"], person_id, props))
    matches.sort(key=lambda row: row[:3])
    if not matches:
        return []
    matches = matches[:LIMIT]
    matched_ids = [person_id for __, __, person_id, __ in matches]
    studies = txn.neighbors_many(EdgeLabel.STUDY_AT, matched_ids)
    jobs = txn.neighbors_many(EdgeLabel.WORK_AT, matched_ids)
    orgs = require_many(txn, VertexLabel.ORGANISATION, {
        org_id for held in (studies, jobs) for person_id in matched_ids
        for org_id, __ in held[person_id]})
    places = require_many(txn, VertexLabel.PLACE, {
        props["city_id"] for __, __, __, props in matches} | {
        org["location_id"] for org in orgs.values()})

    def affiliations(pairs, year_prop):
        """(organisation name, year, place name) triples, sorted."""
        return tuple(sorted(
            (orgs[org_id]["name"], props[year_prop],
             places[orgs[org_id]["location_id"]]["name"])
            for org_id, props in pairs))

    return [Q1Result(
        person_id=person_id,
        last_name=last_name,
        distance=distance,
        birthday=props["birthday"],
        creation_date=props["creation_date"],
        gender=props["gender"],
        browser_used=props["browser_used"],
        location_ip=props["location_ip"],
        emails=tuple(props["emails"]),
        languages=tuple(props["languages"]),
        city_name=places[props["city_id"]]["name"],
        universities=affiliations(studies[person_id], "class_year"),
        companies=affiliations(jobs[person_id], "work_from"),
    ) for distance, last_name, person_id, props in matches]
