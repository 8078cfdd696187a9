"""Friendship (knows) edge generation (paper §2.3, Figure 1).

The "Homophily Principle" is realized by a multi-stage edge generation
process over correlation dimensions:

* **pass 0 — where people studied**: persons are sorted by the composite
  key ``(city Z-order << 24) | (university << 12) | class year``;
* **pass 1 — interests**: sorted by their primary interest tag;
* **pass 2 — random**: sorted by a keyed random number, reproducing the
  inhomogeneities found in real data.

In each pass every person walks a bounded window of the persons ahead of it
in sort order and picks friends with a geometric probability that decays
with window distance (zero outside the window).  Each person has a target
degree drawn from the scaled Facebook distribution
(:mod:`repro.datagen.degrees`); the per-pass budgets split it 45% / 45% /
10% across the three dimensions.

Each pass is one sequential sweep in sort order: a person's sweep reads
the pass budgets and the edge set as the earlier persons left them, so
the order of the sweeps is part of the output.  Every person draws from
its own keyed random stream, so the sweep is a pure function of the
config.
"""

from __future__ import annotations

from ..ids import EntityKind, make_id, serial_of
from ..rng import RandomStream
from ..schema.entities import Knows, Person
from ..sim_time import MILLIS_PER_DAY, SimulationWindow
from .config import DatagenConfig
from .degrees import target_degree
from .universe import Universe, university_serial
from .zorder import study_location_key

#: Attempt multiplier before a person gives up filling its pass budget.
_ATTEMPTS_PER_EDGE = 12


def sort_key_for_pass(person: Person, pass_index: int, universe: Universe,
                      seed: int) -> int:
    """The correlation-dimension sort key of ``person`` for a given pass."""
    serial = serial_of(person.id)
    if pass_index == 0:
        if person.study_at:
            study = person.study_at[0]
            university = universe.organisation_by_id[study.organisation_id]
            city_z = universe.city_zorder.get(university.location_id, 0)
            return study_location_key(city_z,
                                      university_serial(study.organisation_id),
                                      study.class_year)
        # Persons without a university sort by home city with the
        # university slot saturated, so they cluster geographically after
        # all alumni of local universities.
        city_z = universe.city_zorder.get(person.city_id, 0)
        return study_location_key(city_z, 0xFFF, 0)
    if pass_index == 1:
        if person.interests:
            primary = serial_of(person.interests[0])
            # Tie-break by a keyed random so same-interest persons mix.
            jitter = RandomStream.for_key(seed, "dim1jitter", serial)
            return (primary << 32) | (jitter.next_u64() & 0xFFFFFFFF)
        jitter = RandomStream.for_key(seed, "dim1jitter", serial)
        return (0xFFFF << 32) | (jitter.next_u64() & 0xFFFFFFFF)
    if pass_index == 2:
        return RandomStream.for_key(seed, "dim2key", serial).next_u64()
    raise ValueError(f"unknown pass {pass_index}")


def split_degree_budget(total: int,
                        shares: tuple[float, float, float]) -> list[int]:
    """Split a target degree over the three passes (45/45/10 by default)."""
    first = round(total * shares[0])
    second = round(total * shares[1])
    rest = max(total - first - second, 0)
    return [first, second, rest]


def _edge_creation_date(stream: RandomStream, window: SimulationWindow,
                        date_a: int, date_b: int) -> int:
    """Friendship date: after both joined, skewed toward soon-after."""
    base = max(date_a, date_b) + MILLIS_PER_DAY
    room = max(window.end - base - MILLIS_PER_DAY, 1)
    lag = int(stream.exponential(room * 0.25))
    return min(base + lag, window.end - 1)


class FriendshipGenerator:
    """Runs the three sliding-window passes and accumulates knows edges."""

    def __init__(self, config: DatagenConfig, universe: Universe) -> None:
        self.config = config
        self.universe = universe

    def generate(self, persons: list[Person]) -> list[Knows]:
        """Produce the friendship edge list for the given persons."""
        config = self.config
        n = len(persons)
        self._dates = [p.creation_date for p in persons]
        targets = [target_degree(serial_of(p.id), n, config.seed)
                   for p in persons]
        # Per-pass budgets: an edge made in pass p consumes the pass-p
        # budget of BOTH endpoints, so each correlation dimension keeps
        # its 45/45/10 share of the final degree.
        self._remaining = [split_degree_budget(t, config.dimension_shares)
                           for t in targets]
        self._edges: list[Knows] = []
        self._edge_set: set[tuple[int, int]] = set()

        for pass_index in range(3):
            order = sorted(
                range(n),
                key=lambda i: (sort_key_for_pass(persons[i], pass_index,
                                                 self.universe, config.seed),
                               serial_of(persons[i].id)))
            for position in range(n):
                self.sweep_person(pass_index, order, position)
        edges = self._edges
        edges.sort(key=lambda e: (e.creation_date, e.person1_id,
                                  e.person2_id))
        return edges

    def sweep_person(self, pass_index: int, order: list[int],
                     position: int) -> None:
        """Run one person's sliding-window sweep against the live state.

        The person at ``order[position]`` jumps a geometric distance
        ahead in sort order and befriends the candidate there while both
        still have pass budget and the edge is new; every edge is
        applied at once, so later attempts (and later persons) see it.
        """
        config = self.config
        serial = order[position]
        budgets = self._remaining
        budget = budgets[serial][pass_index]
        if budget <= 0:
            return
        stream = RandomStream.for_key(config.seed, "friend", pass_index,
                                      serial)
        person_id = make_id(EntityKind.PERSON, serial)
        window = config.friendship_window
        total = len(order)
        made = 0
        attempts = 0
        max_attempts = budget * _ATTEMPTS_PER_EDGE
        while made < budget and attempts < max_attempts:
            attempts += 1
            offset = 1 + stream.geometric(config.window_geometric_p)
            if offset > window:
                continue  # probability is zero outside the window
            if position + offset >= total:
                continue
            other = order[position + offset]
            if budgets[other][pass_index] <= 0:
                continue
            other_id = make_id(EntityKind.PERSON, other)
            key = ((person_id, other_id) if person_id < other_id
                   else (other_id, person_id))
            if key in self._edge_set:
                continue
            creation = _edge_creation_date(stream, config.window,
                                           self._dates[serial],
                                           self._dates[other])
            self._edges.append(Knows(key[0], key[1], creation, pass_index))
            self._edge_set.add(key)
            budgets[serial][pass_index] -= 1
            budgets[other][pass_index] -= 1
            made += 1


def generate_friendships(config: DatagenConfig, universe: Universe,
                         persons: list[Person]) -> list[Knows]:
    """Convenience wrapper over :class:`FriendshipGenerator`."""
    return FriendshipGenerator(config, universe).generate(persons)
