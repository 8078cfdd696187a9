"""Binding parameter curation to the 14 SNB query templates.

For every complex query template this module assembles the right
Parameter-Count table, runs the greedy selection, and materializes typed
parameter objects (the ``QnParams`` dataclasses).  Multi-parameter
templates (paper: "Person and Timestamp (of her posts)", "Person, her
Name and her Country") combine a curated person sample with stable
timestamp buckets / frequency-matched secondary values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..datagen.stats import FrequencyStatistics
from ..errors import CurationError
from ..rng import RandomStream
from ..schema.dataset import SocialNetwork
from ..schema.entities import PlaceType
from ..queries.complex_reads import (
    q1,
    q2,
    q3,
    q4,
    q5,
    q6,
    q7,
    q8,
    q9,
    q10,
    q11,
    q12,
    q13,
    q14,
)
from .buckets import bucket_midpoint, bucket_timestamps, stable_buckets
from .greedy import greedy_select, uniform_select
from .pc_table import (
    ParameterCountTable,
    pc_table_own_messages,
    pc_table_q2,
    pc_table_two_hop,
)


@dataclass
class CuratedWorkloadParams:
    """Per-query curated parameter bindings for one benchmark run."""

    by_query: dict[int, list] = field(default_factory=dict)

    def params_for(self, query_id: int) -> list:
        bindings = self.by_query.get(query_id)
        if not bindings:
            raise CurationError(f"no curated parameters for Q{query_id}")
        return bindings

    def subset(self, k: int) -> "CuratedWorkloadParams":
        """The first ``k`` bindings of every template (cheap runs)."""
        return CuratedWorkloadParams(by_query={
            query_id: bindings[:k]
            for query_id, bindings in self.by_query.items()})

    def as_dicts(self) -> dict[int, list[dict]]:
        """JSON-able form: query id → list of binding field dicts."""
        from dataclasses import asdict

        return {query_id: [asdict(binding) for binding in bindings]
                for query_id, bindings in self.by_query.items()}


class ParameterCurator:
    """Produces curated (and uniform-baseline) parameters for a network."""

    def __init__(self, network: SocialNetwork,
                 stats: FrequencyStatistics | None = None,
                 seed: int = 0) -> None:
        self.network = network
        self.stats = stats if stats is not None \
            else FrequencyStatistics.of(network)
        self.seed = seed
        self._countries = [p for p in network.places
                           if p.type is PlaceType.COUNTRY]
        self._message_timestamps = [m.creation_date
                                    for m in network.messages()]

    # -- table access ------------------------------------------------------

    def table_for(self, query_id: int) -> ParameterCountTable:
        """The PC table matching a query's intended plan."""
        if query_id in (2, 4):
            return pc_table_q2(self.stats)
        if query_id in (7, 8):
            return pc_table_own_messages(self.stats)
        # Two-hop templates and path queries use the 2-hop circle table.
        return pc_table_two_hop(self.stats)

    def curated_persons(self, query_id: int, k: int) -> list[int]:
        """Curated person ids for one query template."""
        return greedy_select(self.table_for(query_id), k).values

    def uniform_persons(self, query_id: int, k: int) -> list[int]:
        """Uniform-baseline person ids (the Fig. 5 contrast)."""
        return uniform_select(self.table_for(query_id), k, self.seed)

    # -- secondary parameter helpers -----------------------------------------

    def _stable_timestamps(self, k: int) -> list[int]:
        """Timestamps from near-median-activity month buckets."""
        counts = bucket_timestamps(self._message_timestamps)
        buckets = stable_buckets(counts, max(k // 4, 1))
        if not buckets:
            raise CurationError("network has no messages to bucket")
        return [bucket_midpoint(buckets[i % len(buckets)])
                for i in range(k)]

    def _common_first_names(self, k: int) -> list[str]:
        counter = Counter(p.first_name for p in self.network.persons)
        common = [name for name, __ in counter.most_common(max(k, 5))]
        return [common[i % len(common)] for i in range(k)]

    def _popular_tags(self, k: int) -> list[int]:
        ranked = sorted(self.stats.tag_message_count.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        if not ranked:
            raise CurationError("network has no tagged messages")
        # Skip the very head: the most popular tag has outlier frequency.
        pool = [tag for tag, __ in ranked[1:1 + max(k, 5)]] \
            or [ranked[0][0]]
        return [pool[i % len(pool)] for i in range(k)]

    def _mid_countries(self, k: int) -> list[int]:
        ordered = sorted(self._countries, key=lambda c: c.name)
        middle = ordered[len(ordered) // 4: len(ordered) * 3 // 4] \
            or ordered
        return [middle[i % len(middle)].id for i in range(k)]

    def _tag_classes_with_tags(self, k: int) -> list[int]:
        populated = sorted({tag.class_id for tag in self.network.tags})
        if not populated:
            raise CurationError("network has no tag classes")
        return [populated[i % len(populated)] for i in range(k)]

    def _person_pairs(self, k: int) -> list[tuple[int, int]]:
        """Pairs for the path queries: curated persons from distinct
        regions of the PC table, so path lengths are non-trivial."""
        table = self.table_for(13)
        persons = greedy_select(table, max(2 * k, 4)).values
        stream = RandomStream.for_key(self.seed, "pairs")
        others = [value for value, __ in table.rows]
        pairs = []
        for i in range(k):
            a = persons[i % len(persons)]
            b = others[stream.zipf_index(len(others), 1.0)]
            if a == b:
                b = others[(others.index(b) + 1) % len(others)]
            pairs.append((a, b))
        return pairs

    # -- the main entry point -------------------------------------------------

    def curate(self, bindings_per_query: int = 10,
               uniform: bool = False) -> CuratedWorkloadParams:
        """Curated (or uniform-baseline) bindings for all 14 templates."""
        k = bindings_per_query
        pick = self.uniform_persons if uniform else self.curated_persons
        dates = self._stable_timestamps(k)
        names = self._common_first_names(k)
        tags = self._popular_tags(k)
        countries = self._mid_countries(2 * k)
        classes = self._tag_classes_with_tags(k)
        pairs = self._person_pairs(k)
        result = CuratedWorkloadParams()
        result.by_query[1] = [
            q1.Q1Params(p, names[i])
            for i, p in enumerate(pick(1, k))]
        result.by_query[2] = [
            q2.Q2Params(p, dates[i]) for i, p in enumerate(pick(2, k))]
        result.by_query[3] = [
            q3.Q3Params(p, countries[2 * i], countries[2 * i + 1],
                        dates[i], 60)
            for i, p in enumerate(pick(3, k))]
        result.by_query[4] = [
            q4.Q4Params(p, dates[i], 30) for i, p in enumerate(pick(4, k))]
        result.by_query[5] = [
            q5.Q5Params(p, dates[i]) for i, p in enumerate(pick(5, k))]
        result.by_query[6] = [
            q6.Q6Params(p, tags[i]) for i, p in enumerate(pick(6, k))]
        result.by_query[7] = [
            q7.Q7Params(p) for p in pick(7, k)]
        result.by_query[8] = [
            q8.Q8Params(p) for p in pick(8, k)]
        result.by_query[9] = [
            q9.Q9Params(p, dates[i]) for i, p in enumerate(pick(9, k))]
        result.by_query[10] = [
            q10.Q10Params(p, 1 + i % 12)
            for i, p in enumerate(pick(10, k))]
        result.by_query[11] = [
            q11.Q11Params(p, countries[i], 2013)
            for i, p in enumerate(pick(11, k))]
        result.by_query[12] = [
            q12.Q12Params(p, classes[i])
            for i, p in enumerate(pick(12, k))]
        result.by_query[13] = [
            q13.Q13Params(a, b) for a, b in pairs]
        result.by_query[14] = [
            q14.Q14Params(a, b) for a, b in pairs]
        return result
