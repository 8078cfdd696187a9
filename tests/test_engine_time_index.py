"""Tests for the time-ordered-id Q9 variant (paper §3's locality claim)."""

from __future__ import annotations

import pytest

from repro.engine import snb_queries
from repro.queries.complex_reads import q9


class TestTimeIndexVariant:
    def test_matches_reference_q9(self, loaded_catalog, curated_params):
        for params in curated_params.by_query[9]:
            reference = snb_queries.q9(loaded_catalog, params)
            variant = snb_queries.q9_time_index_variant(loaded_catalog,
                                                        params)
            assert variant == reference

    def test_matches_store_q9(self, loaded_store, loaded_catalog,
                              curated_params):
        for params in curated_params.by_query[9][:3]:
            with loaded_store.transaction() as txn:
                store_rows = q9.run(txn, params)
            variant = snb_queries.q9_time_index_variant(loaded_catalog,
                                                        params)
            assert variant == store_rows

    def test_empty_circle(self, loaded_catalog, network):
        """A person with no friends yields no rows."""
        befriended = {pid for edge in network.knows
                      for pid in (edge.person1_id, edge.person2_id)}
        loners = [person.id for person in network.persons
                  if person.id not in befriended]
        if not loners:
            pytest.skip("no isolated persons in this network")
        params = q9.Q9Params(loners[0], 2 ** 62)
        assert snb_queries.q9_time_index_variant(loaded_catalog,
                                                 params) == []

    def test_tight_date_bound(self, loaded_catalog, network,
                              curated_params):
        """A date bound before all messages yields no rows."""
        earliest = min(m.creation_date for m in network.messages())
        base = curated_params.by_query[9][0]
        params = q9.Q9Params(base.person_id, earliest)
        assert snb_queries.q9_time_index_variant(loaded_catalog,
                                                 params) == []

    def test_scans_only_newest_sliver(self, loaded_catalog,
                                      curated_params):
        """The variant's key win: it reads a bounded prefix of the
        descending date index, not the whole message table."""
        params = curated_params.by_query[9][0]
        message = loaded_catalog.table("message")
        # Count rows the scan visits by wrapping range_scan.
        visited = 0
        original = message.range_scan

        def counting(*args, **kwargs):
            nonlocal visited
            for row in original(*args, **kwargs):
                visited += 1
                yield row

        message.range_scan = counting
        try:
            rows = snb_queries.q9_time_index_variant(loaded_catalog,
                                                     params)
        finally:
            message.range_scan = original
        assert len(rows) == q9.LIMIT
        assert visited < message.row_count / 2
