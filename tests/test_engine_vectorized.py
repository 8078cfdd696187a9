"""Chunked execution building blocks: chunks, predicates, adjacency.

Operators exchange fixed-size chunks of parallel column arrays.  These
tests pin the chunk/predicate building blocks; query results are
compared against the store SUT in ``test_cross_sut.py`` and operator
behaviour across chunk boundaries in ``test_engine_operators.py``.
"""

from __future__ import annotations

import pytest

from repro.datagen.update_stream import UpdateKind
from repro.engine import snb_queries
from repro.engine.chunks import CHUNK_SIZE, Chunk
from repro.engine.predicates import All, Compare, InSet, Where
from repro.engine.rows import Schema, Table
from repro.errors import EngineError


class TestChunk:
    def test_from_rows_round_trip(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        chunk = Chunk.from_rows(rows, width=2)
        assert len(chunk) == 3
        assert chunk.columns[0] == (1, 2, 3)
        assert list(chunk.rows()) == rows

    def test_empty_chunk_keeps_width(self):
        chunk = Chunk.from_rows([], width=3)
        assert len(chunk) == 0
        assert len(chunk.columns) == 3

    def test_gather(self):
        chunk = Chunk.from_rows([(1, "a"), (2, "b"), (3, "c")], width=2)
        picked = chunk.gather([2, 0])
        assert list(picked.rows()) == [(3, "c"), (1, "a")]


class TestPredicates:
    COLUMNS = [[1, 5, 9, 5], ["x", "y", "x", "z"]]
    SCHEMA_POSITIONS = {"num": 0, "tag": 1}

    def _resolved(self, predicate):
        class FakeSchema:
            def position(self, name):
                return TestPredicates.SCHEMA_POSITIONS[name]

        predicate.resolve(FakeSchema())
        return predicate

    @pytest.mark.parametrize("predicate,expected", [
        (Compare("num", "lt", 6), [0, 1, 3]),
        (Compare("num", "eq", 5), [1, 3]),
        (InSet("tag", {"x"}), [0, 2]),
        (InSet("tag", {"x"}, negate=True), [1, 3]),
        (Where("num", lambda v: v % 2 == 1), [0, 1, 2, 3]),
        (All(Compare("num", "ge", 5), InSet("tag", {"y", "z"})), [1, 3]),
    ])
    def test_keep_indices(self, predicate, expected):
        resolved = self._resolved(predicate)
        assert resolved.keep_indices(self.COLUMNS) == expected


class TestTableCSR:
    def test_matches_index_probe_order(self, loaded_catalog):
        knows = loaded_catalog.table("knows")
        adjacency = knows.adjacency("person1_id", "person2_id")
        sources = {row[0] for row in knows.rows[:50]}
        for person in sources:
            assert adjacency.neighbors(person) \
                == [row[1] for row in knows.probe("person1_id", person)]

    def test_one_adjacency_stays_current_across_inserts(self):
        table = Table("edges", Schema(("src", "dst")))
        table.insert((1, 2))
        table.create_adjacency("src", "dst")
        adjacency = table.adjacency("src", "dst")
        table.insert((2, 1))
        table.insert((1, 3))
        assert table.adjacency("src", "dst") is adjacency
        assert adjacency.neighbors(1) == [2, 3]
        assert adjacency.neighbors(2) == [1]
        assert len(adjacency) == 3

    def test_undeclared_adjacency_raises(self):
        table = Table("edges", Schema(("src", "dst")))
        with pytest.raises(EngineError):
            table.adjacency("src", "dst")

    def test_replayed_friendships_keep_knows_adjacency_current(
            self, split, fresh_catalog):
        """Each ADD_FRIENDSHIP of the fixture update stream lands in the same
        adjacency object, in knows row order, for both endpoints."""
        knows = fresh_catalog.table("knows")
        adjacency = knows.adjacency("person1_id", "person2_id")
        friendships = [op for op in split.updates
                       if op.kind is UpdateKind.ADD_FRIENDSHIP]
        assert friendships
        for op in friendships:
            snb_queries.execute_engine_update(fresh_catalog, op)
            assert knows.adjacency("person1_id", "person2_id") \
                is adjacency
            for person in (op.payload.person1_id, op.payload.person2_id):
                assert adjacency.neighbors(person) == [
                    row[1] for row in knows.probe("person1_id", person)]
        assert len(adjacency) == len(knows.rows)


def test_execute_columns_matches_execute(loaded_catalog, curated_params):
    params = curated_params.by_query[9][0]
    pipeline = snb_queries.q9_plan(loaded_catalog, params)
    columns = pipeline.execute_columns()
    rows = snb_queries.q9_plan(loaded_catalog, params).execute()
    assert rows, "curated Q9 binding produced no rows"
    assert len(columns) == len(pipeline.root.schema)
    assert list(zip(*columns)) == rows


def test_chunks_are_bounded(loaded_catalog, curated_params):
    params = curated_params.by_query[9][0]
    pipeline = snb_queries.q9_plan(loaded_catalog, params)
    sizes = [len(chunk) for chunk in pipeline.root.chunks()]
    assert sizes, "pipeline produced no chunks"
    assert all(size <= CHUNK_SIZE for size in sizes)
