"""Tests for engine schemas, tables and indexes."""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateError, EngineError, NotFoundError
from repro.engine.rows import Adjacency, Schema, Table


class TestSchema:
    def test_positions(self):
        schema = Schema(("a", "b", "c"))
        assert schema.position("b") == 1
        assert "c" in schema
        assert "z" not in schema
        assert len(schema) == 3

    def test_unknown_column_raises(self):
        with pytest.raises(EngineError):
            Schema(("a",)).position("b")

    def test_duplicate_rejected(self):
        with pytest.raises(EngineError):
            Schema(("a", "a"))

    def test_concat_disjoint(self):
        merged = Schema(("a",)).concat(Schema(("b",)))
        assert merged.columns == ("a", "b")

    def test_concat_collision_prefixed(self):
        merged = Schema(("a", "b")).concat(Schema(("b", "c")),
                                           prefix="r_")
        assert merged.columns == ("a", "b", "r_b", "c")

    def test_concat_repeated_self_join(self):
        knows = Schema(("p1", "p2", "date"))
        once = knows.concat(knows, prefix="inner_")
        twice = once.concat(knows, prefix="inner_")
        assert len(set(twice.columns)) == len(twice.columns)


def _person_table():
    table = Table("person", Schema(("id", "name", "age")),
                  primary_key="id")
    table.create_hash_index("name")
    table.create_ordered_index("age")
    table.bulk_load([(1, "Ada", 36), (2, "Bob", 30), (3, "Ada", 50)])
    return table


class TestTable:
    def test_pk_lookup(self):
        table = _person_table()
        assert table.by_pk(2) == (2, "Bob", 30)
        assert table.get_pk(99) is None
        with pytest.raises(NotFoundError):
            table.by_pk(99)

    def test_duplicate_pk_rejected(self):
        table = _person_table()
        with pytest.raises(DuplicateError):
            table.insert((1, "Eve", 20))

    def test_arity_check(self):
        table = _person_table()
        with pytest.raises(EngineError):
            table.insert((4, "Eve"))

    def test_hash_probe(self):
        table = _person_table()
        assert {row[0] for row in table.probe("name", "Ada")} == {1, 3}
        assert table.probe("name", "Zed") == []

    def test_probe_without_index_raises(self):
        table = _person_table()
        with pytest.raises(EngineError):
            table.probe("age", 30)

    def test_range_scan(self):
        table = _person_table()
        ids = [row[0] for row in table.range_scan(30, 40)]
        assert ids == [2, 1]

    def test_range_scan_reverse(self):
        table = _person_table()
        ages = [row[2] for row in table.range_scan(reverse=True)]
        assert ages == [50, 36, 30]

    def test_insert_maintains_indexes(self):
        table = _person_table()
        table.insert((4, "Ada", 40))
        assert len(table.probe("name", "Ada")) == 3
        ages = [row[2] for row in table.range_scan()]
        assert ages == sorted(ages)

    def test_second_ordered_index_rejected(self):
        table = _person_table()
        with pytest.raises(EngineError):
            table.create_ordered_index("id")

    def test_statistics(self):
        table = _person_table()
        assert table.row_count == 3
        assert table.distinct_count("name") == 2
        assert table.average_fanout("name") == pytest.approx(1.5)
        assert table.distinct_count("id") == 3

    def test_hash_index_created_after_load(self):
        table = Table("t", Schema(("k", "v")))
        table.bulk_load([(1, "x"), (1, "y")])
        table.create_hash_index("k")
        assert len(table.probe("k", 1)) == 2

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)),
                    max_size=60))
    @settings(max_examples=50)
    def test_range_scan_sorted_property(self, rows):
        table = Table("t", Schema(("id", "key")))
        table.create_ordered_index("key")
        for i, (a, key) in enumerate(rows):
            table.insert((i, key))
        keys = [row[1] for row in table.range_scan()]
        assert keys == sorted(keys)


class TestAdjacency:
    def test_neighbors_preserve_row_order(self):
        adjacency = Adjacency(0, 1, [(1, 2), (1, 3), (2, 1)])
        assert adjacency.neighbors(1) == [2, 3]
        assert adjacency.neighbors(2) == [1]
        assert adjacency.neighbors(99) == []
        assert len(adjacency) == 3

    def test_rows_group_by_source(self):
        adjacency = Adjacency(0, 1, [(1, 2), (2, 3), (1, 4), (4, 1)])
        assert adjacency.neighbors(1) == [2, 4]
        assert adjacency.neighbors(2) == [3]
        assert adjacency.neighbors(4) == [1]
        assert len(adjacency) == 4

    def test_gather_concatenates_with_duplicates(self):
        adjacency = Adjacency(0, 1, [(1, 2), (1, 3), (2, 3)])
        assert adjacency.gather([1, 2]) == [2, 3, 3]

    def test_frontier_bfs_levels(self):
        adjacency = Adjacency(0, 1, [(1, 2), (1, 3), (2, 1), (2, 4),
                                     (3, 1), (4, 2), (4, 5), (5, 4)])
        levels = list(adjacency.frontier_bfs(1, 10))
        assert [(sorted(frontier), depth) for frontier, depth in levels] \
            == [([2, 3], 1), ([4], 2), ([5], 3)]


def _edge_table():
    table = Table("edges", Schema(("src", "dst")))
    table.create_hash_index("src")
    table.create_adjacency("src", "dst")
    return table


def _adjacency(graph, sources):
    return {source: list(graph.neighbors(source)) for source in sources}


def _fresh_build(table):
    expected: dict = {}
    for source, target in table.rows:
        expected.setdefault(source, []).append(target)
    return expected


class TestCsrUnderConcurrentInsert:
    def test_reader_inside_insert_cannot_cache_a_stale_graph(self):
        """A reader on another thread that runs in the middle of
        ``insert`` gets the table's one adjacency, and that object holds
        the new row once ``insert`` returns (deterministic interleaving:
        the index dict calls ``adjacency()`` from inside the insert)."""
        table = _edge_table()
        table.insert((1, 2))
        seen = []

        class ReaderInsideInsert(dict):
            def setdefault(self, key, default=None):
                seen.append(table.adjacency("src", "dst"))
                return super().setdefault(key, default)

        table._hash_indexes["src"] = ReaderInsideInsert(
            table._hash_indexes["src"])
        table.insert((1, 3))
        assert seen and seen[0] is table.adjacency("src", "dst")
        assert list(table.adjacency("src", "dst").neighbors(1)) == [2, 3]

    def test_soak_final_graph_equals_fresh_build(self):
        table = _edge_table()
        stop = threading.Event()
        errors: list[BaseException] = []

        def read():
            try:
                while not stop.is_set():
                    published = len(table.rows)
                    graph = table.adjacency("src", "dst")
                    # Every row published before the call is in the
                    # adjacency it returns: insert adds it there first.
                    assert len(graph) >= published
                    list(graph.frontier_bfs(0, 3))
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        reader = threading.Thread(target=read)
        try:
            reader.start()
            deadline = time.monotonic() + 0.5
            i = 0
            while time.monotonic() < deadline:
                table.insert((i % 13, i))
                i += 1
        finally:
            stop.set()
            reader.join(timeout=5)
            sys.setswitchinterval(previous)
        assert not reader.is_alive()
        assert not errors, errors
        assert i > 0
        expected = _fresh_build(table)
        assert _adjacency(table.adjacency("src", "dst"), expected) \
            == expected
