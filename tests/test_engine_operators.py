"""Tests for the physical operators (chunk-exchanging)."""

from __future__ import annotations

import pytest

from repro.engine.chunks import CHUNK_SIZE
from repro.engine.operators import (
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexRangeScan,
    KeyLookup,
    Limit,
    Project,
    Scan,
    Sort,
    TopK,
    TransitiveExpand,
    Union,
    collect_cardinalities,
)
from repro.engine.predicates import Compare, InSet
from repro.engine.rows import Schema, Table


def _people():
    table = Table("person", Schema(("id", "name", "age")),
                  primary_key="id")
    table.create_hash_index("name")
    table.create_ordered_index("age")
    table.bulk_load([(1, "Ada", 36), (2, "Bob", 30), (3, "Ada", 50),
                     (4, "Eve", 28)])
    return table


def _edges():
    table = Table("knows", Schema(("person1_id", "person2_id")))
    table.create_hash_index("person1_id")
    table.create_adjacency("person1_id", "person2_id")
    pairs = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)]
    table.bulk_load(pairs)
    return table


class TestScans:
    def test_scan_all(self):
        assert len(Scan(_people()).execute()) == 4

    def test_scan_with_predicate(self):
        rows = Scan(_people(), lambda r: r[2] > 30).execute()
        assert {row[0] for row in rows} == {1, 3}

    def test_range_scan(self):
        rows = IndexRangeScan(_people(), 28, 36).execute()
        assert [row[2] for row in rows] == [28, 30, 36]

    def test_range_scan_reverse(self):
        rows = IndexRangeScan(_people(), reverse=True).execute()
        assert [row[2] for row in rows] == [50, 36, 30, 28]

    def test_key_lookup_pk(self):
        rows = KeyLookup(_people(), [2, 99, 1]).execute()
        assert [row[0] for row in rows] == [2, 1]

    def test_key_lookup_hash(self):
        rows = KeyLookup(_people(), ["Ada"], column="name").execute()
        assert {row[0] for row in rows} == {1, 3}

    def test_tuple_counter(self):
        scan = Scan(_people())
        scan.execute()
        assert scan.tuples_out == 4
        scan.reset_counters()
        assert scan.tuples_out == 0


class TestJoins:
    def test_inl_join_pk(self):
        edges = Scan(_edges(), lambda r: r[0] == 1)
        join = IndexNestedLoopJoin(edges, _people(), "person2_id")
        rows = join.execute()
        assert len(rows) == 1
        assert rows[0][:2] == (1, 2)
        assert rows[0][2:] == (2, "Bob", 30)

    def test_inl_join_hash_column(self):
        people = KeyLookup(_people(), [2])
        join = IndexNestedLoopJoin(people, _edges(), "id",
                                   inner_column="person1_id")
        rows = join.execute()
        assert {row[4] for row in rows} == {1, 3}

    def test_hash_join_matches_inl(self):
        people = KeyLookup(_people(), [2])
        inl = IndexNestedLoopJoin(people, _edges(), "id",
                                  inner_column="person1_id")
        inl_rows = sorted(inl.execute())
        people2 = KeyLookup(_people(), [2])
        hash_join = HashJoin(Scan(_edges()), people2, "person1_id",
                             "id", prefix="inner_")
        hash_rows = sorted(hash_join.execute())
        assert inl_rows == hash_rows
        assert inl.schema.columns == hash_join.schema.columns

    def test_hash_join_empty_probe(self):
        join = HashJoin(Scan(_edges()),
                        Scan(_people(), lambda r: False),
                        "person1_id", "id")
        assert join.execute() == []


class TestShaping:
    def test_filter(self):
        op = Filter(Scan(_people()), lambda r: r[1] == "Ada")
        assert len(op.execute()) == 2

    def test_project(self):
        op = Project(Scan(_people()), ["name", "id"])
        assert op.schema.columns == ("name", "id")
        assert op.execute()[0] == ("Ada", 1)

    def test_project_rename(self):
        op = Project(Scan(_people()), ["id"], ["person"])
        assert op.schema.columns == ("person",)

    def test_sort(self):
        op = Sort(Scan(_people()), key=lambda r: r[2])
        assert [row[2] for row in op.execute()] == [28, 30, 36, 50]

    def test_sort_descending(self):
        op = Sort(Scan(_people()), key=lambda r: r[2], descending=True)
        assert [row[2] for row in op.execute()] == [50, 36, 30, 28]

    def test_topk_matches_sort_limit(self):
        top = TopK(Scan(_people()), key=lambda r: r[2], k=2)
        assert [row[2] for row in top.execute()] == [28, 30]

    def test_topk_descending(self):
        top = TopK(Scan(_people()), key=lambda r: (r[2],), k=2,
                   descending=True)
        assert [row[2] for row in top.execute()] == [50, 36]

    def test_limit(self):
        assert len(Limit(Scan(_people()), 2).execute()) == 2
        assert len(Limit(Scan(_people()), 99).execute()) == 4

    def test_distinct(self):
        op = Distinct(Project(Scan(_people()), ["name"]))
        assert sorted(op.execute()) == [("Ada",), ("Bob",), ("Eve",)]

    def test_union(self):
        a = Scan(_people(), lambda r: r[2] < 31)
        b = Scan(_people(), lambda r: r[2] > 40)
        assert len(Union([a, b]).execute()) == 3

    def test_union_empty_rejected(self):
        import pytest

        with pytest.raises(Exception):
            Union([])


class TestAggregate:
    def test_count_by_group(self):
        op = GroupAggregate(Scan(_people()), ["name"],
                            {"n": ("count", None)})
        result = dict(op.execute())
        assert result == {"Ada": 2, "Bob": 1, "Eve": 1}

    def test_sum_min_max(self):
        op = GroupAggregate(Scan(_people()), ["name"],
                            {"total": ("sum", "age"),
                             "young": ("min", "age"),
                             "old": ("max", "age")})
        rows = {row[0]: row[1:] for row in op.execute()}
        assert rows["Ada"] == (86, 36, 50)

    def test_unknown_aggregate(self):
        op = GroupAggregate(Scan(_people()), ["name"],
                            {"x": ("median", "age")})
        with pytest.raises(Exception):
            op.execute()


class TestTransitiveExpand:
    def test_bfs_distances(self):
        expand = TransitiveExpand(_edges(), 1, max_depth=3)
        got = dict(expand)
        assert got == {2: 1, 3: 2, 4: 3}

    def test_depth_bound(self):
        expand = TransitiveExpand(_edges(), 1, max_depth=1)
        assert dict(expand) == {2: 1}

    def test_source_excluded(self):
        expand = TransitiveExpand(_edges(), 2, max_depth=5)
        assert 2 not in dict(expand)


class TestCardinalityCollection:
    def test_collects_whole_tree(self):
        scan = Scan(_people())
        filtered = Filter(scan, lambda r: r[2] > 30, label="older")
        filtered.execute()
        cards = collect_cardinalities(filtered)
        assert cards["older"] == 2
        assert cards["scan(person)"] == 4


def _numbers(n):
    """``n`` rows of (id, bucket, value); values repeat every 101 rows
    so later chunks revisit keys the first chunk already produced."""
    table = Table("numbers", Schema(("id", "bucket", "value")),
                  primary_key="id")
    table.create_hash_index("bucket")
    table.bulk_load([(i, i % 7, (i * 37) % 101) for i in range(n)])
    return table


def _check(op, expected):
    assert op.execute() == expected
    assert op.tuples_out == len(expected)


@pytest.mark.parametrize(
    "n", [0, 1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 1])
class TestChunkBoundaries:
    """Stateful operators over inputs that end before, on and after a
    chunk boundary, against plain-Python expected values."""

    def test_limit(self, n):
        table = _numbers(n)
        for k in (0, 1, CHUNK_SIZE, CHUNK_SIZE + 1, n, n + 1):
            _check(Limit(Scan(table), k), table.rows[:k])

    def test_distinct(self, n):
        table = _numbers(n)
        values = [(row[2],) for row in table.rows]
        _check(Distinct(Project(Scan(table), ["value"])),
               list(dict.fromkeys(values)))

    def test_sort(self, n):
        table = _numbers(n)

        def key(row):
            return (row[2], -row[0])

        op = Sort(Scan(table), key=key)
        assert all(len(chunk) <= CHUNK_SIZE for chunk in op.chunks())
        op.reset_counters()
        _check(op, sorted(table.rows, key=key))
        _check(Sort(Scan(table), key=key, descending=True),
               sorted(table.rows, key=key, reverse=True))

    def test_topk(self, n):
        table = _numbers(n)

        def key(row):
            return (row[2], row[0])

        for k in (3, CHUNK_SIZE + 1):
            _check(TopK(Scan(table), key=key, k=k),
                   sorted(table.rows, key=key)[:k])
            _check(TopK(Scan(table), key=key, k=k, descending=True),
                   sorted(table.rows, key=key, reverse=True)[:k])

    @pytest.mark.parametrize("build_key,probe_key", [
        ("id", "value"),      # unique build keys, n probe rows
        ("bucket", "value"),  # ~n/7 build rows per key, 7 of 101 hit
    ])
    def test_hash_join_build_and_probe(self, n, build_key, probe_key):
        table = _numbers(n)
        build_position = table.schema.position(build_key)
        probe_position = table.schema.position(probe_key)
        built: dict = {}
        for row in table.rows:
            built.setdefault(row[build_position], []).append(row)
        expected = [probe_row + build_row for probe_row in table.rows
                    for build_row in built.get(probe_row[probe_position],
                                               ())]
        _check(HashJoin(Scan(table), Scan(table), build_key, probe_key),
               expected)

    def test_group_count_only(self, n):
        table = _numbers(n)
        expected: dict = {}
        for row in table.rows:
            expected[row[2]] = expected.get(row[2], 0) + 1
        op = GroupAggregate(Scan(table), ["value"],
                            {"n": ("count", None), "m": ("count", "id")})
        _check(op, [(value, count, count)
                    for value, count in expected.items()])

    def test_group_mixed_aggregates(self, n):
        table = _numbers(n)
        by_bucket: dict = {}
        for row in table.rows:
            by_bucket.setdefault(row[1], []).append(row[2])
        op = GroupAggregate(Scan(table), ["bucket"],
                            {"n": ("count", None),
                             "total": ("sum", "value"),
                             "low": ("min", "value"),
                             "high": ("max", "value")})
        _check(op, [(bucket, len(values), sum(values), min(values),
                     max(values))
                    for bucket, values in by_bucket.items()])

    def test_inl_join_pk_with_residual(self, n):
        table = _numbers(n)
        join = IndexNestedLoopJoin(
            Scan(table), table, "value",
            residual=InSet("inner_bucket", {1, 3}))
        _check(join, [row + table.rows[row[2]] for row in table.rows
                      if row[2] < n and table.rows[row[2]][1] in (1, 3)])

    def test_inl_join_hash_column_with_residual(self, n):
        weights = Table("weights", Schema(("bucket", "weight")))
        weights.create_hash_index("bucket")
        weights.bulk_load([(b, w) for b in range(7) for w in (b, -b)])
        table = _numbers(n)
        join = IndexNestedLoopJoin(
            Scan(table), weights, "bucket", inner_column="bucket",
            residual=Compare("weight", "ge", 0))
        # Two candidates per outer row; bucket 0 keeps both (0, -0).
        expected = [row + (row[1], w) for row in table.rows
                    for w in (row[1], -row[1]) if w >= 0]
        _check(join, expected)

    def test_key_lookup(self, n):
        table = _numbers(n)
        by_pk = KeyLookup(table, range(-1, n + 1))
        assert all(len(chunk) <= CHUNK_SIZE for chunk in by_pk.chunks())
        by_pk.reset_counters()
        _check(by_pk, table.rows)
        _check(KeyLookup(table, [6, 0, 9], column="bucket"),
               [row for bucket in (6, 0) for row in table.rows
                if row[1] == bucket])
