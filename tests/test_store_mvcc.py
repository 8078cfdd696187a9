"""Tests for MVCC snapshot isolation semantics."""

from __future__ import annotations

import threading

import pytest

from repro.errors import DuplicateError, WriteConflictError
from repro.store.graph import Direction, GraphStore, IsolationLevel


@pytest.fixture()
def store():
    s = GraphStore()
    with s.transaction() as txn:
        txn.insert_vertex("person", 1, {"age": 30})
    return s


def _vertex(txn, label, vid):
    props = txn.vertex(label, vid)
    return {} if props is None else {vid: props}


def _vertex_batched(txn, label, vid):
    return txn.vertex_many(label, [vid])


def _neighbors(txn, label, vid):
    return list(txn.neighbors(label, vid))


def _neighbors_batched(txn, label, vid):
    return txn.neighbors_many(label, [vid])[vid]


#: The per-call read primitives and their batched counterparts (the
#: ones every SNB read expands frontiers through), answering in the
#: batched shape: only visible vertices are keys.
READ_PRIMITIVES = pytest.mark.parametrize(
    "read_vertex, read_neighbors",
    [(_vertex, _neighbors), (_vertex_batched, _neighbors_batched)],
    ids=["per_call", "batched"])


class TestSnapshotIsolation:
    def test_reader_does_not_see_later_commit(self, store):
        reader = store.transaction(IsolationLevel.SNAPSHOT)
        assert reader.vertex("person", 1)["age"] == 30
        with store.transaction() as writer:
            writer.update_vertex("person", 1, age=31)
        # The reader's snapshot predates the writer's commit.
        assert reader.vertex("person", 1)["age"] == 30
        reader.commit()

    @READ_PRIMITIVES
    def test_reader_does_not_see_later_insert(self, store, read_vertex,
                                              read_neighbors):
        reader = store.transaction(IsolationLevel.SNAPSHOT)
        with store.transaction() as writer:
            writer.insert_vertex("person", 2, {})
        assert read_vertex(reader, "person", 2) == {}
        assert read_vertex(reader, "person", 1) == {1: {"age": 30}}
        assert reader.count_vertices("person") == 1
        reader.commit()

    @READ_PRIMITIVES
    def test_reader_does_not_see_later_edges(self, store, read_vertex,
                                             read_neighbors):
        with store.transaction() as txn:
            txn.insert_vertex("person", 3, {})
            txn.insert_edge("knows", 1, 3)
        reader = store.transaction(IsolationLevel.SNAPSHOT)
        with store.transaction() as writer:
            writer.insert_vertex("person", 2, {})
            writer.insert_edge("knows", 1, 2)
        # The later record sits in the same adjacency list, after the
        # visible one; the snapshot filter must drop it.
        assert read_neighbors(reader, "knows", 1) == [(3, None)]
        assert read_neighbors(reader, "knows", 2) == []
        assert reader.degree("knows", 1) == 1
        reader.commit()

    def test_new_transaction_sees_commit(self, store):
        with store.transaction() as writer:
            writer.update_vertex("person", 1, age=31)
        with store.transaction() as reader:
            assert reader.vertex("person", 1)["age"] == 31

    def test_read_committed_sees_fresh_commits(self, store):
        reader = store.transaction(IsolationLevel.READ_COMMITTED)
        assert reader.vertex("person", 1)["age"] == 30
        with store.transaction() as writer:
            writer.update_vertex("person", 1, age=31)
        assert reader.vertex("person", 1)["age"] == 31
        reader.commit()


class TestOwnWrites:
    def test_batched_reads_merge_own_writes_with_committed(self, store):
        with store.transaction() as txn:
            txn.insert_vertex("person", 3, {"age": 20})
            txn.insert_edge("knows", 1, 3)
        writer = store.transaction()
        writer.insert_vertex("person", 2, {"age": 25})
        writer.update_vertex("person", 1, age=31)
        writer.insert_edge("knows", 1, 2, {"since": 5})
        assert writer.vertex_many("person", [1, 2, 3, 99]) == {
            1: {"age": 31}, 2: {"age": 25}, 3: {"age": 20}}
        assert writer.neighbors_many("knows", [1, 2, 3]) == {
            1: [(3, None), (2, {"since": 5})], 2: [], 3: []}
        assert writer.neighbors_many("knows", [2, 3], Direction.IN) == {
            2: [(1, {"since": 5})], 3: [(1, None)]}
        # Nothing is visible outside the writer before it commits.
        with store.transaction() as reader:
            assert reader.vertex_many("person", [1, 2]) == {1: {"age": 30}}
            assert reader.neighbors_many("knows", [1]) == {1: [(3, None)]}
        writer.commit()
        with store.transaction() as reader:
            assert reader.neighbors_many("knows", [1]) == {
                1: [(3, None), (2, {"since": 5})]}


class TestWriteConflicts:
    def test_first_committer_wins(self, store):
        a = store.transaction()
        b = store.transaction()
        a.update_vertex("person", 1, age=40)
        b.update_vertex("person", 1, age=50)
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        with store.transaction() as reader:
            assert reader.vertex("person", 1)["age"] == 40

    def test_concurrent_duplicate_insert(self, store):
        a = store.transaction()
        b = store.transaction()
        a.insert_vertex("person", 7, {})
        b.insert_vertex("person", 7, {})
        a.commit()
        with pytest.raises(DuplicateError):
            b.commit()

    def test_disjoint_writes_both_commit(self, store):
        a = store.transaction()
        b = store.transaction()
        a.insert_vertex("person", 8, {})
        b.insert_vertex("person", 9, {})
        a.commit()
        b.commit()
        with store.transaction() as reader:
            assert reader.count_vertices("person") == 3

    def test_conflict_counts_as_abort(self, store):
        a = store.transaction()
        b = store.transaction()
        a.update_vertex("person", 1, age=40)
        b.update_vertex("person", 1, age=50)
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        assert store.abort_count == 1


class TestAtomicVisibility:
    def test_commit_is_atomic_under_concurrency(self):
        """Readers must never observe half of a multi-write commit."""
        store = GraphStore()
        with store.transaction() as txn:
            txn.insert_vertex("counter", 0, {"value": 0})
        stop = threading.Event()
        anomalies = []

        def writer():
            for i in range(1, 300):
                with store.transaction() as txn:
                    txn.insert_vertex("pair", 2 * i, {"batch": i})
                    txn.insert_vertex("pair", 2 * i + 1, {"batch": i})
            stop.set()

        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    with store.transaction() as txn:
                        count = txn.count_vertices("pair")
                        if count % 2 != 0:
                            anomalies.append(count)
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert anomalies == []

    @pytest.mark.parametrize("scan", [
        lambda txn: txn.vertices("pair"),
        lambda txn: txn.edges("link"),
    ], ids=["vertices", "edges"])
    def test_scan_survives_a_commit_that_grows_its_table(self, scan):
        """A scan paused mid-label while another transaction commits a
        new key into the same table drains without error, and still
        sees only its snapshot."""
        store = GraphStore()
        with store.transaction() as txn:
            for vid in (1, 2):
                txn.insert_vertex("pair", vid, {})
                txn.insert_edge("link", vid, 3 - vid, {})
        with store.transaction() as reader:
            rows = scan(reader)
            first = next(rows)
            with store.transaction() as writer:
                writer.insert_vertex("pair", 3, {})
                writer.insert_edge("link", 3, 1, {})
            assert len([first, *rows]) == 2

    def test_parallel_inserts_all_land(self):
        store = GraphStore()

        def worker(base):
            for i in range(100):
                with store.transaction() as txn:
                    txn.insert_vertex("person", base + i, {})

        threads = [threading.Thread(target=worker, args=(base,))
                   for base in (0, 1000, 2000, 3000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with store.transaction() as txn:
            assert txn.count_vertices("person") == 400
        assert store.commit_count == 400
