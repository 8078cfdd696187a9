"""Tests for the 8 transactional updates."""

from __future__ import annotations

import pytest

from repro.datagen.update_stream import UpdateKind
from repro.errors import DuplicateError, WorkloadError
from repro.queries.updates import execute_update, executor_for
from repro.store.graph import Direction
from repro.store.loader import EdgeLabel, VertexLabel


def _first_of(split, kind):
    return next(op for op in split.updates if op.kind is kind)


class TestExecutors:
    def test_every_kind_has_executor(self):
        for kind in UpdateKind:
            assert callable(executor_for(kind))

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            executor_for("nonsense")


class TestAddPerson(object):
    def test_person_visible_after_update(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_PERSON)
        execute_update(fresh_store, op)
        with fresh_store.transaction() as txn:
            props = txn.vertex(VertexLabel.PERSON, op.payload.id)
            assert props is not None
            assert props["first_name"] == op.payload.first_name

    def test_interest_edges_created(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_PERSON)
        execute_update(fresh_store, op)
        with fresh_store.transaction() as txn:
            interests = {t for t, __ in txn.neighbors(
                EdgeLabel.HAS_INTEREST, op.payload.id)}
            assert interests == set(op.payload.interests)

    def test_indexed_by_first_name(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_PERSON)
        execute_update(fresh_store, op)
        with fresh_store.transaction() as txn:
            assert op.payload.id in txn.lookup(
                VertexLabel.PERSON, "first_name",
                op.payload.first_name)


class TestWholeStream:
    def test_replaying_stream_reaches_full_network(self, network,
                                                   fresh_store, split):
        for op in split.updates:
            execute_update(fresh_store, op)
        with fresh_store.transaction() as txn:
            assert txn.count_vertices(VertexLabel.PERSON) \
                == len(network.persons)
            assert txn.count_vertices(VertexLabel.POST) \
                == len(network.posts)
            assert txn.count_vertices(VertexLabel.COMMENT) \
                == len(network.comments)
            assert txn.count_vertices(VertexLabel.FORUM) \
                == len(network.forums)

    def test_dml_data_indistinguishable_from_bulk(self, network,
                                                  fresh_store, split,
                                                  loaded_store):
        """A store built bulk+DML answers queries identically to a
        store with everything bulk-loaded."""
        from repro.queries.complex_reads import q9

        for op in split.updates:
            execute_update(fresh_store, op)
        params = q9.Q9Params(network.persons[0].id,
                             network.posts[-1].creation_date + 1)
        with fresh_store.transaction() as txn:
            via_dml = q9.run(txn, params)
        with loaded_store.transaction() as txn:
            via_bulk = q9.run(txn, params)
        assert via_dml == via_bulk


class TestOtherKinds:
    @pytest.mark.parametrize("kind,label", [
        (UpdateKind.ADD_POST, VertexLabel.POST),
        (UpdateKind.ADD_COMMENT, VertexLabel.COMMENT),
        (UpdateKind.ADD_FORUM, VertexLabel.FORUM),
    ])
    def test_vertex_creating_updates(self, fresh_store, split, kind,
                                     label):
        op = _first_of(split, kind)
        execute_update(fresh_store, op)
        with fresh_store.transaction() as txn:
            assert txn.vertex_exists(label, op.payload.id)

    def test_add_friendship_symmetric(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_FRIENDSHIP)
        execute_update(fresh_store, op)
        edge = op.payload
        with fresh_store.transaction() as txn:
            assert edge.person2_id in {
                o for o, __ in txn.neighbors(EdgeLabel.KNOWS,
                                             edge.person1_id)}
            assert edge.person1_id in {
                o for o, __ in txn.neighbors(EdgeLabel.KNOWS,
                                             edge.person2_id)}

    def test_add_like_visible_from_message(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_LIKE_POST)
        execute_update(fresh_store, op)
        like = op.payload
        with fresh_store.transaction() as txn:
            likers = {p for p, __ in txn.neighbors(
                EdgeLabel.LIKES, like.message_id, Direction.IN)}
            assert like.person_id in likers

    def test_add_membership_props(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_FORUM_MEMBERSHIP)
        execute_update(fresh_store, op)
        membership = op.payload
        with fresh_store.transaction() as txn:
            rows = dict(txn.neighbors(EdgeLabel.HAS_MEMBER,
                                      membership.forum_id))
            assert rows[membership.person_id]["joined_date"] \
                == membership.joined_date


class TestReplays:
    def test_replay_commits_nothing(self, fresh_store, split):
        op = _first_of(split, UpdateKind.ADD_LIKE_POST)
        execute_update(fresh_store, op)
        execute_update(fresh_store, op)
        assert (fresh_store.commit_count, fresh_store.replay_count) == (1, 1)
        with fresh_store.transaction() as txn:
            likers = txn.neighbors(EdgeLabel.LIKES, op.payload.message_id,
                                   Direction.IN)
            assert [other for other, __ in likers].count(
                op.payload.person_id) == 1

    def test_failed_commit_records_no_key(self, fresh_store, split):
        # The vertex exists under no key, so the keyed insert fails
        # validation; a recorded key would turn the retry into a replay.
        op = _first_of(split, UpdateKind.ADD_PERSON)
        with fresh_store.transaction() as txn:
            txn.insert_vertex(VertexLabel.PERSON, op.payload.id, {})
        for __ in range(2):
            with pytest.raises(DuplicateError):
                execute_update(fresh_store, op)
        assert fresh_store.replay_count == 0
