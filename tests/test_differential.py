"""Update-aware differential execution: plan building and the lockstep
runner."""

from __future__ import annotations

import pytest

from repro.core.sut import StoreSUT
from repro.datagen.update_stream import UpdateKind
from repro.validation import (
    build_plan,
    render_differential,
    run_differential,
)
from repro.validation.differential import touched_refs
from repro.workload.operations import EntityRef


def _find(updates, kind):
    for index, update in enumerate(updates):
        if update.kind is kind:
            return index, update
    return None, None


def _first_of(updates, kind):
    index, update = _find(updates, kind)
    if update is None:
        pytest.skip(f"stream contains no {kind.name}")
    return index, update


def test_touched_refs_per_kind(split):
    updates = split.updates
    __, add_person = _first_of(updates, UpdateKind.ADD_PERSON)
    assert touched_refs(add_person) \
        == (EntityRef.person(add_person.payload.id),)

    __, add_friend = _first_of(updates, UpdateKind.ADD_FRIENDSHIP)
    assert touched_refs(add_friend) == (
        EntityRef.person(add_friend.payload.person1_id),
        EntityRef.person(add_friend.payload.person2_id))

    __, add_post = _first_of(updates, UpdateKind.ADD_POST)
    assert touched_refs(add_post) == (
        EntityRef.person(add_post.payload.author_id),
        EntityRef.message(add_post.payload.id))

    __, add_comment = _first_of(updates, UpdateKind.ADD_COMMENT)
    assert touched_refs(add_comment) == (
        EntityRef.person(add_comment.payload.author_id),
        EntityRef.message(add_comment.payload.id),
        EntityRef.message(add_comment.payload.reply_of_id))

    for kind in (UpdateKind.ADD_FORUM, UpdateKind.ADD_FORUM_MEMBERSHIP,
                 UpdateKind.ADD_LIKE_POST, UpdateKind.ADD_LIKE_COMMENT):
        __, update = _find(updates, kind)
        if update is not None:
            assert touched_refs(update) == ()


class TestBuildPlan:
    def test_updates_stay_in_stream_order(self, small_split,
                                          small_params):
        plan = build_plan(small_split, small_params, batch_size=200)
        update_indices = [s.index for s in plan if s.action == "update"]
        assert update_indices == list(range(len(small_split.updates)))

    def test_ends_with_checkpoint(self, small_split, small_params):
        plan = build_plan(small_split, small_params, batch_size=200)
        assert plan[-1].action == "checkpoint"

    def test_reads_rotate_templates(self, small_split, small_params):
        plan = build_plan(small_split, small_params, batch_size=200,
                          reads_per_batch=3)
        complex_ids = [s.query_id for s in plan
                       if s.action == "complex"]
        # Rotation covers more than a handful of the 14 templates.
        assert len(set(complex_ids)) >= 9

    def test_short_reads_target_touched_entities(self, small_split,
                                                 small_params):
        plan = build_plan(small_split, small_params, batch_size=200)
        touched = set()
        for op in small_split.updates:
            touched.update(touched_refs(op))
        shorts = [s for s in plan if s.action == "short"]
        assert shorts
        assert all(s.entity in touched for s in shorts)

    def test_empty_stream_still_checkpoints(self, small_split,
                                            small_params):
        from dataclasses import replace

        empty = replace(small_split, updates=[])
        plan = build_plan(empty, small_params)
        assert [s.action for s in plan] == ["checkpoint"]


class TestRunDifferential:
    def test_clean_run(self, small_split, small_params):
        report, bundle = run_differential(
            small_split, small_params, persons=60, seed=11,
            batch_size=300)
        assert report.ok, render_differential(report)
        assert bundle is None
        assert report.updates_applied == len(small_split.updates)
        assert report.reads_checked > 20
        assert report.snapshots_checked >= 2
        assert "OK — systems agree" in render_differential(report)


    def test_read_raising_on_one_side_is_a_mismatch(self, small_split,
                                                    small_params):
        """A SUT that fails a read disagrees — diff, bundle and all —
        instead of crashing the run."""
        class BrokenQ2(StoreSUT):
            def execute(self, op):
                if op.op_class == "Q2":
                    raise LookupError("lost partition")
                return super().execute(op)

        report, bundle = run_differential(
            small_split, small_params, persons=60, seed=11,
            batch_size=300, left_factory=BrokenQ2.for_network,
            right_factory=StoreSUT.for_network)
        assert {m.label for m in report.mismatches} == {"Q2"}
        assert "LookupError: lost partition" in \
            render_differential(report)
        assert bundle is not None and bundle.failing.query_id == 2

