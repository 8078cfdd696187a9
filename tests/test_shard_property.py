"""Digest-invariance property suite for the sharded store.

The placement rules promise that every vertex row and every adjacency
half lives on exactly one shard, so the merged canonical snapshot —
and therefore the state digest — is a pure function of the applied
updates, independent of the shard count.  Hypothesis drives random
update/read interleavings against shards ∈ {1, 2, 4} and requires
byte-identical digests against the single-process store at every
checkpoint; a forced cross-shard friendship pins the two-phase commit
path specifically, and the PR-3 differential runner doubles as the
interleaved-read oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operation import ComplexRead, Update
from repro.core.sut import StoreSUT
from repro.datagen.update_stream import UpdateKind, UpdateOperation
from repro.ids import serial_of
from repro.schema.entities import Knows
from repro.shard import (
    ShardedStoreSUT,
    anchor_shard,
    is_static,
    owner_of,
    partition_writes,
)
from repro.validation.canonical import comparable

#: Updates replayed per property example (speed/coverage trade-off).
PREFIX = 120


def _single_digest(split, prefix: int) -> str:
    sut = StoreSUT.for_network(split.bulk)
    for op in split.updates[:prefix]:
        sut.execute(Update(op))
    return sut.digest()


# ---------------------------------------------------------------------------
# placement rules (the invariant the digests rest on)
# ---------------------------------------------------------------------------

@given(serial=st.integers(min_value=0, max_value=2 ** 40),
       kind=st.integers(min_value=1, max_value=8),
       shards=st.sampled_from([1, 2, 4, 7]))
def test_every_vertex_has_exactly_one_owner(serial, kind, shards):
    vid = (kind << 56) | serial
    owner = owner_of(vid, shards)
    assert 0 <= owner < shards
    if is_static(vid):
        assert owner == 0  # static kinds are replica-free on shard 0
    else:
        assert owner == serial_of(vid) % shards


@given(a=st.integers(min_value=0, max_value=2 ** 20),
       b=st.integers(min_value=0, max_value=2 ** 20),
       shards=st.sampled_from([2, 4]))
def test_anchor_shard_prefers_dynamic_endpoints(a, b, shards):
    person = (1 << 56) | a        # dynamic kind
    tag = (5 << 56) | b           # static kind
    assert anchor_shard(person, tag, shards) == owner_of(person, shards)
    assert anchor_shard(tag, person, shards) == owner_of(person, shards)
    assert anchor_shard(tag, (6 << 56) | b, shards) == 0


def test_partition_writes_is_a_partition():
    """Every write lands on exactly one shard; nothing is duplicated."""
    p0, p1 = (1 << 56) | 0, (1 << 56) | 1  # owners 0 and 1 at 2 shards
    vertices = {("person", p0): {"x": 1}, ("person", p1): {"x": 2}}
    edges = [("knows", p0, p1, {"d": 3}), ("knows", p1, p0, {"d": 3})]
    per_shard = partition_writes(vertices, edges, 2)
    total_vertices = sum(len(w.vertices) for w in per_shard.values())
    total_halves = sum(len(w.halves) for w in per_shard.values())
    assert total_vertices == 2
    # Each directed edge row contributes one OUT and one IN half.
    assert total_halves == 4
    assert set(per_shard) == {0, 1}


# ---------------------------------------------------------------------------
# digest invariance under random interleavings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_shards", [1, 2, 4])
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(boundaries=st.lists(st.integers(min_value=0, max_value=PREFIX),
                           max_size=3, unique=True).map(sorted),
       query=st.sampled_from([2, 8, 9]))
def test_random_interleavings_digest_equal(small_split, small_params,
                                           num_shards, boundaries,
                                           query):
    """Wherever checkpoints and reads land in the update stream, the
    sharded store holds byte-identical state and returns identical
    read results."""
    single = StoreSUT.for_network(small_split.bulk)
    sharded = ShardedStoreSUT.for_network(small_split.bulk, num_shards)
    try:
        binding = small_params.by_query[query][0]
        cursor = 0
        for boundary in list(boundaries) + [PREFIX]:
            for op in small_split.updates[cursor:boundary]:
                single.execute(Update(op))
                sharded.execute(Update(op))
            cursor = max(cursor, boundary)
            read = ComplexRead(query, binding)
            assert comparable(query, single.execute(read).value) \
                == comparable(query, sharded.execute(read).value)
            assert single.digest() == sharded.digest(), \
                f"digest diverged at update {cursor} " \
                f"with {num_shards} shards"
    finally:
        sharded.close()


def test_spawn_start_method_matches_fork(small_split):
    """The workers are spawn-safe: an explicit spawn context produces
    the same bytes as the default (fork-preferring) context."""
    expected = _single_digest(split=small_split, prefix=60)
    sut = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                      start_method="spawn")
    try:
        for op in small_split.updates[:60]:
            sut.execute(Update(op))
        assert sut.digest() == expected
    finally:
        sut.close()


# ---------------------------------------------------------------------------
# the forced cross-shard friendship (the 2PC stress case)
# ---------------------------------------------------------------------------

def test_forced_cross_shard_friendship(small_split):
    """A friendship whose endpoints hash to different shards commits
    two-phase and still matches the single-store digest exactly."""
    existing = {(min(k.person1_id, k.person2_id),
                 max(k.person1_id, k.person2_id))
                for k in small_split.bulk.knows}
    even = [p.id for p in small_split.bulk.persons
            if serial_of(p.id) % 2 == 0]
    odd = [p.id for p in small_split.bulk.persons
           if serial_of(p.id) % 2 == 1]
    pair = next((a, b) for a in even for b in odd
                if (min(a, b), max(a, b)) not in existing)
    op = UpdateOperation(
        kind=UpdateKind.ADD_FRIENDSHIP, due_time=1_500_000_000_000,
        depends_on_time=0,
        payload=Knows(person1_id=pair[0], person2_id=pair[1],
                      creation_date=1_500_000_000_000))
    assert owner_of(pair[0], 2) != owner_of(pair[1], 2)

    single = StoreSUT.for_network(small_split.bulk)
    single.execute(Update(op))
    expected = single.digest()

    sharded = ShardedStoreSUT.for_network(small_split.bulk, 2)
    try:
        sharded.execute(Update(op))
        assert sharded.router._multi_shard_updates == 1, \
            "the forced friendship did not take the two-phase path"
        assert sharded.digest() == expected
        # Exactly-once across a duplicate delivery: each involved
        # shard's store records the update's key once, and a replay of
        # it applies nothing.
        stats = sharded.router.stats()
        applied = sum(w.get("applied", 0) for w in stats["shards"])
        assert applied >= 2  # one apply per involved shard
        sharded.execute(Update(op))
        assert sharded.digest() == expected
        stats = sharded.router.stats()
        assert sum(w["applied"] for w in stats["shards"]) == applied
    finally:
        sharded.close()


# ---------------------------------------------------------------------------
# the differential runner as the interleaved-read oracle
# ---------------------------------------------------------------------------

def test_differential_runner_oracles_the_sharded_store(small_split,
                                                       small_params):
    """The PR-3 differential runner — curated interleaved reads, short
    reads at touched entities, periodic state checkpoints — passes with
    the sharded store on the right-hand side."""
    from repro.validation import run_differential

    report, bundle = run_differential(
        small_split, small_params, persons=60, seed=11,
        batch_size=200,
        right_factory=lambda bulk: ShardedStoreSUT.for_network(bulk, 2))
    assert bundle is None
    assert report.ok, "\n".join(m.describe()
                                for m in report.mismatches)
    assert report.reads_checked > 0 and report.snapshots_checked > 0
