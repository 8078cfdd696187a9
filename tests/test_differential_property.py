"""Property tests for the state oracle: random update/checkpoint
interleavings and partitioned replays all converge to the same
canonical state on both SUTs."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operation import Update
from repro.core.sut import EngineSUT, StoreSUT
from repro.datagen import DatagenConfig, generate
from repro.datagen.update_stream import partition_updates
from repro.validation import diff_snapshots, snapshot_digest

#: Updates replayed per property example (speed/coverage trade-off).
PREFIX = 300


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(boundaries=st.lists(st.integers(min_value=0, max_value=PREFIX),
                           max_size=5, unique=True).map(sorted))
def test_random_checkpoint_interleavings_agree(small_split, boundaries):
    """Wherever checkpoints land in the update stream, both SUTs hold
    the same canonical state at every one of them."""
    store = StoreSUT.for_network(small_split.bulk)
    engine = EngineSUT.for_network(small_split.bulk)
    cursor = 0
    for boundary in list(boundaries) + [PREFIX]:
        for op in small_split.updates[cursor:boundary]:
            store.execute(Update(op))
            engine.execute(Update(op))
        cursor = max(cursor, boundary)
        left = store.snapshot()
        right = engine.snapshot()
        assert snapshot_digest(left) == snapshot_digest(right), \
            "\n".join(d.describe("store", "engine")
                      for d in diff_snapshots(left, right))


@pytest.mark.parametrize("num_partitions", [1, 2, 3, 5])
def test_partitioned_replay_converges(small_split, num_partitions):
    """Replaying the partitioned stream round-robin (a different total
    order per partition count, preserving per-partition order like the
    driver does) reaches the same final state as stream order — the
    insert-only workload commutes across partitions."""
    reference = StoreSUT.for_network(small_split.bulk)
    prefix = small_split.updates[:PREFIX]
    for op in prefix:
        reference.execute(Update(op))
    expected = reference.digest()

    partitions = [list(p)
                  for p in partition_updates(prefix, num_partitions)]
    store = StoreSUT.for_network(small_split.bulk)
    engine = EngineSUT.for_network(small_split.bulk)
    cursors = [0] * len(partitions)
    remaining = len(prefix)
    while remaining:
        for index, partition in enumerate(partitions):
            if cursors[index] < len(partition):
                op = Update(partition[cursors[index]])
                store.execute(op)
                engine.execute(op)
                cursors[index] += 1
                remaining -= 1
    assert store.digest() == expected
    assert engine.digest() == expected


def test_seed_stability_of_state_digest():
    """The canonical state digest is a pure function of the datagen
    seed: same seed → same digest, different seed → different digest."""
    def digest_for(seed: int) -> str:
        network = generate(DatagenConfig(num_persons=30, seed=seed))
        return StoreSUT.for_network(network).digest()

    assert digest_for(5) == digest_for(5)
    assert digest_for(5) != digest_for(6)
