"""Crash tolerance of the sharded store: WAL, 2PC log, supervision.

The contract under test: an *acknowledged* update survives ``kill -9``
of its worker — never lost, never double-applied — because the worker
WALs before it acks, the respawned incarnation replays before it
serves, and in-doubt 2PC stages resolve by the coordinator's logged
decision.  Every recovery test judges by the same oracle as the rest
of the repo: byte-identical state digest against a single-process
fault-free run.
"""

from __future__ import annotations

import shutil
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.operation import Update
from repro.core.sut import StoreSUT
from repro.datagen.update_stream import UpdateKind, UpdateOperation
from repro.driver.resilience import default_is_transient
from repro.errors import ShardConnectionError, ShardError, \
    ShardRecoveringError, TransientError
from repro.faults import FaultPlan
from repro.ids import serial_of
from repro.queries.updates import executor_for
from repro.schema.entities import Knows
from repro.shard import ShardedStoreSUT, ShardFaultPlan, owner_of
from repro.shard.router import ShardRouter, _WriteRecorder
from repro.shard.routing import ShardWrites, partition_writes
from repro.shard.supervisor import RESTART_COUNTER
from repro.shard.txlog import CoordinatorLog
from repro.store.graph import GraphStore
from repro.store.wal import (
    TORN_RECORD_COUNTER,
    ShardWAL,
    read_records,
    read_shard_log,
    replay_shard_log,
)
from repro.validation import run_chaos

#: Updates replayed per recovery scenario (speed/coverage trade-off).
PREFIX = 60

#: Updates of the replay-cost scenario (274 of them span both shards).
REPLAY_PREFIX = 400


def _single_digest(split, prefix: int) -> str:
    sut = StoreSUT.for_network(split.bulk)
    for op in split.updates[:prefix]:
        sut.execute(Update(op))
    return sut.digest()


def _cross_shard_friendship(split) -> UpdateOperation:
    """A friendship whose endpoints live on different shards (2PC)."""
    existing = {(min(k.person1_id, k.person2_id),
                 max(k.person1_id, k.person2_id))
                for k in split.bulk.knows}
    even = [p.id for p in split.bulk.persons
            if serial_of(p.id) % 2 == 0]
    odd = [p.id for p in split.bulk.persons
           if serial_of(p.id) % 2 == 1]
    pair = next((a, b) for a in even for b in odd
                if (min(a, b), max(a, b)) not in existing)
    assert owner_of(pair[0], 2) != owner_of(pair[1], 2)
    return UpdateOperation(
        kind=UpdateKind.ADD_FRIENDSHIP, due_time=1_500_000_000_000,
        depends_on_time=0,
        payload=Knows(person1_id=pair[0], person2_id=pair[1],
                      creation_date=1_500_000_000_000))


def _shard_writes(op: UpdateOperation,
                  num_shards: int) -> dict[int, ShardWrites]:
    """The non-empty per-shard slices the router sends for ``op``."""
    recorder = _WriteRecorder()
    executor_for(op.kind)(recorder, op.payload)
    per_shard = partition_writes(recorder.new_vertices,
                                 recorder.new_edges, num_shards)
    return {shard: writes for shard, writes in per_shard.items()
            if writes}


def _worker_requests(sut) -> list[int]:
    """Per-shard request counts (each includes the ``stats`` call that
    reads it)."""
    return [worker["requests"] for worker in sut.router.stats()["shards"]]


def _coordinator_commits(sut) -> int:
    return sum(1 for record in read_records(sut.router.txlog.path,
                                            ("act", "op"))
               if record["act"] == "commit")


@pytest.fixture()
def wal_dir():
    path = tempfile.mkdtemp(prefix="repro-recovery-wal-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# the WAL substrate: torn tails
# ---------------------------------------------------------------------------

def test_torn_tail_is_skipped_counted_and_truncated(tmp_path):
    """A crash mid-append loses exactly the unacked torn record: the
    reader skips and counts it, and reopening for append truncates it
    so the next record never welds onto the fragment."""
    path = str(tmp_path / "shard-0.wal")
    wal = ShardWAL(path)
    wal.log_apply(("vertex", 7), [("person", 7, {"firstName": "A"})], [])
    wal.tear("apply", ("vertex", 8), [("person", 8, {"firstName": "B"})],
             [])
    wal.close()

    before = telemetry.counter(TORN_RECORD_COUNTER).value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = read_shard_log(path)
    assert [r["op"] for r in records] == [["vertex", 7]]
    assert telemetry.counter(TORN_RECORD_COUNTER).value == before + 1
    assert any("torn" in str(w.message) for w in caught)

    # Reopening truncates the fragment before appending — the new
    # record must parse cleanly instead of corrupting mid-file.
    wal = ShardWAL(path)
    wal.log_apply(("vertex", 9), [("person", 9, {"firstName": "C"})], [])
    wal.close()
    assert [r["op"] for r in read_shard_log(path)] == [["vertex", 7],
                                                      ["vertex", 9]]

    store = GraphStore()
    staged = replay_shard_log(store, read_shard_log(path))
    assert store.applied_count == 2 and not staged
    assert not store.validate_shard_writes(("vertex", 9), ())


# ---------------------------------------------------------------------------
# the coordinator log: decisions survive and recover
# ---------------------------------------------------------------------------

def test_coordinator_log_round_trips_decisions(tmp_path):
    path = str(tmp_path / "coordinator.log")
    log = CoordinatorLog(path)
    a, b, c = ("knows", 1, 2), ("knows", 3, 4), ("likes", 5, 6)
    log.log_begin(a, [0, 1])
    log.log_commit(a)
    log.log_begin(b, [0, 1])
    log.log_abort(b)
    log.log_begin(c, [0, 1])  # in doubt: begun, never decided
    log.close()

    recovered = CoordinatorLog(path)
    assert recovered.decision(a) == "commit"
    assert recovered.decision(b) == "abort"
    assert recovered.decision(c) is None
    assert c in recovered.in_doubt()
    recovered.close()


# ---------------------------------------------------------------------------
# supervised recovery (the tentpole contract)
# ---------------------------------------------------------------------------

def test_sigkill_recovery_preserves_acked_updates(small_split, wal_dir):
    """kill -9 both workers mid-stream; the digest still matches the
    fault-free single-process run — no acked update lost, none
    double-applied by replay."""
    expected = _single_digest(small_split, PREFIX)
    restarts_before = telemetry.counter(RESTART_COUNTER).value
    sut = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                      wal_dir=wal_dir)
    try:
        for op in small_split.updates[:PREFIX // 2]:
            sut.execute(Update(op))
        for handle in sut.router.handles:
            handle.process.kill()
            handle.process.join(timeout=5.0)
        for op in small_split.updates[PREFIX // 2:PREFIX]:
            sut.execute(Update(op))
        assert sut.digest() == expected
        stats = sut.router.stats()
        assert stats["supervisor"]["restarts"] == 2
        assert stats["supervisor"]["recovery_p50_ms"] > 0
        assert sum(w.get("recovered_ops", 0)
                   for w in stats["shards"]) > 0
        assert telemetry.counter(RESTART_COUNTER).value \
            >= restarts_before + 2
    finally:
        sut.close()


def test_kill_between_prepare_and_commit_rolls_forward(small_split,
                                                       wal_dir):
    """The in-doubt window: a worker that acks the 2PC prepare and dies
    before the commit RPC must roll *forward* on recovery, because the
    coordinator logged commit — that append is the commit point."""
    op = _cross_shard_friendship(small_split)
    single = StoreSUT.for_network(small_split.bulk)
    single.execute(Update(op))
    expected = single.digest()

    sut = ShardedStoreSUT.for_network(
        small_split.bulk, 2, wal_dir=wal_dir,
        faults=ShardFaultPlan(kill_after_prepare=1.0, seed=3))
    try:
        sut.execute(Update(op))
        assert sut.router._multi_shard_updates == 1
        assert sut.digest() == expected
        stats = sut.router.stats()
        assert stats["supervisor"]["restarts"] >= 1
        rolled_forward = sum(w.get("resolved", {}).get("commit", 0)
                             for w in stats["shards"])
        assert rolled_forward >= 1, \
            "no in-doubt stage was rolled forward by the supervisor"
        assert stats["coordinator"]["committed"] >= 1
    finally:
        sut.close()


def test_cold_restart_replays_wal_directory(small_split, wal_dir):
    """Spawning into a directory holding prior WALs is a cold restart:
    the replayed state must match where the previous incarnation left
    off (including a decided-but-unresolved 2PC stage)."""
    expected = _single_digest(small_split, PREFIX)
    sut = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                      wal_dir=wal_dir)
    try:
        for op in small_split.updates[:PREFIX]:
            sut.execute(Update(op))
    finally:
        sut.close()

    revived = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                          wal_dir=wal_dir)
    try:
        assert revived.digest() == expected
        stats = revived.router.stats()
        assert sum(w.get("recovered_ops", 0)
                   for w in stats["shards"]) > 0
    finally:
        revived.close()


def test_restart_budget_exhaustion_is_fatal_with_payload(small_split,
                                                         wal_dir):
    """max_restarts=0 is the recovery-disabled canary: the first kill
    must surface the original fatal taxonomy, carrying the structured
    payload (shard index, update key, pending count)."""
    sut = ShardedStoreSUT.for_network(
        small_split.bulk, 2, wal_dir=wal_dir, max_restarts=0,
        faults=ShardFaultPlan(kill_rate=1.0, seed=1))
    try:
        with pytest.raises(ShardConnectionError) as caught:
            for op in small_split.updates[:PREFIX]:
                sut.execute(Update(op))
        exc = caught.value
        assert exc.shard_index in (0, 1)
        keys = {op.natural_key for op in small_split.updates[:PREFIX]}
        assert exc.key in keys
        assert exc.pending >= 0
        assert f"[shard={exc.shard_index}" in str(exc)
        assert f"key={exc.key}" in str(exc)
        assert "exhausted" in str(exc)
        assert not default_is_transient(exc), \
            "budget exhaustion must be fatal, not retried forever"
    finally:
        sut.close()


def test_crash_faults_without_wal_dir_refuse_to_spawn(small_split):
    """Killing a WAL-less worker would genuinely lose acked state, so
    the router refuses the configuration outright."""
    with pytest.raises(ShardError, match="WAL"):
        ShardRouter.spawn(small_split.bulk, 2,
                          faults=ShardFaultPlan(kill_rate=0.5))


def test_recovering_error_is_transient():
    exc = ShardRecoveringError("shard 1 recovery in progress",
                               shard_index=1)
    assert isinstance(exc, TransientError)
    assert default_is_transient(exc)
    assert exc.shard_index == 1


def test_update_keys_round_trip_through_both_logs(small_split, tmp_path):
    """Shard WALs and the coordinator log store the natural key as a
    JSON list; every update kind's key must read back as an equal
    tuple, or recovery could not match a logged write to its replay."""
    ops = {}
    for op in small_split.updates:
        ops.setdefault(op.kind, op)
    assert set(ops) == set(UpdateKind)
    keys = [op.natural_key for op in ops.values()]

    wal_path = str(tmp_path / "shard-0.wal")
    wal = ShardWAL(wal_path)
    for key in keys:
        wal.log_prepare(key, [], [])
        wal.log_mark(key, "commit")
    wal.close()
    assert [tuple(r["op"]) for r in read_shard_log(wal_path)] == \
        [key for key in keys for __ in range(2)]
    store = GraphStore()
    assert replay_shard_log(store, read_shard_log(wal_path)) == {}
    assert store.applied_count == len(keys)
    assert not any(store.validate_shard_writes(key, ()) for key in keys)

    log_path = str(tmp_path / "coordinator.log")
    log = CoordinatorLog(log_path)
    for key in keys:
        log.log_begin(key, [0, 1])
        log.log_commit(key)
    log.close()
    recovered = CoordinatorLog(log_path)
    assert all(recovered.decision(key) == "commit" for key in keys)
    assert recovered.in_doubt() == []
    recovered.close()


# ---------------------------------------------------------------------------
# replay cost: a replayed update asks each involved shard once
# ---------------------------------------------------------------------------

def test_full_replay_costs_one_call_per_involved_shard(small_split,
                                                       wal_dir):
    """Replaying a whole stream sends each update one RPC per involved
    shard — an ``apply`` or a ``prepare`` answered "replayed" /
    "already-applied" — logs no coordinator commit, and leaves WALs a
    cold restart reads back to the single-store state."""
    ops = small_split.updates[:REPLAY_PREFIX]
    expected = _single_digest(small_split, REPLAY_PREFIX)
    involved = sum(len(_shard_writes(op, 2)) for op in ops)
    sut = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                      wal_dir=wal_dir)
    try:
        for op in ops:
            sut.execute(Update(op))
        requests, commits = _worker_requests(sut), _coordinator_commits(sut)
        assert commits == sut.router._multi_shard_updates > 0
        for op in ops:
            sut.execute(Update(op))
        # Each worker also answered one more ``stats`` call.
        replay_calls = sum(_worker_requests(sut)) - sum(requests) - 2
        assert replay_calls == involved
        assert _coordinator_commits(sut) == commits
        assert sut.router.stats()["replays"] == len(ops)
        assert sut.digest() == expected
    finally:
        sut.close()

    revived = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                          wal_dir=wal_dir)
    try:
        assert revived.digest() == expected
    finally:
        revived.close()


def test_partial_replay_still_commits_the_prepared_shard(small_split,
                                                         wal_dir):
    """A cross-shard update one shard already applied is no replay: the
    other shard prepares, the coordinator logs commit, and only the
    prepared shard gets the commit."""
    op = _cross_shard_friendship(small_split)
    single = StoreSUT.for_network(small_split.bulk)
    single.execute(Update(op))
    per_shard = _shard_writes(op, 2)
    assert sorted(per_shard) == [0, 1]

    sut = ShardedStoreSUT.for_network(small_split.bulk, 2,
                                      wal_dir=wal_dir)
    try:
        writes = per_shard[0]
        assert sut.router.call(0, "apply", op.natural_key,
                               writes.vertices, writes.halves) == "applied"
        before = _worker_requests(sut)
        sut.execute(Update(op))
        after = _worker_requests(sut)
        # Shard 0: one prepare (already applied).  Shard 1: prepare
        # and commit.  Each also answered one more ``stats`` call.
        assert [a - b - 1 for a, b in zip(after, before)] == [1, 2]
        assert _coordinator_commits(sut) == 1
        assert sut.router.stats()["replays"] == 0
        assert sut.digest() == single.digest()
    finally:
        sut.close()


# ---------------------------------------------------------------------------
# property: ANY kill point converges to the fault-free digest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_shards", [2, 4])
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kill_after=st.integers(min_value=0, max_value=PREFIX - 1),
       victim=st.integers(min_value=0, max_value=3))
def test_random_kill_points_recover_to_clean_digest(small_split,
                                                    num_shards,
                                                    kill_after, victim):
    """Wherever in the stream a worker is killed, and whichever worker
    it is, the supervised run ends byte-identical to the fault-free
    single-process run."""
    expected = _single_digest(small_split, PREFIX)
    wal_dir = tempfile.mkdtemp(prefix="repro-killpoint-wal-")
    sut = ShardedStoreSUT.for_network(small_split.bulk, num_shards,
                                      wal_dir=wal_dir)
    try:
        for index, op in enumerate(small_split.updates[:PREFIX]):
            sut.execute(Update(op))
            if index == kill_after:
                handle = sut.router.handles[victim % num_shards]
                handle.process.kill()
                handle.process.join(timeout=5.0)
        assert sut.digest() == expected, \
            f"digest diverged after killing shard " \
            f"{victim % num_shards} at update {kill_after}"
        assert sut.router.stats()["supervisor"]["restarts"] == 1
    finally:
        sut.close()
        shutil.rmtree(wal_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the chaos soak, in-test (the CI gate runs the CLI twin of these)
# ---------------------------------------------------------------------------

def test_crash_chaos_soak_converges(small_split, wal_dir):
    report = run_chaos(
        small_split, "store", FaultPlan(), seed=0, num_partitions=2,
        shards=2,
        shard_faults=ShardFaultPlan(kill_rate=0.01,
                                    kill_after_prepare=0.02,
                                    torn_wal_rate=0.005, seed=5),
        shard_wal_dir=wal_dir, shard_max_restarts=256)
    assert report.failure is None, report.failure
    crash_kinds = {"kill", "kill_prepare", "torn"}
    fired = {kind: count
             for kind, count in report.injected_shard_faults.items()
             if kind in crash_kinds and count}
    assert fired, "no crash fault actually fired — the soak is a no-op"
    assert report.worker_restarts > 0
    assert report.digests_match, \
        f"clean {report.clean_digest} != chaos {report.chaos_digest}"
    assert report.ok


def test_crash_chaos_soak_with_recovery_disabled_fails(small_split,
                                                       wal_dir):
    """The same soak minus the supervisor budget must FAIL — a chaos
    harness that cannot fail proves nothing."""
    report = run_chaos(
        small_split, "store", FaultPlan(), seed=0, num_partitions=2,
        shards=2,
        shard_faults=ShardFaultPlan(kill_rate=0.01,
                                    kill_after_prepare=0.02,
                                    torn_wal_rate=0.005, seed=5),
        shard_wal_dir=wal_dir, shard_max_restarts=0)
    assert report.failure is not None
    assert "ShardConnectionError" in report.failure
    assert "exhausted" in report.failure
    assert not report.ok
