"""Chaos-soak coverage for the sharded path.

A fault-perturbed sharded run — worker aborts before any state change,
worker delays pushed past the router's RPC timeout — must converge to
the fault-free single-process digest with zero dependency timeouts:
the strongest exactly-once statement the harness can make about the
cross-shard commit protocol.  The shard-router mutation canary then
proves the oracles would actually notice a routing bug: with a shard
dropped from every scatter-gather, digests and golden-style reads must
FAIL, and must recover the moment the canary lifts.
"""

from __future__ import annotations

import pytest

from repro.core.operation import Update
from repro.core.sut import StoreSUT
from repro.errors import FatalSUTError, TransientError
from repro.faults import FaultPlan
from repro.shard import ShardedStoreSUT, ShardFaultPlan
from repro.validation import run_chaos, run_differential
from repro.validation.canary import canary_bug


def test_worker_abort_soak_converges(small_split):
    """Injected worker aborts (pre-apply) retry to the clean digest."""
    report = run_chaos(
        small_split, "store", FaultPlan(), seed=0, num_partitions=2,
        shards=2, shard_faults=ShardFaultPlan(abort_rate=0.05))
    assert report.failure is None
    assert report.injected_shard_faults.get("abort", 0) > 0, \
        "the worker fault injector never fired — the soak proved nothing"
    assert report.digests_match, \
        f"clean {report.clean_digest} != chaos {report.chaos_digest}"
    assert report.ok


def test_router_timeout_soak_converges(small_split):
    """Delays pushed past the router RPC timeout surface as transient
    timeouts; the retry must replay against the shard store's applied
    keys (the delayed apply still lands), never double-applying."""
    report = run_chaos(
        small_split, "store", FaultPlan(), seed=0, num_partitions=2,
        shards=2,
        shard_faults=ShardFaultPlan(delay_rate=0.01,
                                    delay_seconds=0.3),
        shard_timeout=0.1)
    assert report.failure is None
    assert report.injected_shard_faults.get("delay", 0) > 0
    assert report.driver is not None and report.driver.retries > 0, \
        "no retries — the delays never actually hit the timeout"
    assert report.digests_match
    assert report.ok


def test_client_and_worker_faults_compose(small_split):
    """Client-side chaos (PR-4 injector) and worker-side shard faults
    perturb the same run and still converge."""
    report = run_chaos(
        small_split, "store", FaultPlan.uniform(abort=0.05), seed=0,
        num_partitions=2, shards=2,
        shard_faults=ShardFaultPlan(abort_rate=0.03))
    assert report.ok
    assert report.injected.get("abort", 0) > 0
    assert report.injected_shard_faults.get("abort", 0) > 0


def test_killed_worker_surfaces_fatal(small_split):
    """A dead worker is a broken SUT, not a retry loop: the dead pipe
    maps to ShardConnectionError (fatal), never TransientError."""
    sut = ShardedStoreSUT.for_network(small_split.bulk, 2)
    try:
        sut.router.handles[1].process.terminate()
        sut.router.handles[1].process.join(timeout=5.0)
        with pytest.raises(FatalSUTError):
            for op in small_split.updates[:50]:
                sut.execute(Update(op))
    finally:
        sut.close()


def test_injected_worker_abort_is_transient():
    from repro.shard import InjectedWorkerAbortError

    assert issubclass(InjectedWorkerAbortError, TransientError)


# ---------------------------------------------------------------------------
# the shard-router mutation canary
# ---------------------------------------------------------------------------

def test_shard_canary_breaks_digest_and_recovers(small_split):
    """With shard 0 dropped from scatter-gathers the merged snapshot
    loses that partition's rows; lifting the canary restores the exact
    digest — proving the drop hook cannot leak into real runs."""
    expected = StoreSUT.for_network(small_split.bulk).digest()
    sut = ShardedStoreSUT.for_network(small_split.bulk, 2)
    try:
        assert sut.digest() == expected
        with canary_bug("sharded"):
            assert sut.digest() != expected, \
                "CANARY NOT DETECTED — a dropped shard went unnoticed"
        assert sut.digest() == expected
    finally:
        sut.close()


def test_shard_canary_fails_golden_style_checks(small_split,
                                                small_params):
    """The full validation surface (interleaved reads + checkpoints,
    exactly what ``validate --check --sut sharded --canary`` replays)
    must FAIL under the canary — a green run here means the harness
    has gone blind to routing bugs."""
    with canary_bug("sharded"):
        report, bundle = run_differential(
            small_split, small_params, persons=60, seed=11,
            batch_size=300, snapshot_every=2, max_mismatches=3,
            right_factory=lambda bulk: ShardedStoreSUT.for_network(
                bulk, 2))
    assert not report.ok, "CANARY NOT DETECTED by the differential"
    assert bundle is not None  # replayable counterexample minted
