"""The full driver stack over the wire: loopback equivalence.

These tests run the real scheduler/resilience/chaos machinery against
a :class:`ReproServer` on loopback and hold it to the same oracle as
the in-process path: the final-state digest must be byte-identical.
They are the test-suite form of the CLI's ``repro serve`` +
``repro benchmark --remote`` quickstart.
"""

from __future__ import annotations

import pytest

from repro.core.benchmark import BenchmarkConfig, InteractiveBenchmark
from repro.core.operation import Update
from repro.core.sut import StoreSUT
from repro.driver import ExecutionMode, RetryPolicy
from repro.errors import OperationTimeoutError
from repro.faults import FaultPlan
from repro.net import RemoteConnector, ReproServer, ServerConfig
from repro.store import load_network
from repro.validation import run_chaos

from tests.conftest import SMALL_PERSONS, SMALL_SEED
from tests.test_net_server import CommitHook


@pytest.fixture()
def loopback_server(small_split):
    """A wire server over a store bulk-loaded with the small split."""
    server = ReproServer(StoreSUT(load_network(small_split.bulk)),
                         ServerConfig(workers=4))
    host, port = server.start()
    yield f"{host}:{port}"
    server.shutdown()


def small_benchmark_config(**overrides) -> BenchmarkConfig:
    """The small session network, few bindings: fast but complete.

    One partition: SEQUENTIAL mode orders operations only *within* a
    partition, so a single partition makes the whole run — including
    every complex-read result and hence every short-read walk —
    bit-for-bit deterministic, the strictest possible equality oracle.
    """
    return BenchmarkConfig(num_persons=SMALL_PERSONS, seed=SMALL_SEED,
                           sut="store", num_partitions=1,
                           bindings_per_query=2, **overrides)


def test_loopback_run_matches_in_process_digest(loopback_server):
    local = InteractiveBenchmark(small_benchmark_config())
    local_report = local.run()

    remote = InteractiveBenchmark(
        small_benchmark_config(remote=loopback_server))
    remote_report = remote.run()
    try:
        # The tentpole oracle: same stream, same bytes, either side of
        # the wire.
        assert remote.final_state_digest() == local.final_state_digest()
        assert remote_report.operations == local_report.operations
        assert remote_report.sut_name.startswith("remote(")
        assert "graph-store" in remote_report.sut_name
        # Short reads ran over the wire too (walks need read support).
        assert remote_report.short_reads == local_report.short_reads
        # Latency percentiles are measured, not zeroed, on the remote
        # path — the run report stays a full-disclosure report.
        assert any(s.count for s in remote_report.complex_stats.values())
        assert any(s.p99_ms > 0.0
                   for s in remote_report.complex_stats.values())
    finally:
        remote.sut.close()


def test_chaos_soak_converges_over_the_wire(small_split, loopback_server):
    plan = FaultPlan.uniform(abort=0.08, latency=0.04,
                             latency_seconds=0.0)
    policy = RetryPolicy(max_retries=8, base_backoff=0.0, max_backoff=0.0)
    report = run_chaos(small_split, "store", plan, seed=3,
                       policy=policy, num_partitions=2,
                       remote=loopback_server)
    assert report.ok, report.failure
    assert report.injected["abort"] > 0
    assert report.digests_match


def test_windowed_chaos_converges_over_the_wire(small_split,
                                                loopback_server):
    plan = FaultPlan.uniform(abort=0.05, latency=0.0)
    policy = RetryPolicy(max_retries=8, base_backoff=0.0, max_backoff=0.0)
    report = run_chaos(small_split, "store", plan, seed=3,
                       policy=policy, num_partitions=2,
                       mode=ExecutionMode.WINDOWED,
                       window_millis=60 * 60 * 1000,
                       remote=loopback_server)
    assert report.ok, report.failure


# -- exactly-once over the remote path -------------------------------------

def test_wire_timeout_retry_does_not_double_apply(small_split):
    """A timed-out update attempt plus its retry applies exactly once.

    The first attempt times out at the wire while the server is still
    executing it; the retry (a fresh ``Update`` wrapper around the
    same stream item, as built per attempt by the scheduler) executes
    after it, and the store answers it as a replay.
    """
    store = load_network(small_split.bulk)
    hook = store.fault_injector = CommitHook()
    server = ReproServer(StoreSUT(store), ServerConfig(workers=2))
    host, port = server.start()
    client = RemoteConnector(host, port, timeout=10.0)
    try:
        operation = small_split.updates[0]
        hook.delay = 0.6
        client.timeout = 0.1
        with pytest.raises(OperationTimeoutError):
            client.execute(Update(operation))
        hook.delay = 0.0
        client.timeout = 10.0
        assert client.execute(Update(operation)).value is None
        assert (store.commit_count, store.replay_count) == (1, 1)
    finally:
        client.close()
        server.shutdown()
