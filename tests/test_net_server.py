"""The wire server and remote connector: loopback behavior tests.

Every test starts a real :class:`ReproServer` on an ephemeral loopback
port and talks to it through :class:`RemoteConnector` — the codec,
framing, channel pool, connection threads, and error mapping are all
exercised end to end, just very small.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest

from repro.core.connector import ConnectorProtocol
from repro.core.operation import (
    OperationResult,
    ShortRead,
    Update,
)
from repro.core.sut import StoreSUT
from repro.errors import (
    FatalSUTError,
    OperationTimeoutError,
    TransientError,
    WriteConflictError,
)
from repro.net import (
    RemoteConnector,
    RemoteFatalError,
    RemoteTransientError,
    ReproServer,
    ServerBusyError,
    ServerConfig,
)
from repro.store import load_network
from repro.workload.operations import EntityRef


class ScriptedSUT:
    """A SUT double: counts executions, fails or stalls on demand."""

    name = "scripted"

    def __init__(self) -> None:
        self.executed: list = []
        #: Name of the server thread that ran each execution.
        self.threads: list[str] = []
        self.lock = threading.Lock()
        self.delay = 0.0
        self.raising: BaseException | None = None

    def execute(self, op) -> OperationResult:
        self.threads.append(threading.current_thread().name)
        if self.delay:
            time.sleep(self.delay)
        if self.raising is not None:
            raise self.raising
        with self.lock:
            self.executed.append(op)
        return OperationResult(op.op_class, value=len(self.executed))


@pytest.fixture()
def server_client():
    """A started server over a ScriptedSUT plus a connected client."""
    opened = []

    def factory(sut=None, config=None, **client_kwargs):
        sut = sut or ScriptedSUT()
        server = ReproServer(sut, config or ServerConfig())
        host, port = server.start()
        client = RemoteConnector(host, port, timeout=10.0,
                                 **client_kwargs)
        opened.append((server, client))
        return server, client, sut

    yield factory
    for server, client in opened:
        client.close()
        server.shutdown()


SHORT = ShortRead(1, EntityRef.person(7))


def test_execute_round_trip_and_ping(server_client):
    server, client, sut = server_client()
    result = client.execute(SHORT)
    assert isinstance(result, OperationResult)
    assert result.op_class == "S1" and result.value == 1
    assert sut.executed == [SHORT]
    info = client.ping()
    assert info["sut"] == "scripted"
    assert "scripted" in client.name


def test_sut_runs_on_the_connection_thread(server_client):
    before = set(threading.enumerate())
    server, client, sut = server_client()
    client.execute(SHORT)
    client.execute(SHORT)
    assert all(name.startswith("repro-net-conn-") for name in sut.threads)
    # The one connection's thread ran both, and the server started no
    # thread but it and the acceptor.
    (connection,) = server._connections
    assert sut.threads == [connection.thread.name] * 2
    started = {t.name for t in threading.enumerate() if t not in before}
    assert started == {"repro-net-accept", connection.thread.name}


def test_connector_protocol_conformance(server_client):
    __, client, __ = server_client()
    assert isinstance(client, ConnectorProtocol)


def _hammer(client, threads: int, ops: int):
    """``threads`` callers run ``ops`` short reads each, all starting
    together; returns the errors they raised."""
    errors = []
    start = threading.Barrier(threads)

    def caller(worker: int) -> None:
        start.wait()
        try:
            for i in range(ops):
                client.execute(ShortRead(3, EntityRef.person(
                    worker * 100 + i)))
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=caller, args=(w,))
               for w in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(30.0)
    assert not any(worker.is_alive() for worker in workers)
    return errors


def test_default_pool_opens_one_connection_per_concurrent_caller(
        server_client):
    server, client, sut = server_client()
    sut.delay = 0.2  # every caller is mid-request when the others dial
    assert _hammer(client, threads=4, ops=1) == []
    assert len(client._open) == 4
    assert len(server._connections) == 4


def test_concurrent_callers_multiplex_one_pool(server_client):
    server, client, sut = server_client(pool_size=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the pool's check-then-act
    try:
        assert _hammer(client, threads=4, ops=10) == []
    finally:
        sys.setswitchinterval(interval)
    assert len(sut.executed) == 40
    # The capped callers took turns on the one connection.
    assert len(client._open) == 1
    assert len(server._connections) == 1


# -- error taxonomy mapping ------------------------------------------------

def test_transient_error_maps_to_remote_transient(server_client):
    from repro.driver.resilience import default_is_transient

    __, client, sut = server_client()
    sut.raising = TransientError("deadlock victim")
    with pytest.raises(RemoteTransientError, match="deadlock victim"):
        client.execute(SHORT)
    assert default_is_transient(RemoteTransientError("x"))


def test_fatal_and_unclassified_map_to_remote_fatal(server_client):
    from repro.driver.resilience import default_is_transient

    __, client, sut = server_client()
    sut.raising = FatalSUTError("corrupt page")
    with pytest.raises(RemoteFatalError, match="corrupt page"):
        client.execute(SHORT)
    sut.raising = ValueError("surprise")
    with pytest.raises(RemoteFatalError, match="surprise"):
        client.execute(SHORT)
    assert not default_is_transient(RemoteFatalError("x"))


def test_wire_timeout_maps_to_operation_timeout(server_client):
    __, client, sut = server_client()
    client.timeout = 0.15
    sut.delay = 1.0
    started = time.perf_counter()
    with pytest.raises(OperationTimeoutError):
        client.execute(SHORT)
    assert time.perf_counter() - started < 0.9
    # The late response is dropped, and the connection stays usable.
    sut.delay = 0.0
    client.timeout = 10.0
    assert client.execute(SHORT).op_class == "S1"
    assert len(client._open) == 1
    # The timed-out attempt still completes server-side eventually.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and len(sut.executed) < 2:
        time.sleep(0.02)
    assert len(sut.executed) == 2


def test_connection_loss_maps_to_connection_error(server_client):
    server, client, __ = server_client(connect_timeout=0.5)
    assert client.execute(SHORT).value == 1
    server.shutdown()
    with pytest.raises(ConnectionError):
        for __ in range(3):  # first call may observe the close lazily
            client.execute(SHORT)
    # Wire loss is retryable under the resilience policy.
    from repro.driver.resilience import default_is_transient
    assert default_is_transient(ConnectionError("peer gone"))


def test_dead_connection_is_dropped_from_the_pool(server_client):
    server, client, __ = server_client()
    client.execute(SHORT)
    (channel,) = client._open
    for connection in list(server._connections):
        connection.close()  # the server hangs up on the client
    with pytest.raises(ConnectionError):
        client.execute(SHORT)
    assert channel.dead is not None
    assert channel not in client._open and client._idle == []
    # The next call dials afresh.
    assert client.execute(SHORT).op_class == "S1"
    assert len(client._open) == 1


def test_close_wakes_a_caller_blocked_on_the_wire(server_client):
    __, client, sut = server_client()
    sut.delay = 2.0
    outcome = []
    thread = threading.Thread(
        target=lambda: _swallow(lambda: client.execute(SHORT), outcome))
    thread.start()
    time.sleep(0.1)  # the request is on the wire
    started = time.monotonic()
    client.close()
    thread.join(5.0)
    assert time.monotonic() - started < 1.0
    assert isinstance(outcome[0], ConnectionError)


def test_slow_op_outlives_the_connect_timeout(server_client):
    # The dial timeout must not linger as the socket's read timeout:
    # a 0.5 s operation inside a 10 s request budget succeeds.
    __, client, sut = server_client(connect_timeout=0.2)
    sut.delay = 0.5
    assert client.execute(SHORT).op_class == "S1"


def test_idle_connection_outlives_the_connect_timeout(server_client):
    server, client, __ = server_client(connect_timeout=0.2)
    client.execute(SHORT)
    connections = list(server._connections)
    time.sleep(0.4)
    client.execute(SHORT)
    # The same socket served both calls: it was never dropped and
    # re-dialed in between.
    assert server._connections == connections


# -- backpressure ----------------------------------------------------------

def test_backpressure_rejects_busy_with_retry_hint(server_client):
    server, client, sut = server_client(
        config=ServerConfig(workers=1, retry_after=0.123))
    sut.delay = 0.3
    # Eight concurrent callers, eight connections: one executes, the
    # rest are turned away.
    errors = _hammer(client, threads=8, ops=1)
    busy = [e for e in errors if isinstance(e, ServerBusyError)]
    assert busy and len(busy) == len(errors)
    assert busy[0].retry_after == pytest.approx(0.123)
    assert server.stats()["rejected_busy"] >= 1
    # Busy is transient: the resilience policy will back off and retry.
    assert isinstance(busy[0], TransientError)


# -- exactly-once updates: the SUT's, not the server's -------------------

class CommitHook:
    """A store ``fault_injector`` that stalls or fails every commit on
    demand (inside the commit lock, before the replay check)."""

    def __init__(self) -> None:
        self.delay = 0.0
        self.raising: BaseException | None = None

    def before_commit(self, txn) -> None:
        if self.delay:
            time.sleep(self.delay)
        if self.raising is not None:
            raise self.raising


@pytest.fixture()
def store_server(server_client, split):
    """A server over a real StoreSUT (bulk part of the split) whose
    commits a :class:`CommitHook` can stall or fail."""
    store = load_network(split.bulk)
    hook = store.fault_injector = CommitHook()
    server, client, __ = server_client(sut=StoreSUT(store))
    return server, client, store, hook


def test_update_retry_is_deduplicated(store_server, split):
    __, client, store, __ = store_server
    operation = split.updates[0]
    client.execute(Update(operation))
    once = client.digest()
    # A retry of the same stream item (fresh Update wrapper, same
    # inner operation) executes again, and the store answers it as a
    # replay: one commit, one replay, the single-apply state.
    assert client.execute(Update(operation)).value is None
    assert (store.commit_count, store.replay_count) == (1, 1)
    assert client.digest() == once
    # A different stream item applies normally.
    client.execute(Update(split.updates[1]))
    assert (store.commit_count, store.replay_count) == (2, 1)


def test_transient_update_failure_is_not_replayed_to_retry(
        store_server, split):
    # A transient failure (a write conflict) means the update never
    # applied: the key is not recorded, and the retry applies it.
    __, client, store, hook = store_server
    operation = split.updates[0]
    hook.raising = WriteConflictError("write conflict")
    with pytest.raises(RemoteTransientError, match="write conflict"):
        client.execute(Update(operation))
    hook.raising = None
    assert client.execute(Update(operation)).value is None
    assert (store.commit_count, store.replay_count) == (1, 0)


def test_fatal_update_outcome_is_replayed_to_retry(store_server, split):
    __, client, store, hook = store_server
    operation = split.updates[0]
    hook.raising = FatalSUTError("corrupt page")
    # Every retry hears the fatal outcome, and nothing is applied.
    for __ in range(2):
        with pytest.raises(RemoteFatalError, match="corrupt page"):
            client.execute(Update(operation))
    assert (store.commit_count, store.replay_count) == (0, 0)


@pytest.mark.parametrize("conflict", [True, False],
                         ids=["transient", "success"])
def test_concurrent_duplicates_recover_from_transient_failure(
        store_server, split, conflict):
    # Two racing attempts at one stream item, on two connections, meet
    # at the store's commit lock.  After a success the second is a
    # replay; a conflict reaches both, and a later retry must still be
    # able to apply the update.
    __, client, store, hook = store_server
    hook.delay = 0.2
    hook.raising = WriteConflictError("conflict") if conflict else None
    operation = split.updates[0]
    outcomes = []

    def attempt() -> None:
        try:
            outcomes.append(client.execute(Update(operation)))
        except BaseException as exc:
            outcomes.append(exc)

    threads = [threading.Thread(target=attempt) for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert len(client._open) == 2
    if not conflict:
        assert all(isinstance(o, OperationResult) for o in outcomes)
        assert (store.commit_count, store.replay_count) == (1, 1)
        return
    assert all(isinstance(o, RemoteTransientError) for o in outcomes)
    hook.delay = 0.0
    hook.raising = None
    assert client.execute(Update(operation)).value is None
    assert (store.commit_count, store.replay_count) == (1, 0)


def test_racing_duplicates_execute_each_update_once(store_server, split):
    # Eight connections send the same twenty updates in different
    # orders, with thread switches forced often: the store must apply
    # each once and answer the other seven copies as replays.
    import random

    __, client, store, hook = store_server
    hook.delay = 0.001  # commits overlap the other copies' requests
    updates = split.updates[:20]
    reference = StoreSUT(load_network(split.bulk))
    for operation in updates:
        reference.execute(Update(operation))
    answers: dict[int, set] = {i: set() for i in range(len(updates))}
    errors = []
    start = threading.Barrier(8)

    def caller(seed: int) -> None:
        order = list(range(len(updates)))
        random.Random(seed).shuffle(order)
        start.wait()
        try:
            for i in order:
                answers[i].add(client.execute(Update(updates[i])).value)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(values == {None} for values in answers.values())
    assert store.commit_count == len(updates)
    assert store.replay_count == 7 * len(updates)
    assert client.digest() == reference.digest()


def test_reads_are_not_deduplicated(server_client):
    __, client, sut = server_client()
    client.execute(SHORT)
    client.execute(SHORT)
    assert len(sut.executed) == 2


# -- update keys -----------------------------------------------------------

def test_natural_keys_are_stable_and_never_alias(split):
    first = split.updates[0]
    assert dataclasses.replace(first).natural_key == first.natural_key
    keys = {op.natural_key for op in split.updates}
    assert len(keys) == len(split.updates)


# -- admin actions ---------------------------------------------------------

def test_digest_action_requires_configuration(server_client):
    __, client, __ = server_client()
    with pytest.raises(RemoteFatalError, match="digest"):
        client.digest()


def test_digest_action_returns_configured_digest():
    sut = ScriptedSUT()
    sut.digest = lambda: "sha256:abc"
    server = ReproServer(sut, ServerConfig())
    host, port = server.start()
    client = RemoteConnector(host, port, timeout=10.0)
    try:
        assert client.digest() == "sha256:abc"
    finally:
        client.close()
        server.shutdown()


def test_unknown_request_kinds_are_fatal(server_client):
    __, client, __ = server_client()
    with pytest.raises(RemoteFatalError, match="unknown request kind"):
        client._round_trip({"v": 1, "kind": "exec"})
    with pytest.raises(RemoteFatalError, match="unknown admin action"):
        client._admin("reboot")


# -- graceful drain (the SIGTERM path) -------------------------------------

def test_drain_completes_inflight_work(server_client):
    """A drain started while a request is executing must let it finish
    and deliver its response — the client sees a result, never a reset
    socket — before the server fully stops."""
    server, client, sut = server_client()
    sut.delay = 0.15
    outcome: dict = {}

    def call() -> None:
        try:
            outcome["result"] = client.execute(SHORT)
        except BaseException as exc:  # pragma: no cover - failure path
            outcome["error"] = exc

    thread = threading.Thread(target=call)
    thread.start()
    time.sleep(0.05)  # let the request reach a worker
    assert server.drain(timeout=5.0) is True
    thread.join(timeout=5.0)
    assert "error" not in outcome, outcome.get("error")
    assert outcome["result"].value == 1
    assert sut.executed == [SHORT]


def test_drain_closes_idle_connections(server_client):
    """A connected client with nothing in flight does not hold the
    drain up: its thread sees EOF and exits before drain returns."""
    server, client, __ = server_client()
    idle = RemoteConnector(client.host, client.port, timeout=10.0)
    try:
        client.execute(SHORT)
        idle.execute(SHORT)  # dialed, answered, now idle
        threads = [c.thread for c in server._connections]
        assert len(threads) == 2
        assert server.drain(timeout=5.0) is True
        assert not any(thread.is_alive() for thread in threads)
    finally:
        idle.close()


def test_drain_refuses_new_connections(server_client):
    import socket

    server, client, __ = server_client()
    host, port = client.host, client.port
    assert server.drain(timeout=1.0) is True
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=1.0).close()


def test_drain_times_out_on_wedged_work(server_client):
    """Work that outlives the deadline: drain returns False (the CLI
    reports 'drain timed out') but still shuts the server down."""
    server, client, sut = server_client()
    sut.delay = 1.0
    thread = threading.Thread(
        target=lambda: _swallow(lambda: client.execute(SHORT)))
    thread.start()
    time.sleep(0.05)
    assert server.drain(timeout=0.05) is False
    thread.join(timeout=10.0)
    assert server._shutdown.is_set()


def test_drain_idempotent_on_idle_server(server_client):
    server, __, __ = server_client()
    assert server.drain(timeout=1.0) is True
    assert server.drain(timeout=1.0) is True  # post-shutdown: no hang


def test_drain_timeout_defaults_to_config():
    sut = ScriptedSUT()
    server = ReproServer(sut, ServerConfig(drain_timeout=0.2))
    server.start()
    started = time.monotonic()
    assert server.drain() is True  # idle: returns well before 0.2s
    assert time.monotonic() - started < 0.2 + 1.0


def _swallow(fn, errors: list | None = None) -> None:
    try:
        fn()
    except BaseException as exc:
        if errors is not None:
            errors.append(exc)
