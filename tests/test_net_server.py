"""The wire server and remote connector: loopback behavior tests.

Every test starts a real :class:`ReproServer` on an ephemeral loopback
port and talks to it through :class:`RemoteConnector` — the codec,
framing, channel pool, worker pool, and error mapping are all
exercised end to end, just very small.
"""

from __future__ import annotations

import dataclasses
import queue
import sys
import threading
import time

import pytest

from repro.core.connector import ConnectorProtocol
from repro.core.operation import (
    ComplexRead,
    OperationResult,
    ShortRead,
    Update,
)
from repro.core.sut import StoreSUT
from repro.errors import (
    FatalSUTError,
    OperationTimeoutError,
    TransientError,
)
from repro.net import (
    AdmissionRejectedError,
    RemoteConnector,
    RemoteFatalError,
    RemoteTransientError,
    ReproServer,
    ServerBusyError,
    ServerConfig,
)
from repro.workload.operations import EntityRef


class ScriptedSUT:
    """A SUT double: counts executions, fails or stalls on demand."""

    name = "scripted"

    def __init__(self) -> None:
        self.executed: list = []
        self.lock = threading.Lock()
        self.delay = 0.0
        self.raising: BaseException | None = None

    def execute(self, op) -> OperationResult:
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
        server = ReproServer(sut, config or ServerConfig(workers=2))
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
    # The timed-out attempt still completes server-side eventually
    # (reads carry no op_key; only updates get dedup protection).
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
        config=ServerConfig(workers=1, queue_size=1, retry_after=0.123))
    sut.delay = 0.3
    # Eight concurrent callers, eight connections: one executes, one
    # waits in the queue, the rest are turned away.
    errors = _hammer(client, threads=8, ops=1)
    busy = [e for e in errors if isinstance(e, ServerBusyError)]
    assert busy and len(busy) == len(errors)
    assert busy[0].retry_after == pytest.approx(0.123)
    assert server.stats()["rejected_busy"] >= 1
    # Busy is transient: the resilience policy will back off and retry.
    assert isinstance(busy[0], TransientError)


# -- admission control -----------------------------------------------------

def test_admission_rejects_expensive_complex_reads(loaded_store,
                                                   curated_params):
    sut = StoreSUT(loaded_store)
    server = ReproServer(sut, ServerConfig(max_estimated_rows=1.0))
    host, port = server.start()
    client = RemoteConnector(host, port, timeout=10.0)
    try:
        params = curated_params.by_query[9][0]
        with pytest.raises(AdmissionRejectedError) as excinfo:
            client.execute(ComplexRead(9, params))
        # Fatal, not transient: retrying cannot make the query cheaper.
        assert isinstance(excinfo.value, FatalSUTError)
        assert "estimated" in str(excinfo.value)
        # Point operations are always admitted.
        person = EntityRef.person(
            next(iter(loaded_store.transaction().vertices("person")))[0])
        assert client.execute(ShortRead(1, person)).op_class == "S1"
        stats = client.server_stats()
        assert stats["admission_rejected"] >= 1
        assert stats["admission_admitted"] >= 1
    finally:
        client.close()
        server.shutdown()


def test_admission_estimate_uses_degree_and_damping():
    from repro.engine.cardinality import DEDUP_DAMPING
    from repro.net.admission import AdmissionController

    controller = AdmissionController(10.0, max_estimated_rows=None)
    rows, derivation = controller.estimate_rows(3)
    assert rows == pytest.approx(10.0 * 10.0 * DEDUP_DAMPING
                                 * 10.0 * DEDUP_DAMPING)
    assert "degree=10.0" in derivation


# -- exactly-once updates --------------------------------------------------

def test_update_retry_is_deduplicated(server_client, split):
    server, client, sut = server_client()
    operation = split.updates[0]
    first = client.execute(Update(operation))
    # A retry of the same stream item (fresh Update wrapper, same
    # inner operation) must replay, not re-execute.
    second = client.execute(Update(operation))
    assert len(sut.executed) == 1
    assert first.value == second.value == 1
    assert server.stats()["deduped"] == 1
    # A different stream item executes normally.
    client.execute(Update(split.updates[1]))
    assert len(sut.executed) == 2


def test_distinct_clients_never_share_dedup_keys(server_client, split):
    server, __, sut = server_client()
    host, port = server.address
    a = RemoteConnector(host, port, timeout=10.0)
    b = RemoteConnector(host, port, timeout=10.0)
    try:
        operation = split.updates[0]
        a.execute(Update(operation))
        b.execute(Update(operation))
        # Different client ids → different op keys → both executed.
        assert len(sut.executed) == 2
    finally:
        a.close()
        b.close()


def test_transient_update_failure_is_not_replayed_to_retry(
        server_client, split):
    # A transient outcome (the store's write conflict under concurrent
    # workers) means the update never applied; caching it would replay
    # the error to every retry and silently lose the update.
    server, client, sut = server_client()
    operation = split.updates[0]
    sut.raising = TransientError("write conflict")
    with pytest.raises(RemoteTransientError, match="write conflict"):
        client.execute(Update(operation))
    sut.raising = None
    result = client.execute(Update(operation))
    assert result.value == 1
    assert len(sut.executed) == 1
    assert server.stats()["deduped"] == 0


def test_fatal_update_outcome_is_replayed_to_retry(server_client,
                                                   split):
    server, client, sut = server_client()
    operation = split.updates[0]
    sut.raising = FatalSUTError("corrupt page")
    with pytest.raises(RemoteFatalError, match="corrupt page"):
        client.execute(Update(operation))
    sut.raising = None
    # Fatal outcomes stay remembered: the replay, not a re-execution.
    with pytest.raises(RemoteFatalError, match="corrupt page"):
        client.execute(Update(operation))
    assert len(sut.executed) == 0
    assert server.stats()["deduped"] == 1


def test_concurrent_duplicates_recover_from_transient_failure(
        server_client, split):
    # Two racing attempts at one stream item while the SUT conflicts:
    # whichever lands second either re-executes or waits on the first
    # — both must hear the transient error, and a later retry must
    # still be able to apply the update.
    server, client, sut = server_client()
    sut.delay = 0.2
    sut.raising = TransientError("conflict")
    operation = split.updates[0]
    outcomes = []

    def attempt() -> None:
        try:
            client.execute(Update(operation))
            outcomes.append(None)  # pragma: no cover - must raise
        except BaseException as exc:
            outcomes.append(exc)

    threads = [threading.Thread(target=attempt) for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(isinstance(o, RemoteTransientError) for o in outcomes)
    sut.delay = 0.0
    sut.raising = None
    assert client.execute(Update(operation)).value == 1
    assert len(sut.executed) == 1


def test_reads_are_not_deduplicated(server_client):
    server, client, sut = server_client()
    client.execute(SHORT)
    client.execute(SHORT)
    assert len(sut.executed) == 2
    assert server.stats()["deduped"] == 0


class _StubConnection:
    """Records what the server sends, in lieu of a real socket."""

    def __init__(self) -> None:
        self.sent: list[dict] = []

    def send(self, message: dict) -> None:
        self.sent.append(message)


def test_queue_full_rejection_answers_duplicate_waiters(split):
    # A duplicate that registered between the dedup claim and the
    # (failed) enqueue must hear the busy rejection too, not block
    # for its whole request timeout.
    from repro.net import codec

    server = ReproServer(ScriptedSUT(), ServerConfig(queue_size=1))
    origin, waiter = _StubConnection(), _StubConnection()
    message = {"v": codec.PROTOCOL_VERSION, "id": 1, "kind": "execute",
               "op": codec.encode_operation(Update(split.updates[0])),
               "op_key": "tok"}

    class RacingQueue:
        def put_nowait(self, job) -> None:
            # The duplicate lands in the claim→enqueue window.
            server._dedup_claim("tok", waiter, 2)
            raise queue.Full

    server._queue = RacingQueue()
    server._handle_message(origin, message)
    assert [m["id"] for m in origin.sent] == [1]
    assert [m["id"] for m in waiter.sent] == [2]
    assert all(m["error"] == "busy"
               for m in origin.sent + waiter.sent)
    # The token is free again: a retry claims it from scratch.
    assert "tok" not in server._dedup


def test_dedup_abandon_leaves_completed_outcomes_alone(server_client,
                                                       split):
    server, client, sut = server_client()
    operation = split.updates[0]
    key_owner = _StubConnection()
    client.execute(Update(operation))
    (op_key,) = list(server._dedup)
    assert server._dedup_abandon(op_key) == []
    assert op_key in server._dedup  # done entries are kept for replay
    assert key_owner.sent == []


def test_shutdown_releases_workers_despite_backlogged_queue():
    sut = ScriptedSUT()
    sut.delay = 0.02
    server = ReproServer(sut, ServerConfig(workers=2, queue_size=2))
    server.start()
    stub = _StubConnection()
    for i in range(6):  # more jobs than queue slots
        server._queue.put((stub, i, SHORT, None))
    server.shutdown()
    workers = [t for t in server._threads
               if t.name.startswith("repro-net-worker")]
    for worker in workers:
        worker.join(5.0)
    assert not any(worker.is_alive() for worker in workers)
    server.shutdown()  # idempotent: a second call must not block


# -- op keys ---------------------------------------------------------------

def test_op_keys_are_stable_and_never_alias(split):
    first = split.updates[0]
    assert first.op_key == first.op_key
    # An equal item re-created from the stream keys identically.
    assert dataclasses.replace(first).op_key == first.op_key
    # Distinct updates never share a key.
    keys = {op.op_key for op in split.updates}
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
