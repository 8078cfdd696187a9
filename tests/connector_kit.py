"""Reusable connector-conformance kit.

One parametrized suite (``test_connector_protocol.py``) asserts the
:class:`~repro.core.connector.ConnectorProtocol` contract against every
connector in the system — the driver connectors, the interactive and
fault-injecting wrappers, an in-process SUT used directly, the wire
client, and the sharded store.  New connectors join the suite by
adding a :class:`ConnectorCase`; the checks themselves live here so
other test modules (and downstream SUT implementations) can reuse them
against their own connectors.

The contract, as checked:

* **structure** — the connector satisfies the runtime-checkable
  protocol (``execute`` plus ``close``);
* **close** — ``close()`` is safe to call twice, and a single close
  reaches every wrapped SUT/connector exactly once;
* **error taxonomy** — exceptions raised by the wrapped system cross
  the connector unwrapped, so the retry policy's transient/fatal
  classification still sees the taxonomy type;
* **replay** — a system with state applies an update executed twice
  once: exactly-once is the SUT's, on every deployment shape;
* **crash recovery** — a crash-tolerant system keeps an acknowledged
  update across a hard kill of its workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.connector import ConnectorProtocol
from repro.core.sut import BaseSUT, EngineSUT, StoreSUT
from repro.driver.resilience import default_is_transient
from repro.errors import FatalSUTError, TransientError


_SUT_CLASSES = {"store": StoreSUT, "engine": EngineSUT}


class StubSUT:
    """Minimal unified-API SUT: counts executions and closes, and can
    be armed to raise a chosen exception on the next execute."""

    name = "stub"

    def __init__(self) -> None:
        self.closed = 0
        self.executed = 0
        self.raise_next: BaseException | None = None

    def execute(self, op):
        from repro.core.operation import OperationResult

        if self.raise_next is not None:
            exc, self.raise_next = self.raise_next, None
            raise exc
        self.executed += 1
        return OperationResult(op.op_class, value=None)

    def close(self) -> None:
        self.closed += 1


class StubBaseSUT(BaseSUT):
    """Minimal :class:`BaseSUT` subclass: counts applied updates, and
    its ``_update`` can be armed to raise a chosen exception."""

    name = "stub-base"

    def __init__(self) -> None:
        self.applied = 0
        self.raise_next: BaseException | None = None

    def _update(self, operation) -> None:
        if self.raise_next is not None:
            exc, self.raise_next = self.raise_next, None
            raise exc
        self.applied += 1


def probe_update():
    """A synthetic update operation for stub-backed connectors."""
    from repro.datagen.update_stream import UpdateKind, UpdateOperation

    return UpdateOperation(kind=UpdateKind.ADD_LIKE_POST, due_time=1,
                           depends_on_time=0, payload=None)


@dataclass
class Live:
    """One built connector plus the observation hooks its case offers.

    Hooks are optional: a ``None`` hook means the corresponding check
    does not apply to this connector (e.g. the never-dialled wire
    client cannot count applies without a server).
    """

    connector: object
    #: Close counters of everything the connector wraps; each must be
    #: >= 1 after one close (propagation).
    wrapped_close_counts: Callable[[], list[int]] | None = None
    #: Arm the wrapped system to raise ``exc`` on the next execute.
    arm_error: Callable[[BaseException], None] | None = None
    #: An update operation this connector can execute for real.
    update_op: object | None = None
    #: Times the probe update landed on the underlying state.
    applied_count: Callable[[], int] | None = None
    #: True when the underlying system survives a hard crash without
    #: losing acknowledged updates (arms ``check_crash_recovery``).
    supports_recovery: bool = False
    #: Hard-kill the underlying system's worker processes (``kill -9``
    #: semantics — no flush, no goodbye).
    crash: Callable[[], None] | None = None
    #: Canonical digest of the underlying state (recovery oracle).
    state_digest: Callable[[], str] | None = None
    cleanup: Callable[[], None] | None = None

    def done(self) -> None:
        if self.cleanup is not None:
            self.cleanup()


@dataclass(frozen=True)
class ConnectorCase:
    """One connector's entry in the conformance suite."""

    name: str
    build: Callable[[], Live]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_protocol_structure(case: ConnectorCase) -> None:
    live = case.build()
    try:
        assert isinstance(live.connector, ConnectorProtocol), case.name
    finally:
        live.done()


def check_close_idempotent(case: ConnectorCase) -> None:
    """Double close must not raise; one close reaches every wrap."""
    live = case.build()
    try:
        live.connector.close()
        if live.wrapped_close_counts is not None:
            counts = live.wrapped_close_counts()
            assert counts and all(n >= 1 for n in counts), \
                f"{case.name}: close did not propagate ({counts})"
        live.connector.close()  # idempotent: no raise, no hang
    finally:
        live.done()


def check_error_taxonomy(case: ConnectorCase) -> bool:
    """Wrapped taxonomy errors cross the connector classifiable.

    Returns False when the case offers no way to arm an error (the
    check does not apply); asserts on violation otherwise.
    """
    live = case.build()
    try:
        if live.arm_error is None or live.update_op is None:
            return False
        for exc, want_transient in ((TransientError("probe"), True),
                                    (FatalSUTError("probe"), False)):
            live.arm_error(exc)
            try:
                live.connector.execute(live.update_op)
                raised = None
            except BaseException as caught:
                raised = caught
            assert raised is not None, \
                f"{case.name}: armed {type(exc).__name__} was swallowed"
            assert default_is_transient(raised) is want_transient, \
                f"{case.name}: {type(raised).__name__} classified " \
                f"{'transient' if not want_transient else 'fatal'} — " \
                f"the retry policy would mishandle it"
        return True
    finally:
        live.done()


def replay_is_noop(live: Live, op, name: str) -> None:
    """Execute ``op`` twice on ``live``; the second must change nothing.

    The applied count grows by one over both executions, and the state
    digest after the replay equals the digest after the single apply.
    """
    before = live.applied_count()
    live.connector.execute(op)
    once = live.state_digest()
    live.connector.execute(op)
    assert live.state_digest() == once, \
        f"{name}: the replay changed the state digest"
    assert live.applied_count() == before + 1, \
        f"{name}: applied {live.applied_count() - before} times, " \
        f"not once"


def check_replay_is_noop(case: ConnectorCase) -> bool:
    """A replayed update is a no-op: the system owns exactly-once.

    Executes the case's update twice — a retry whose first answer was
    lost, or a duplicate racing on another connection — and requires
    one application and the single-apply digest.  Returns False for
    cases without state to observe (stubs and wrappers over them).
    """
    live = case.build()
    try:
        if live.applied_count is None or live.state_digest is None:
            return False
        assert live.update_op is not None, \
            f"{case.name}: stateful case must provide an update probe"
        replay_is_noop(live, live.update_op, case.name)
        return True
    finally:
        live.done()


def check_crash_recovery(case: ConnectorCase) -> bool:
    """An acknowledged update must survive a hard worker crash.

    Executes the probe update (the ack), digests the state, hard-kills
    the underlying workers, and digests again: the second read runs
    through the connector's recovery path and must return the exact
    pre-crash digest — the acked write neither lost nor double-applied
    by WAL replay.  Returns False for connectors that do not declare
    crash tolerance (the check does not apply).
    """
    live = case.build()
    try:
        if not live.supports_recovery:
            return False
        assert live.crash is not None and live.state_digest is not None, \
            f"{case.name}: recovery case must provide crash + digest hooks"
        assert live.update_op is not None, \
            f"{case.name}: recovery case must provide an update probe"
        live.connector.execute(live.update_op)  # the acknowledged write
        before = live.state_digest()
        live.crash()
        after = live.state_digest()  # supervised: recovers, then reads
        assert after == before, \
            f"{case.name}: digest diverged across crash recovery " \
            f"({before[:12]}… -> {after[:12]}…)"
        return True
    finally:
        live.done()


ALL_CHECKS = (check_protocol_structure, check_close_idempotent,
              check_error_taxonomy,
              check_replay_is_noop, check_crash_recovery)


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

def _sleeping() -> Live:
    from repro.driver.connectors import SleepingConnector

    return Live(SleepingConnector(0.0))


def _base_sut() -> Live:
    sut = StubBaseSUT()

    def arm(exc: BaseException) -> None:
        sut.raise_next = exc

    # The SUT is the connector: nothing wrapped, so close is only
    # checked for idempotence.
    return Live(sut, arm_error=arm, update_op=probe_update(),
                applied_count=lambda: sut.applied)


def _recording() -> Live:
    from repro.driver.connectors import RecordingConnector

    stub = StubSUT()
    connector = RecordingConnector(delegate=stub)
    return Live(connector,
                wrapped_close_counts=lambda: [stub.closed])


def _interactive() -> Live:
    from repro.core.connector import InteractiveConnector

    stub = StubSUT()
    connector = InteractiveConnector(stub)

    def arm(exc: BaseException) -> None:
        stub.raise_next = exc

    return Live(connector,
                wrapped_close_counts=lambda: [stub.closed],
                arm_error=arm, update_op=probe_update(),
                applied_count=lambda: stub.executed)


def _fault_injecting() -> Live:
    from repro.faults import FaultInjectingConnector, FaultPlan

    stub = StubSUT()
    # Every op takes the latency path: sleep, then delegate.
    plan = FaultPlan.uniform(latency=1.0, latency_seconds=0.001)
    connector = FaultInjectingConnector(stub, plan)

    def arm(exc: BaseException) -> None:
        stub.raise_next = exc

    return Live(connector,
                wrapped_close_counts=lambda: [stub.closed],
                arm_error=arm, update_op=probe_update(),
                applied_count=lambda: stub.executed)


def _remote() -> Live:
    from repro.net import RemoteConnector

    # Never dialled: the pool only connects on first execute, so the
    # structural and close checks run without a server.
    return Live(RemoteConnector("127.0.0.1", 1))


DEFAULT_CASES = (
    ConnectorCase("SleepingConnector", _sleeping),
    ConnectorCase("BaseSUT", _base_sut),
    ConnectorCase("RecordingConnector", _recording),
    ConnectorCase("InteractiveConnector", _interactive),
    ConnectorCase("FaultInjectingConnector", _fault_injecting),
    ConnectorCase("RemoteConnector", _remote),
)


def _applied_count(sut) -> int:
    """Updates an in-process SUT has applied (replays excluded)."""
    if isinstance(sut, EngineSUT):
        return sut.applied_count
    return sut.store.commit_count


def sut_case(split, kind: str) -> ConnectorCase:
    """An in-process SUT (``store`` or ``engine``) over the split's
    bulk part, used directly as the connector."""
    def build() -> Live:
        sut = _SUT_CLASSES[kind].for_network(split.bulk)
        return Live(sut, update_op=split.updates[0],
                    applied_count=lambda: _applied_count(sut),
                    state_digest=sut.digest)

    return ConnectorCase(_SUT_CLASSES[kind].__name__, build)


def remote_case(split, kind: str) -> ConnectorCase:
    """A ``store`` or ``engine`` SUT behind a loopback wire server,
    driven through :class:`~repro.net.RemoteConnector`."""
    def build() -> Live:
        from repro.net import RemoteConnector, ReproServer

        sut = _SUT_CLASSES[kind].for_network(split.bulk)
        server = ReproServer(sut)
        host, port = server.start()
        client = RemoteConnector(host, port, timeout=30.0)

        def cleanup() -> None:
            client.close()
            server.shutdown()

        return Live(client, update_op=split.updates[0],
                    applied_count=lambda: _applied_count(sut),
                    state_digest=client.digest, cleanup=cleanup)

    return ConnectorCase(f"RemoteConnector({kind})", build)


def sharded_case(split, shards: int = 2) -> ConnectorCase:
    """The sharded store as a driver connector (spawns real workers).

    The replay probe runs against genuine worker processes, whose
    stores' applied keys absorb the duplicate; the update probe is the
    first operation of the split's update stream.
    Workers get a shard WAL directory, so the case also exercises the
    crash-recovery check: ``crash`` kill -9s every worker and the
    supervised digest read must come back byte-identical.
    """
    def build() -> Live:
        import shutil
        import tempfile

        from repro.shard import ShardedStoreSUT

        wal_dir = tempfile.mkdtemp(prefix="repro-kit-wal-")
        sut = ShardedStoreSUT.for_network(split.bulk, shards,
                                          wal_dir=wal_dir)

        def crash() -> None:
            for handle in sut.router.handles:
                handle.process.kill()
                handle.process.join(timeout=5.0)

        def cleanup() -> None:
            sut.close()
            shutil.rmtree(wal_dir, ignore_errors=True)

        return Live(sut,
                    wrapped_close_counts=lambda: [
                        1 if sut.router._closed else 0],
                    update_op=split.updates[0],
                    applied_count=lambda: (sut.router._updates
                                           - sut.router._replays),
                    supports_recovery=True,
                    crash=crash,
                    state_digest=sut.digest,
                    cleanup=cleanup)

    return ConnectorCase("ShardedStoreConnector", build)
