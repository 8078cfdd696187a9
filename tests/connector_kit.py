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
* **abandoned attempts** — a connector that can stall checks
  :func:`~repro.driver.resilience.raise_if_abandoned` before its
  side-effecting step, so an attempt the watchdog gave up on can never
  double-apply an update behind the retry's back.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.connector import ConnectorProtocol
from repro.core.sut import BaseSUT
from repro.driver.resilience import AbandonedAttemptError, \
    _attempt_state, default_is_transient
from repro.errors import FatalSUTError, TransientError


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
    #: True when the connector consults ``raise_if_abandoned`` before
    #: its side-effecting step (stalling connectors must).
    guards_abandonment: bool = False
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


def check_abandoned_never_double_applies(case: ConnectorCase) -> bool:
    """An attempt the watchdog abandoned must not reach the SUT.

    Simulates the watchdog by setting the per-thread cancellation flag
    (exactly what :func:`call_with_watchdog` does on expiry), issues
    the attempt, and requires (a) ``AbandonedAttemptError``, (b) zero
    state change; the follow-up retry must then apply exactly once.
    Returns False when the case does not guard abandonment (stall-free
    connectors need no guard).
    """
    live = case.build()
    try:
        if not live.guards_abandonment:
            return False
        assert live.update_op is not None and live.applied_count, \
            f"{case.name}: guarding case must provide an update probe"
        before = live.applied_count()
        cancel = threading.Event()
        cancel.set()
        _attempt_state.cancel = cancel
        try:
            try:
                live.connector.execute(live.update_op)
                raise AssertionError(
                    f"{case.name}: abandoned attempt executed anyway")
            except AbandonedAttemptError:
                pass
        finally:
            _attempt_state.cancel = None
        assert live.applied_count() == before, \
            f"{case.name}: abandoned attempt mutated state"
        live.connector.execute(live.update_op)  # the scheduler's retry
        assert live.applied_count() == before + 1, \
            f"{case.name}: retry after abandonment did not apply " \
            f"exactly once"
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
              check_abandoned_never_double_applies,
              check_crash_recovery)


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
    # Every op takes the latency path: sleep, then the abandonment
    # re-check, then delegate — the guarded stall this kit probes.
    plan = FaultPlan.uniform(latency=1.0, latency_seconds=0.001)
    connector = FaultInjectingConnector(stub, plan)

    def arm(exc: BaseException) -> None:
        stub.raise_next = exc

    return Live(connector,
                wrapped_close_counts=lambda: [stub.closed],
                arm_error=arm, update_op=probe_update(),
                applied_count=lambda: stub.executed,
                guards_abandonment=True)


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


def sharded_case(split, shards: int = 2) -> ConnectorCase:
    """The sharded store as a driver connector (spawns real workers).

    The router checks abandonment before routing a commit, so the
    exactly-once probe runs against genuine worker processes; the
    update probe is the first operation of the split's update stream.
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
                    applied_count=lambda: sut.router._updates,
                    guards_abandonment=True,
                    supports_recovery=True,
                    crash=crash,
                    state_digest=sut.digest,
                    cleanup=cleanup)

    return ConnectorCase("ShardedStoreConnector", build)
