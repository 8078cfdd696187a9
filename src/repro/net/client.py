"""The remote connector: the wire-protocol client side.

:class:`RemoteConnector` implements the same contract as the
in-process SUTs — ``execute(op) -> OperationResult`` — plus the
connector protocol's ``close()`` and capability flags, so every layer
above it is oblivious to the network: the scheduler drives it like any
connector, :class:`~repro.core.connector.InteractiveConnector` wraps it
like any SUT (running the short-read walk over the wire), and the
fault injector composes in front of it, turning chaos drops/delays
into wire-level perturbations.

Failure mapping onto the existing error taxonomy:

* a request that outlives its timeout → :class:`OperationTimeoutError`
  (transient — the retry policy replays it; the server's op-key dedup
  guarantees the abandoned attempt cannot double-apply);
* connection refused / reset mid-request → ``ConnectionError``
  (transient by :func:`~repro.driver.resilience.default_is_transient`);
* a server-side :class:`~repro.errors.TransientError` →
  :class:`RemoteTransientError`;
* a server-side fatal (or unclassified) failure →
  :class:`RemoteFatalError` (never retried);
* backpressure (queue full) → :class:`ServerBusyError` (transient,
  carries the server's ``retry_after`` hint);
* admission-control refusal → :class:`AdmissionRejectedError` (fatal:
  retrying an over-cost traversal cannot make it admissible).

Each pooled connection pipelines: a background reader demultiplexes
responses by request id, so any number of threads (and
:meth:`RemoteConnector.execute_batch`) can have requests in flight on
one socket.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time

from ..driver.resilience import raise_if_abandoned
from ..errors import (
    FatalSUTError,
    OperationTimeoutError,
    TransientError,
)
from . import codec


class RemoteTransientError(TransientError):
    """The server reported a transient failure (retry should absorb)."""


class RemoteFatalError(FatalSUTError):
    """The server reported a fatal SUT failure (never retried)."""


class RemoteProtocolError(FatalSUTError):
    """The server and client no longer agree on the protocol."""


class ServerBusyError(TransientError):
    """Backpressure: the server's request queue was full."""

    def __init__(self, message: str, retry_after: float | None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionRejectedError(FatalSUTError):
    """Admission control refused the operation pre-execution.

    Classified fatal not because the SUT is broken but because the
    refusal is deterministic policy: the same query costs the same
    rows on every retry.
    """


class _Pending:
    """One in-flight request awaiting its response."""

    __slots__ = ("event", "response", "abandoned")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None
        self.abandoned = False


class _PooledConnection:
    """One socket with a demultiplexing reader thread."""

    def __init__(self, host: str, port: int,
                 connect_timeout: float) -> None:
        self.sock = _connect_with_retry(host, port, connect_timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.send_lock = threading.Lock()
        self.pending_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.in_flight = 0
        self.dead: BaseException | None = None
        self._ids = itertools.count(1)
        self.reader = threading.Thread(target=self._reader_main,
                                       name="repro-net-reader",
                                       daemon=True)
        self.reader.start()

    # -- request plumbing --------------------------------------------------

    def post(self, message: dict) -> tuple[int, _Pending]:
        """Register a pending slot and write one framed request."""
        pending = _Pending()
        with self.pending_lock:
            if self.dead is not None:
                raise ConnectionError(
                    f"connection lost: {self.dead}") from self.dead
            request_id = next(self._ids)
            message = dict(message)
            message["id"] = request_id
            self.pending[request_id] = pending
            self.in_flight += 1
        try:
            with self.send_lock:
                codec.send_message(self.sock, message)
        except OSError as exc:
            self._discard(request_id)
            raise ConnectionError(f"send failed: {exc}") from exc
        return request_id, pending

    def wait(self, request_id: int, pending: _Pending,
             timeout: float | None) -> dict:
        """Block for the response; abandon the slot on timeout."""
        if not pending.event.wait(timeout):
            with self.pending_lock:
                pending.abandoned = True
                # The reader may have popped the entry between the
                # wait timing out and this lock; only the popper
                # decrements, or in_flight goes negative and skews
                # least-loaded pool selection forever.
                if self.pending.pop(request_id, None) is not None:
                    self.in_flight -= 1
            raise OperationTimeoutError(
                f"no response within {timeout:.3f}s "
                f"(request {request_id})")
        if pending.response is None:
            cause = self.dead
            raise ConnectionError(
                f"connection lost awaiting request {request_id}: "
                f"{cause}") from cause
        return pending.response

    def _discard(self, request_id: int) -> None:
        with self.pending_lock:
            if self.pending.pop(request_id, None) is not None:
                self.in_flight -= 1

    def _reader_main(self) -> None:
        while True:
            try:
                message = codec.recv_message(self.sock)
            except (codec.CodecError, OSError) as exc:
                self._fail_all(exc)
                return
            if message is None:
                self._fail_all(ConnectionError("server closed the "
                                               "connection"))
                return
            request_id = message.get("id")
            with self.pending_lock:
                pending = self.pending.pop(request_id, None)
                if pending is not None:
                    self.in_flight -= 1
            if pending is not None and not pending.abandoned:
                pending.response = message
                pending.event.set()
            # Responses to abandoned (timed-out) requests are dropped:
            # the retry holds a fresh request id.

    def _fail_all(self, exc: BaseException) -> None:
        with self.pending_lock:
            self.dead = exc
            pending, self.pending = dict(self.pending), {}
            self.in_flight = 0
        for slot in pending.values():
            slot.event.set()  # response stays None → ConnectionError
        try:
            # shutdown() first so the reader thread's blocked recv()
            # returns immediately and the peer sees the FIN now.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def close(self) -> None:
        self._fail_all(ConnectionError("connection closed"))


def _connect_with_retry(host: str, port: int,
                        timeout: float) -> socket.socket:
    """Dial with brief retries (CI races `serve` startup)."""
    deadline = time.monotonic() + timeout
    delay = 0.05
    while True:
        try:
            return socket.create_connection((host, port), timeout)
        except OSError:
            if time.monotonic() + delay >= deadline:
                raise
            time.sleep(delay)
            delay = min(0.5, delay * 2)


class RemoteConnector:
    """Connector/SUT hybrid executing operations over the wire."""

    def __init__(self, host: str, port: int, *,
                 pool_size: int = 2,
                 timeout: float | None = 30.0,
                 connect_timeout: float = 10.0,
                 client_id: str | None = None) -> None:
        self.host = host
        self.port = port
        self.pool_size = max(1, pool_size)
        #: Per-request response budget (seconds); None waits forever.
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: Prefix making op_keys unique across driver processes that
        #: may talk to one long-lived server.
        self.client_id = client_id or f"c{os.getpid()}-{id(self):x}"
        self._pool: list[_PooledConnection] = []
        self._pool_lock = threading.Lock()
        self._sut_name: str | None = None
        self._op_key_lock = threading.Lock()
        self._op_key_seq = itertools.count(1)
        #: id(item) → (item, key).  Holding the item reference pins it,
        #: so CPython can never recycle its id for a different stream
        #: item while the key is live — id() alone would alias two
        #: distinct updates under a lazily-consumed stream.
        self._op_keys: dict[int, tuple[object, str]] = {}

    @classmethod
    def parse(cls, address: str, **kwargs) -> "RemoteConnector":
        """Build from a ``host:port`` string (the ``--remote`` flag)."""
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"--remote expects host:port, got {address!r}")
        return cls(host, int(port), **kwargs)

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        """SUT-style name (fetched from the server on first use)."""
        if self._sut_name is None:
            try:
                info = self.ping()
                self._sut_name = (f"remote({info.get('sut', '?')}"
                                  f"@{self.host}:{self.port})")
            except Exception:
                return f"remote({self.host}:{self.port})"
        return self._sut_name

    # -- connection pool ---------------------------------------------------

    def _acquire(self) -> _PooledConnection:
        with self._pool_lock:
            self._pool = [c for c in self._pool if c.dead is None]
            if len(self._pool) < self.pool_size:
                connection = _PooledConnection(self.host, self.port,
                                               self.connect_timeout)
                self._pool.append(connection)
                return connection
            # Least-loaded: spreads pipelining across the pool.
            return min(self._pool, key=lambda c: c.in_flight)

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    # -- the connector protocol --------------------------------------------

    def execute(self, operation):
        """Run one operation remotely; returns its OperationResult."""
        # An attempt the watchdog already abandoned must not reach the
        # wire at all — the retry owns the operation now.
        raise_if_abandoned()
        request = self._execute_request(operation)
        response = self._round_trip(request)
        return codec.decode_result(response["result"])

    def _execute_request(self, operation) -> dict:
        from ..core.operation import Update, as_operation

        op = as_operation(operation)
        request = {"v": codec.PROTOCOL_VERSION, "kind": "execute",
                   "op": codec.encode_operation(op)}
        if isinstance(op, Update):
            # Keyed on the *inner* stream item, which is the same
            # object across retries (wrappers like as_operation build
            # a fresh Update each attempt).  The server's dedup table
            # then recognizes a replay of a request whose first
            # attempt timed out on the wire but executed anyway.
            request["op_key"] = self._stable_op_key(op.operation)
        return request

    def _stable_op_key(self, item) -> str:
        """One stable token per stream item (same item → same key)."""
        with self._op_key_lock:
            entry = self._op_keys.get(id(item))
            if entry is None or entry[0] is not item:
                entry = (item,
                         f"{self.client_id}:u{next(self._op_key_seq)}")
                self._op_keys[id(item)] = entry
            return entry[1]

    def execute_batch(self, operations) -> list:
        """Pipeline a batch on one connection; results in order.

        All requests are written before any response is awaited — the
        wire-level batching the server's per-connection pipelining is
        built for.  The first failed operation raises after the whole
        batch has drained.
        """
        raise_if_abandoned()
        connection = self._acquire()
        posted = []
        for operation in operations:
            posted.append(connection.post(
                self._execute_request(operation)))
        results = []
        failure: BaseException | None = None
        for request_id, pending in posted:
            try:
                response = connection.wait(request_id, pending,
                                           self.timeout)
                results.append(
                    codec.decode_result(
                        self._checked(response)["result"]))
            except BaseException as exc:
                if failure is None:
                    failure = exc
                results.append(None)
        if failure is not None:
            raise failure
        return results

    # -- admin -------------------------------------------------------------

    def ping(self) -> dict:
        return self._admin("ping")

    def server_stats(self) -> dict:
        return self._admin("stats")

    def digest(self) -> str:
        """The server-side SUT's final-state digest."""
        return self._admin("digest")["digest"]

    def _admin(self, action: str) -> dict:
        response = self._round_trip(
            {"v": codec.PROTOCOL_VERSION, "kind": "admin",
             "action": action})
        return response["value"]

    # -- plumbing ----------------------------------------------------------

    def _round_trip(self, request: dict) -> dict:
        connection = self._acquire()
        request_id, pending = connection.post(request)
        response = connection.wait(request_id, pending, self.timeout)
        return self._checked(response)

    @staticmethod
    def _checked(response: dict) -> dict:
        kind = response.get("kind")
        if kind in ("result", "admin-result"):
            return response
        if kind == "error":
            error = response.get("error")
            message = response.get("message", "")
            if error == "busy":
                raise ServerBusyError(message,
                                      response.get("retry_after"))
            if error == "rejected":
                raise AdmissionRejectedError(message)
            if error == "transient":
                raise RemoteTransientError(message)
            raise RemoteFatalError(message)
        raise RemoteProtocolError(
            f"unexpected response kind {kind!r}")
