"""The remote connector: the wire-protocol client side.

:class:`RemoteConnector` implements the connector contract of the
in-process SUTs — ``execute(op) -> OperationResult`` and ``close()`` —
so every layer above it is oblivious to the network: the scheduler
drives it like any connector,
:class:`~repro.core.connector.InteractiveConnector` wraps it like any
SUT (running the short-read walk over the wire), and the fault
injector composes in front of it, turning chaos drops/delays into
wire-level perturbations.

Failure mapping onto the existing error taxonomy:

* a request that outlives its timeout → :class:`OperationTimeoutError`
  (transient — the retry policy replays it; if the first attempt did
  execute server-side, the SUT answers the replayed update as a no-op);
* connection refused / reset mid-request → ``ConnectionError``
  (transient by :func:`~repro.driver.resilience.default_is_transient`);
* a server-side :class:`~repro.errors.TransientError` →
  :class:`RemoteTransientError`;
* a server-side fatal (or unclassified) failure →
  :class:`RemoteFatalError` (never retried);
* backpressure (every execution slot taken) → :class:`ServerBusyError`
  (transient, carries the server's ``retry_after`` hint).

Each pooled connection is a :class:`~repro.net.channel.Channel` over
one socket: one request in flight, sent and answered on the caller's
own thread.  The pool opens one connection per concurrent caller
(``pool_size`` caps it), so four driver partitions keep four requests
in flight at the server.
"""

from __future__ import annotations

import select
import socket
import threading
import time

from ..core.operation import as_operation
from ..errors import (
    FatalSUTError,
    OperationTimeoutError,
    TransientError,
)
from . import codec
from .channel import Channel


class RemoteTransientError(TransientError):
    """The server reported a transient failure (retry should absorb)."""


class RemoteFatalError(FatalSUTError):
    """The server reported a fatal SUT failure (never retried)."""


class RemoteProtocolError(FatalSUTError):
    """The server and client no longer agree on the protocol."""


class ServerBusyError(TransientError):
    """Backpressure: the server was already executing its limit."""

    def __init__(self, message: str, retry_after: float | None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _SocketTransport:
    """A connected socket as a :class:`Channel` transport; the request
    id travels in the frame's ``id`` field."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        # poll(2), not select(2): no FD_SETSIZE ceiling, and a closed
        # socket reports POLLNVAL instead of raising.
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)

    def send(self, request_id: int, message: dict) -> None:
        codec.send_message(self.sock, {**message, "id": request_id})

    def poll(self, timeout: float) -> bool:
        return bool(self._poller.poll(timeout * 1000.0))

    def recv(self) -> tuple[int | None, dict]:
        message = codec.recv_message(self.sock)
        if message is None:
            raise EOFError("server closed the connection")
        return message.get("id"), message

    def close(self) -> None:
        try:
            # shutdown() first so a caller blocked in poll() wakes now
            # and the peer sees the FIN.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        self.sock.close()


def _dial(host: str, port: int, timeout: float) -> Channel:
    """Connect with brief retries (CI races `serve` startup)."""
    deadline = time.monotonic() + timeout
    delay = 0.05
    while True:
        try:
            sock = socket.create_connection((host, port), timeout)
            break
        except OSError:
            if time.monotonic() + delay >= deadline:
                raise
            time.sleep(delay)
            delay = min(0.5, delay * 2)
    # The dial timeout must not stay on as a read timeout: the
    # channel's poll() enforces each request's own deadline.
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Channel(_SocketTransport(sock))


class RemoteConnector:
    """Connector/SUT hybrid executing operations over the wire."""

    def __init__(self, host: str, port: int, *,
                 pool_size: int | None = None,
                 timeout: float | None = 30.0,
                 connect_timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        #: Cap on open connections; None opens one per concurrent caller.
        self.pool_size = pool_size
        #: Per-request response budget (seconds); None waits forever.
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._open: set[Channel] = set()
        self._idle: list[Channel] = []
        self._pool_cond = threading.Condition()
        self._sut_name: str | None = None

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

    def _acquire(self) -> Channel:
        """An idle channel, else a new one; at the cap, wait for one."""
        with self._pool_cond:
            while not self._idle and self.pool_size is not None \
                    and len(self._open) >= self.pool_size:
                self._pool_cond.wait()
            if self._idle:
                return self._idle.pop()
            channel = _dial(self.host, self.port, self.connect_timeout)
            self._open.add(channel)
            return channel

    def _release(self, channel: Channel) -> None:
        with self._pool_cond:
            if channel.dead is None:
                self._idle.append(channel)
            else:
                self._open.discard(channel)
            self._pool_cond.notify()

    def close(self) -> None:
        with self._pool_cond:
            channels, self._open, self._idle = self._open, set(), []
            self._pool_cond.notify_all()
        for channel in channels:
            channel.close()

    # -- the connector protocol --------------------------------------------

    def execute(self, operation):
        """Run one operation remotely; returns its OperationResult."""
        request = {"kind": "execute",
                   "op": codec.encode_operation(as_operation(operation))}
        return codec.decode_result(self._round_trip(request)["result"])

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
            {"kind": "admin", "action": action})
        return response["value"]

    # -- plumbing ----------------------------------------------------------

    def _round_trip(self, request: dict) -> dict:
        channel = self._acquire()
        try:
            response = channel.call(request, self.timeout)
        except TimeoutError as exc:
            raise OperationTimeoutError(str(exc)) from None
        finally:
            self._release(channel)
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
            if error == "transient":
                raise RemoteTransientError(message)
            raise RemoteFatalError(message)
        raise RemoteProtocolError(
            f"unexpected response kind {kind!r}")
