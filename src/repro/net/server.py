"""The threaded socket server fronting any system under test.

One :class:`ReproServer` wraps one SUT (anything implementing the
unified ``execute(op) -> OperationResult`` API) and speaks the
:mod:`repro.net.codec` wire protocol (JSON envelopes around positional
bodies; a client built from another registry schema is refused):

* **one thread per connection** — a connection's thread reads a
  request, executes it and writes the answer, then reads the next.
  Clients keep one request in flight per connection and open one
  connection per concurrent caller;
* **backpressure** — at most ``workers`` requests execute at once; one
  more is rejected *immediately* with a ``busy`` error carrying
  ``retry_after`` seconds instead of waiting for a slot (a wedged
  server is how real benchmark SUTs melt down).

The server keeps no per-update state: exactly-once belongs to the SUT.
A client retry after a wire timeout, or a duplicate on another
connection, simply executes again, and the SUT answers a replayed
update as a no-op.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from dataclasses import dataclass

from .. import telemetry
from ..errors import FatalSUTError, TransientError
from . import codec

#: Telemetry counter names (registered only when telemetry is active).
REQUESTS_COUNTER = "net.server.requests"
BUSY_COUNTER = "net.server.rejected_busy"


@dataclass
class ServerConfig:
    """Knobs of one server instance."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick an ephemeral port (tests); :meth:`start`
    #: returns the bound address either way.
    port: int = 0
    #: Requests that may execute at once; one more is refused busy.
    workers: int = 64
    #: Retry hint (seconds) sent with busy rejections.
    retry_after: float = 0.05
    #: Default grace for :meth:`ReproServer.drain` (SIGTERM handling):
    #: stop accepting, let in-flight requests finish for up to this
    #: many seconds, then close.
    drain_timeout: float = 5.0


class _Connection:
    """One accepted client connection and the thread serving it."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.thread: threading.Thread | None = None

    def close(self, how: int = socket.SHUT_RDWR) -> None:
        """Hang up; ``SHUT_RD`` (drain) only ends the reading."""
        try:
            # shutdown() first: close() alone does not interrupt a
            # thread blocked in recv() on this socket (the in-flight
            # syscall keeps the kernel socket alive, so the peer never
            # sees a FIN until the next message arrives).
            self.sock.shutdown(how)
        except OSError:
            pass  # already disconnected
        try:
            if how == socket.SHUT_RDWR:
                self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


class ReproServer:
    """Serves one SUT over the wire protocol."""

    def __init__(self, sut, config: ServerConfig | None = None) -> None:
        self.sut = sut
        self.config = config or ServerConfig()
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._connections: list[_Connection] = []
        self._conn_lock = threading.Lock()
        #: Free execution slots; a request that finds none is busy.
        self._slots = threading.BoundedSemaphore(
            max(1, self.config.workers))
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "executed": 0,
            "errors": 0,
            "rejected_busy": 0,
        }
        self._shutdown = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind and spawn the accept loop; return (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        self._listener = listener
        self._acceptor = threading.Thread(
            target=self._accept_main, name="repro-net-accept",
            daemon=True)
        self._acceptor.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (CLI foreground mode)."""
        if self._listener is None:
            self.start()
        self._shutdown.wait()

    def _close_listener(self) -> None:
        """Stop accepting new connections (idempotent)."""
        if self._listener is None:
            return
        try:
            # shutdown() wakes the thread blocked in accept();
            # close() alone leaves the kernel listener alive under
            # that in-flight syscall, still completing handshakes
            # nobody will ever serve.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or already shut down
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful SIGTERM path: finish the in-flight work, then stop.

        Stops accepting new connections, then ends the *reading* side
        of every live one: a request already read still executes and
        is answered, and then its thread sees EOF.
        A bare :meth:`shutdown` resets every socket mid-request
        instead.  Once every connection thread has exited (or
        ``timeout`` seconds pass), the full shutdown runs.  Returns
        True when the drain completed cleanly, False on timeout.
        """
        if timeout is None:
            timeout = self.config.drain_timeout
        deadline = time.monotonic() + max(0.0, timeout)
        self._close_listener()
        if self._acceptor is not None:
            # Once the acceptor is gone no connection can be added
            # behind the snapshot below.
            self._acceptor.join(max(0.0, deadline - time.monotonic()))
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close(socket.SHUT_RD)
        for connection in connections:
            connection.thread.join(max(0.0, deadline - time.monotonic()))
        completed = not any(c.thread.is_alive() for c in connections)
        self.shutdown()
        return completed

    def shutdown(self) -> None:
        """Stop accepting and close every connection (idempotent)."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self._close_listener()
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def stats(self) -> dict:
        with self._stats_lock:
            return dict(self._stats)

    def _count(self, name: str, telemetry_name: str | None = None) -> None:
        with self._stats_lock:
            self._stats[name] += 1
        if telemetry_name is not None and telemetry.active:
            telemetry.counter(telemetry_name).inc()

    # -- accept / connection loops -----------------------------------------

    def _accept_main(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed by drain() or shutdown()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock)
            connection.thread = threading.Thread(
                target=self._connection_main, args=(connection,),
                name=f"repro-net-conn-{peer[1]}", daemon=True)
            with self._conn_lock:
                self._connections.append(connection)
            connection.thread.start()

    def _connection_main(self, connection: _Connection) -> None:
        sock = connection.sock
        try:
            while (message := codec.recv_message(sock)) is not None:
                codec.send_message(sock, self._handle_message(message))
        except codec.CodecError as exc:
            # Framing is unrecoverable mid-stream: answer what we can,
            # then drop the connection.
            with contextlib.suppress(OSError):
                codec.send_message(sock, self._error_response(
                    None, "fatal", f"protocol error: {exc}"))
        except OSError:
            pass  # the client vanished, or shutdown() hung up on it
        finally:
            connection.close()
            with self._conn_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    # -- request handling --------------------------------------------------

    @staticmethod
    def _error_response(request_id, error: str, message: str,
                        retry_after: float | None = None) -> dict:
        response = {"id": request_id, "kind": "error", "error": error,
                    "message": message}
        if retry_after is not None:
            response["retry_after"] = retry_after
        return response

    def _handle_message(self, message: dict) -> dict:
        """Answer one request (runs on the connection's thread)."""
        self._count("requests", REQUESTS_COUNTER)
        request_id = message.get("id")
        kind = message.get("kind")
        if kind == "admin":
            return self._handle_admin(request_id, message)
        if kind != "execute":
            return self._error_response(
                request_id, "fatal", f"unknown request kind {kind!r}")
        try:
            op = codec.decode_operation(message.get("op"))
        except codec.CodecError as exc:
            self._count("errors")
            return self._error_response(
                request_id, "fatal", f"undecodable operation: {exc}")

        if not self._slots.acquire(blocking=False):
            self._count("rejected_busy", BUSY_COUNTER)
            return self._error_response(
                request_id, "busy",
                f"server busy ({self.config.workers} requests "
                f"executing)", retry_after=self.config.retry_after)
        try:
            response = self._execute(op)
        finally:
            self._slots.release()
        response["id"] = request_id
        return response

    def _handle_admin(self, request_id, message: dict) -> dict:
        action = message.get("action")
        if action == "ping":
            return {"id": request_id, "kind": "admin-result",
                    "value": {"sut": getattr(self.sut, "name", "?"),
                              "protocol": codec.PROTOCOL_VERSION}}
        if action == "stats":
            return {"id": request_id, "kind": "admin-result",
                    "value": self.stats()}
        if action == "digest":
            compute = getattr(self.sut, "digest", None)
            if compute is None:
                return self._error_response(
                    request_id, "fatal", "the served SUT has no digest()")
            return {"id": request_id, "kind": "admin-result",
                    "value": {"digest": compute()}}
        return self._error_response(
            request_id, "fatal", f"unknown admin action {action!r}")

    def _execute(self, op) -> dict:
        """Run one operation; build the (id-less) outcome message."""
        try:
            if telemetry.active:
                with telemetry.span("server.execute",
                                    operation=op.op_class):
                    result = self.sut.execute(op)
            else:
                result = self.sut.execute(op)
        except TransientError as exc:
            self._count("errors")
            return self._error_response(
                None, "transient", f"{type(exc).__name__}: {exc}")
        except FatalSUTError as exc:
            self._count("errors")
            return self._error_response(
                None, "fatal", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # anything else is fatal to the op
            self._count("errors")
            return self._error_response(
                None, "fatal",
                f"unhandled {type(exc).__name__}: {exc}")
        self._count("executed")
        try:
            encoded = codec.encode_result(result)
        except codec.CodecError as exc:
            self._count("errors")
            return self._error_response(
                None, "fatal", f"unencodable result: {exc}")
        return {"id": None, "kind": "result", "result": encoded}
