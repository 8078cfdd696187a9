"""The threaded socket server fronting any system under test.

One :class:`ReproServer` wraps one SUT (anything implementing the
unified ``execute(op) -> OperationResult`` API) and speaks the
:mod:`repro.net.codec` wire protocol (JSON envelopes around positional
bodies; a client built from another registry schema is refused):

* **pipelining** — each connection has a dedicated reader thread; a
  client may have any number of requests in flight, and responses are
  matched by request id (they may return out of order);
* **bounded worker pool** — requests are executed by ``workers``
  threads off one bounded queue; execution order across connections is
  whatever the pool dequeues;
* **backpressure** — when the queue is full the request is rejected
  *immediately* with a ``busy`` error carrying ``retry_after`` seconds,
  instead of stalling the reader (a wedged accept loop is how real
  benchmark SUTs melt down);
* **admission control** — complex reads whose estimated traversal
  cardinality exceeds the configured ceiling are refused pre-execution
  (:mod:`repro.net.admission`);
* **exactly-once updates** — requests may carry an ``op_key`` token;
  the server remembers each token's outcome and replays it instead of
  re-executing, so a client retry after a wire-level timeout can never
  double-apply an update whose first attempt actually ran.  Only
  results and fatal errors are remembered: a transient failure means
  the update never applied, so the token is released and the retry
  re-executes.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from .. import telemetry
from ..errors import FatalSUTError, TransientError
from . import codec
from .admission import AdmissionController

#: Telemetry counter names (registered only when telemetry is active).
REQUESTS_COUNTER = "net.server.requests"
BUSY_COUNTER = "net.server.rejected_busy"
ADMISSION_COUNTER = "net.server.rejected_admission"
DEDUP_COUNTER = "net.server.deduped"


@dataclass
class ServerConfig:
    """Knobs of one server instance."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick an ephemeral port (tests); :meth:`start`
    #: returns the bound address either way.
    port: int = 0
    #: Worker threads executing operations off the shared queue.
    workers: int = 4
    #: Bounded request queue; a full queue triggers busy rejections.
    queue_size: int = 64
    #: Retry hint (seconds) sent with busy rejections.
    retry_after: float = 0.05
    #: Admission ceiling on estimated traversal rows; None disables.
    max_estimated_rows: float | None = None
    #: Completed op_key outcomes kept for duplicate-replay (FIFO).
    dedup_capacity: int = 65536
    #: Default grace for :meth:`ReproServer.drain` (SIGTERM handling):
    #: stop accepting, let in-flight requests finish for up to this
    #: many seconds, then close.
    drain_timeout: float = 5.0


class _DedupEntry:
    """Lifecycle of one op_key: in-flight → done(outcome)."""

    __slots__ = ("done", "outcome", "waiters")

    def __init__(self) -> None:
        self.done = False
        self.outcome: dict | None = None
        #: (connection, request id) pairs awaiting the first execution.
        self.waiters: list[tuple["_Connection", object]] = []


class _Connection:
    """One accepted client connection (reader thread + write lock)."""

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.write_lock = threading.Lock()
        self.closed = False

    def send(self, message: dict) -> None:
        """Best-effort framed write (a vanished client is not an error)."""
        try:
            with self.write_lock:
                codec.send_message(self.sock, message)
        except OSError:
            self.close()

    def close(self) -> None:
        self.closed = True
        try:
            # shutdown() first: close() alone does not interrupt a
            # thread blocked in recv() on this socket (the in-flight
            # syscall keeps the kernel socket alive, so the peer never
            # sees a FIN until the next message arrives).
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


class ReproServer:
    """Serves one SUT over the wire protocol."""

    def __init__(self, sut, config: ServerConfig | None = None) -> None:
        self.sut = sut
        self.config = config or ServerConfig()
        self.admission = AdmissionController.for_sut(
            sut, self.config.max_estimated_rows)
        self._listener: socket.socket | None = None
        self._queue: queue.Queue = queue.Queue(
            maxsize=max(1, self.config.queue_size))
        self._threads: list[threading.Thread] = []
        self._connections: list[_Connection] = []
        self._conn_lock = threading.Lock()
        self._dedup: OrderedDict[str, _DedupEntry] = OrderedDict()
        self._dedup_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "executed": 0,
            "errors": 0,
            "rejected_busy": 0,
            "rejected_admission": 0,
            "deduped": 0,
        }
        self._shutdown = threading.Event()
        self._draining = False
        self._active_jobs = 0
        self._active_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind, spawn workers and the accept loop; return (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        self._listener = listener
        for index in range(max(1, self.config.workers)):
            thread = threading.Thread(target=self._worker_main,
                                      name=f"repro-net-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(target=self._accept_main,
                                    name="repro-net-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
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

        Stops accepting *new connections* immediately but keeps
        serving the live ones: queued requests execute, pipelined
        batches complete, and duplicate-waiters parked on an in-flight
        ``op_key`` hear their replayed outcome — none of which survives
        a bare :meth:`shutdown`, which resets every socket mid-batch.
        Once the queue is empty and no worker holds a job (or
        ``timeout`` seconds pass), the full shutdown runs.  Returns
        True when the drain completed cleanly, False on timeout.
        """
        if timeout is None:
            timeout = self.config.drain_timeout
        self._draining = True
        self._close_listener()
        deadline = time.monotonic() + max(0.0, timeout)
        idle_checks = 0
        while time.monotonic() < deadline:
            with self._active_lock:
                active = self._active_jobs
            if self._queue.empty() and active == 0:
                # Require a few consecutive idle observations: a reader
                # thread may be between recv() and queue.put.
                idle_checks += 1
                if idle_checks >= 3:
                    break
            else:
                idle_checks = 0
            time.sleep(0.005)
        with self._active_lock:
            active = self._active_jobs
        completed = self._queue.empty() and active == 0
        self.shutdown()
        return completed

    def shutdown(self) -> None:
        """Stop accepting, close connections, release workers."""
        if self._shutdown.is_set():
            return  # idempotent: sentinels are already in flight
        self._shutdown.set()
        self._close_listener()
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        # One blocking put per worker: with jobs still queued,
        # put_nowait would drop sentinels and leave workers parked on
        # get() forever.  Workers keep draining the backlog, so each
        # put completes once a slot frees up.
        for __ in range(max(1, self.config.workers)):
            self._queue.put(None)

    def stats(self) -> dict:
        with self._stats_lock:
            counters = dict(self._stats)
        counters["admission_admitted"] = self.admission.admitted
        counters["admission_rejected"] = self.admission.rejected
        return counters

    def _count(self, name: str, telemetry_name: str | None = None) -> None:
        with self._stats_lock:
            self._stats[name] += 1
        if telemetry_name is not None and telemetry.active:
            telemetry.counter(telemetry_name).inc()

    # -- accept / read loops -----------------------------------------------

    def _accept_main(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock, peer)
            with self._conn_lock:
                self._connections.append(connection)
            thread = threading.Thread(
                target=self._connection_main, args=(connection,),
                name=f"repro-net-conn-{peer[1]}", daemon=True)
            thread.start()

    def _connection_main(self, connection: _Connection) -> None:
        try:
            while not connection.closed:
                try:
                    message = codec.recv_message(connection.sock)
                except codec.CodecError as exc:
                    # Framing is unrecoverable mid-stream: answer what
                    # we can, then drop the connection.
                    connection.send(self._error_response(
                        None, "fatal", f"protocol error: {exc}"))
                    return
                except OSError:
                    return
                if message is None:
                    return  # clean EOF
                self._handle_message(connection, message)
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

    def _handle_message(self, connection: _Connection,
                        message: dict) -> None:
        self._count("requests", REQUESTS_COUNTER)
        request_id = message.get("id")
        kind = message.get("kind")
        if kind == "admin":
            connection.send(self._handle_admin(request_id, message))
            return
        if kind != "execute":
            connection.send(self._error_response(
                request_id, "fatal", f"unknown request kind {kind!r}"))
            return
        try:
            op = codec.decode_operation(message.get("op"))
        except codec.CodecError as exc:
            self._count("errors")
            connection.send(self._error_response(
                request_id, "fatal", f"undecodable operation: {exc}"))
            return

        verdict = self.admission.review(op)
        if not verdict.admitted:
            self._count("rejected_admission", ADMISSION_COUNTER)
            connection.send(self._error_response(
                request_id, "rejected",
                f"admission control refused {op.op_class}: estimated "
                f"{verdict.estimated_rows:.0f} rows > "
                f"{self.admission.max_estimated_rows:.0f} "
                f"({verdict.derivation})"))
            return

        op_key = message.get("op_key")
        if op_key is not None:
            entry, is_duplicate = self._dedup_claim(
                op_key, connection, request_id)
            if is_duplicate:
                self._count("deduped", DEDUP_COUNTER)
                if entry.done:
                    connection.send(self._replay(entry, request_id))
                # else: registered as a waiter; answered on completion.
                return
        try:
            self._queue.put_nowait((connection, request_id, op, op_key))
        except queue.Full:
            self._count("rejected_busy", BUSY_COUNTER)
            busy = self._error_response(
                request_id, "busy",
                f"request queue full ({self.config.queue_size})",
                retry_after=self.config.retry_after)
            if op_key is not None:
                # Duplicates that registered as waiters between the
                # claim and this rejection must hear the busy error
                # too, or their clients block for the full timeout.
                for waiter_conn, waiter_id in \
                        self._dedup_abandon(op_key):
                    waiter_conn.send(dict(busy, id=waiter_id))
            connection.send(busy)

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

    # -- dedup -------------------------------------------------------------

    def _dedup_claim(self, op_key: str, connection: _Connection,
                     request_id) -> tuple[_DedupEntry, bool]:
        """Claim a token; True means another attempt owns execution."""
        with self._dedup_lock:
            entry = self._dedup.get(op_key)
            if entry is None:
                entry = _DedupEntry()
                self._dedup[op_key] = entry
                while len(self._dedup) > self.config.dedup_capacity:
                    # Evict the oldest *completed* outcome only.
                    for key in self._dedup:
                        if self._dedup[key].done:
                            del self._dedup[key]
                            break
                    else:
                        break
                return entry, False
            if not entry.done:
                entry.waiters.append((connection, request_id))
            return entry, True

    def _dedup_abandon(self, op_key: str) -> list:
        """Drop an in-flight claim; return waiters owed an answer.

        The next request with this token re-executes from scratch.
        The caller must send each returned ``(connection, request_id)``
        waiter a response — they are owed one and nothing else will
        answer them.
        """
        with self._dedup_lock:
            entry = self._dedup.get(op_key)
            if entry is None or entry.done:
                return []
            del self._dedup[op_key]
            waiters, entry.waiters = entry.waiters, []
            return waiters

    def _dedup_complete(self, op_key: str, outcome: dict,
                        ) -> tuple[_DedupEntry | None, list]:
        """Record the outcome; return the entry and waiters to answer."""
        with self._dedup_lock:
            entry = self._dedup.get(op_key)
            if entry is None:  # pragma: no cover - abandoned meanwhile
                return None, []
            entry.done = True
            entry.outcome = outcome
            waiters, entry.waiters = entry.waiters, []
            return entry, waiters

    @staticmethod
    def _is_transient_outcome(outcome: dict) -> bool:
        return (outcome.get("kind") == "error"
                and outcome.get("error") == "transient")

    @staticmethod
    def _replay(entry: _DedupEntry, request_id) -> dict:
        response = dict(entry.outcome)
        response["id"] = request_id
        response["deduped"] = True
        return response

    # -- workers -----------------------------------------------------------

    def _worker_main(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return  # shutdown sentinel
            with self._active_lock:
                self._active_jobs += 1
            try:
                self._run_job(job)
            finally:
                with self._active_lock:
                    self._active_jobs -= 1

    def _run_job(self, job) -> None:
        connection, request_id, op, op_key = job
        outcome = self._execute(op)
        if op_key is not None:
            if self._is_transient_outcome(outcome):
                # A transient failure (e.g. a write conflict under
                # concurrent workers) must not become the token's
                # remembered outcome: the update never applied, so
                # the client's retry has to re-execute rather than
                # replay the error until its budget runs out.
                # Waiters hear the transient error directly.
                for waiter_conn, waiter_id in \
                        self._dedup_abandon(op_key):
                    waiter_conn.send(dict(outcome, id=waiter_id))
            else:
                entry, waiters = self._dedup_complete(
                    op_key, outcome)
                if entry is not None:
                    for waiter_conn, waiter_id in waiters:
                        waiter_conn.send(
                            self._replay(entry, waiter_id))
        response = dict(outcome)
        response["id"] = request_id
        connection.send(response)

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
