"""One request/response channel over a pluggable transport.

The wire client (one channel per pooled socket) and the shard router
(one per worker pipe) both talk through :class:`Channel`.  It carries
one request at a time: under its lock it sends ``(request_id, body)``
and reads until the answer with that id arrives, dropping any other as
the late reply to an earlier call that missed its deadline.  A
transport provides ``send(request_id, body)``, ``poll(timeout) ->
bool``, ``recv() -> (request_id, body)`` and ``close()``.
"""

from __future__ import annotations

import itertools
import threading
import time

from .codec import CodecError


class Channel:
    """Request/response over one transport, one request in flight."""

    def __init__(self, transport) -> None:
        self.transport = transport
        #: Why the channel failed, or None while it is usable.  A dead
        #: channel has closed its transport and refuses every call.
        self.dead: BaseException | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def call(self, body, timeout: float | None):
        """Send ``body``; return the answer to it.

        A missed deadline (``timeout`` seconds; None waits forever)
        raises the builtin :class:`TimeoutError` and leaves the channel
        usable.  A failed transport raises :class:`ConnectionError` and
        leaves the channel dead.
        """
        with self._lock:
            if self.dead is not None:
                raise ConnectionError(
                    f"channel closed: {self.dead}") from self.dead
            request_id = next(self._ids)
            deadline = None if timeout is None \
                else time.monotonic() + timeout
            try:
                self.transport.send(request_id, body)
                while deadline is None or self.transport.poll(
                        max(0.0, deadline - time.monotonic())):
                    answer_id, answer = self.transport.recv()
                    if answer_id == request_id:
                        return answer
            except (EOFError, OSError, CodecError) as exc:
                self.dead = exc
                self.close()
                raise ConnectionError(
                    f"connection lost awaiting request {request_id}: "
                    f"{exc}") from exc
        raise TimeoutError(
            f"no answer within {timeout:.3f}s (request {request_id})")

    def close(self) -> None:
        """Mark the channel dead and close its transport."""
        if self.dead is None:
            self.dead = ConnectionError("channel closed")
        try:
            self.transport.close()
        except OSError:
            pass  # already closed by the peer
