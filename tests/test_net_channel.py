"""The request channel over a real ``multiprocessing.Pipe``.

The peer is a serial echo worker on a thread speaking the shard
worker's ``(seq, method, args)`` / ``(seq, status, payload)`` tuples;
the loopback-socket twins of these cases are in ``test_net_server.py``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.net.channel import Channel
from repro.shard.router import PipeTransport


def _echo_peer(conn, delays: list[float]) -> threading.Thread:
    """Answer one request per entry of ``delays``, each after its delay."""
    def serve() -> None:
        for delay in delays:
            seq, method, args = conn.recv()
            time.sleep(delay)
            conn.send((seq, "ok", (method, args)))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def pipe():
    ours, theirs = multiprocessing.Pipe(duplex=True)
    yield Channel(PipeTransport(ours)), theirs
    ours.close()
    theirs.close()


def test_round_trip(pipe):
    channel, peer = pipe
    _echo_peer(peer, [0.0])
    assert channel.call(("ping", ()), 5.0) == ("ok", ("ping", ()))


def test_late_answer_is_dropped_and_channel_stays_usable(pipe):
    channel, peer = pipe
    worker = _echo_peer(peer, [0.3, 0.0])
    with pytest.raises(TimeoutError):
        channel.call(("slow", 1), 0.05)
    assert channel.dead is None
    # The peer answers request 1 late, then request 2: the stale answer
    # is skipped and the caller gets its own.
    assert channel.call(("fast", 2), 5.0) == ("ok", ("fast", 2))
    worker.join(5.0)


def test_dead_transport_raises_connection_error(pipe):
    channel, peer = pipe
    peer.close()
    with pytest.raises(ConnectionError):
        channel.call(("ping", ()), 5.0)
    assert channel.dead is not None
    # A dead channel refuses every later call without touching the pipe.
    with pytest.raises(ConnectionError, match="channel closed"):
        channel.call(("ping", ()), 5.0)
