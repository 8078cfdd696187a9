"""Harness-side tracing: timing proxies around each layer's public calls.

Nothing inside ``src/`` knows about this module.  The harness replaces
bound methods *on the instances it built* (``connector.execute``,
``sut.execute``, ``router.call``/``gather``/``call_many``,
``handle.call``) with proxies that record one span per call: name,
layer, start, end, the span that caused it, and the id of the scheduled
operation they all belong to.  Spans stay in memory until the run ends.

The traced run plays one sequential driver partition, so one stack of
open spans describes "what is running now".  The only calls made off
that thread are the shard RPCs a ``gather`` fans out on pool threads;
they are leaves, so they read the top of the stack (their parent, which
is blocked waiting for them) and never push.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    #: 0 for a root span.
    parent: int
    #: Shared by every span one scheduled operation caused; 0 for roots.
    op_id: int
    name: str
    layer: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the proxies it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(method, args, result)`` of every shard RPC, sized after
        #: the run so pickling never lands inside a timed span.
        self.rpc_payloads: list[tuple] = []
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._open: list[tuple[int, int]] = []

    def wrap(self, fn: Callable, layer: str,
             name_of: Callable[[tuple], str], *,
             new_op: bool = False, leaf: bool = False,
             keep_payload: bool = False) -> Callable:
        """A proxy for ``fn`` that records one span per call."""
        spans, stack = self.spans, self._open
        ids, op_ids = self._ids, self._op_ids
        payloads = self.rpc_payloads
        clock, thread_id = time.perf_counter, threading.get_ident

        def proxy(*args, **kwargs):
            span_id = next(ids)
            parent, op_id = stack[-1] if stack else (0, 0)
            if new_op:
                op_id = next(op_ids)
            if not leaf:
                stack.append((span_id, op_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if not leaf:
                    stack.pop()
                spans.append(Span(span_id, parent, op_id, name_of(args),
                                  layer, start, end, thread_id()))
            if keep_payload:
                payloads.append((args[0], args[1], result))
            return result

        return proxy

    # -- what the harness instruments --------------------------------------

    def root(self, fn: Callable, name: str, layer: str) -> Callable:
        return self.wrap(fn, layer, lambda args: name)

    def instrument_connector(self, connector) -> None:
        connector.execute = self.wrap(
            connector.execute, "core",
            lambda args: "core.connector.execute", new_op=True)

    def instrument_sut(self, sut, layer: str) -> None:
        """``sut.execute`` is a leaf unless the SUT is the shard router."""
        sut.execute = self.wrap(
            sut.execute, layer,
            lambda args: f"{layer}.{args[0].op_class}",
            leaf=(layer != "shard"))

    def instrument_router(self, router) -> None:
        router.call = self.wrap(
            router.call, "shard",
            lambda args: f"shard.router.call:{args[1]}")
        router.gather = self.wrap(
            router.gather, "shard",
            lambda args: f"shard.router.gather:{args[0]}")
        router.call_many = self.wrap(
            router.call_many, "shard",
            lambda args: "shard.router.call_many:"
            + next(iter(args[0].values()))[0])
        for handle in router.handles:
            handle.call = self.wrap(
                handle.call, "shard",
                lambda args: f"shard.rpc:{args[0]}",
                leaf=True, keep_payload=True)


# -- analysis ---------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → its duration minus what its children cover of it.

    Children may overlap (a ``gather`` runs its RPCs in parallel), so
    the covered part is the union of the child intervals, clipped to
    the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def layer_self_times(spans: list[Span],
                     own: dict[int, float] | None = None,
                     ) -> dict[str, float]:
    """Layer → summed self time of its spans (``own``: their
    :func:`self_times`, when the caller already has them)."""
    if own is None:
        own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.id]
    return dict(totals)


def descendants_of(spans: list[Span], root_id: int) -> list[Span]:
    """The root span and everything it (transitively) caused."""
    by_parent: dict[int, list[Span]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_parent[span.parent].append(span)
        by_id[span.id] = span
    found = [by_id[root_id]]
    frontier = [root_id]
    while frontier:
        batch = by_parent.get(frontier.pop(), ())
        found.extend(batch)
        frontier.extend(span.id for span in batch)
    return found


# -- Chrome trace -----------------------------------------------------------

def write_chrome_trace(spans: list[Span], path: str) -> None:
    """``chrome://tracing`` / Perfetto JSON; hierarchy is in ``args``."""
    origin = min((span.start for span in spans), default=0.0)
    events = [{
        "name": span.name, "cat": span.layer, "ph": "X",
        "ts": (span.start - origin) * 1e6,
        "dur": span.duration * 1e6,
        "pid": 1, "tid": span.thread,
        "args": {"span_id": span.id, "parent_id": span.parent,
                 "op_id": span.op_id},
    } for span in spans]
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def read_chrome_trace(path: str) -> list[Span]:
    """Spans back from a file :func:`write_chrome_trace` wrote."""
    with open(path) as source:
        events = json.load(source)["traceEvents"]
    return [Span(e["args"]["span_id"], e["args"]["parent_id"],
                 e["args"]["op_id"], e["name"], e["cat"],
                 e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6, e["tid"])
            for e in events]
