"""Hierarchical spans with thread-local context propagation.

A :class:`Span` is one timed region of work; a :class:`Tracer` collects
finished spans from any number of threads.  Each thread carries its own
stack of open spans, so a span started while another is open becomes its
child (``scheduler.partition.3`` → ``op.Complex2`` → ``engine.HashJoin``)
without any explicit plumbing through the call chain.

Spans survive suspension inside generators: the engine opens an
operator span when iteration starts and closes it when the generator is
exhausted *or* garbage-collected, which can pop spans out of LIFO order
(a ``Limit`` abandons its child mid-stream).  :meth:`Tracer.end_span`
therefore removes a span from wherever it sits on the stack rather than
requiring it to be on top.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Span:
    """One timed, attributed region of work."""

    __slots__ = ("name", "span_id", "parent_id", "thread_id",
                 "thread_name", "start", "end", "attributes")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 thread_id: int, thread_name: str, start: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.thread_name = thread_name
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, Any] = {}

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns self for chaining."""
        self.attributes[key] = value
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, "
                f"dur={self.duration_seconds * 1000:.3f}ms)")


class Tracer:
    """Thread-safe collector of hierarchical spans.

    All timestamps come from one monotonic clock (``time.perf_counter``
    by default) relative to :attr:`epoch`, taken at construction, so
    spans from different threads share a timeline.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 ) -> None:
        self._clock = clock
        self.epoch = clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._locals = threading.local()
        self._next_id = 1

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._locals, "stack", None)
        if stack is None:
            stack = self._locals.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of the thread's current span."""
        stack = self._stack()
        thread = threading.current_thread()
        span = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=stack[-1].span_id if stack else None,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start=self._clock(),
        )
        if attributes:
            span.attributes.update(attributes)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close a span and hand it to the collector.

        Tolerates out-of-LIFO closing (generator teardown): the span is
        removed from wherever it sits on this thread's stack; any spans
        above it keep their recorded parent.
        """
        if span.end is not None:
            return
        span.end = self._clock()
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is span:
                del stack[position]
                break
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context manager opening/closing one span."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    def add_span(self, name: str, start: float, end: float,
                 thread_id: int | None = None,
                 thread_name: str | None = None,
                 **attributes: Any) -> Span:
        """Record an already-timed region (clock timestamps).

        Used by code that measured itself (e.g. datagen stage timings);
        the span is parented to the thread's current open span.

        ``thread_id``/``thread_name`` override the recorded track:
        spans stitched in from datagen worker *processes* carry the
        worker's pid so each worker renders as its own timeline in the
        Chrome trace instead of piling onto the parent thread.
        """
        stack = self._stack()
        thread = threading.current_thread()
        span = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=stack[-1].span_id if stack else None,
            thread_id=thread_id if thread_id is not None
            else (thread.ident or 0),
            thread_name=thread_name if thread_name is not None
            else thread.name,
            start=start,
        )
        span.end = end
        if attributes:
            span.attributes.update(attributes)
        with self._lock:
            self._spans.append(span)
        return span

    # -- views --------------------------------------------------------------

    def current_span(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished_spans(self) -> list[Span]:
        """Snapshot of all closed spans (collection order)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
