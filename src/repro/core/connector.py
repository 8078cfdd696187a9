"""The connector contract, and the interactive-workload connector.

:class:`ConnectorProtocol` is the formal, runtime-checkable statement
of what every layer between the driver and a SUT implements: the
scheduler's retry loop, the fault injector, the remote wire client,
every SUT itself — all are connectors, all compose.  The contract is
``execute`` plus ``close``, nothing else.

:class:`InteractiveConnector` is the full-workload implementation:
updates pass straight through; complex reads additionally trigger the
short-read random walk seeded from their results, with each short read
timed into a dedicated recorder (the driver times the update/complex-read
operation itself).

Every operation — whatever legacy shape the driver hands over — is
coerced into the typed :mod:`repro.core.operation` union and dispatched
through the SUT's single ``execute`` entry point.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from .. import telemetry
from ..driver.metrics import LatencyRecorder
from ..rng import RandomStream
from ..workload.operations import EntityRef
from ..workload.random_walk import (
    RandomWalkConfig,
    extract_entities,
    run_walk,
)
from .operation import ComplexRead, ShortRead, as_operation
from .sut import SystemUnderTest


@runtime_checkable
class ConnectorProtocol(Protocol):
    """What the driver (and every wrapping layer) requires of a connector.

    ``isinstance`` checks member *presence* only.
    """

    def execute(self, operation) -> object:
        """Run one operation to completion (raising on failure)."""
        ...

    def close(self) -> None:
        """Release held resources (sockets, delegates); idempotent."""
        ...


class InteractiveConnector:
    """Dispatches driver operations to a system under test."""

    def __init__(self, sut: SystemUnderTest,
                 walk: RandomWalkConfig | None = None,
                 seed: int = 0) -> None:
        self.sut = sut
        self.walk = walk or RandomWalkConfig()
        self.seed = seed
        #: Short-read latencies, recorded per S-class.
        self.short_recorder = LatencyRecorder()
        self.short_reads_executed = 0

    def execute(self, operation) -> None:
        op = as_operation(operation)
        if telemetry.active:
            with telemetry.span("connector.execute",
                                operation=op.op_class):
                self._dispatch(op)
        else:
            self._dispatch(op)

    def _dispatch(self, op) -> None:
        result = self.sut.execute(op)
        if isinstance(op, ComplexRead):
            self._run_short_walk(op, result.value)

    def _run_short_walk(self, operation: ComplexRead,
                        result: object) -> None:
        seeds = extract_entities(result)
        if not seeds:
            return
        stream = RandomStream.for_key(self.seed, "walk",
                                      operation.walk_seed)
        self.short_reads_executed += run_walk(
            self._execute_short, seeds, self.walk, stream)

    def _execute_short(self, query_id: int, entity):
        ref = EntityRef.of(entity)
        started = time.perf_counter()
        value = self.sut.execute(ShortRead(query_id, ref)).value
        self.short_recorder.record(f"S{query_id}",
                                   time.perf_counter() - started)
        return value

    def close(self) -> None:
        close = getattr(self.sut, "close", None)
        if callable(close):
            close()
