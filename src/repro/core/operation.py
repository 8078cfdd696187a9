"""The typed operation union of the unified SUT API.

A system under test executes exactly one method —
``execute(op: Operation) -> OperationResult`` — over three operation
shapes mirroring the workload's three operation classes (paper §3):

* :class:`ComplexRead` — a complex read-only query Q1–Q14;
* :class:`ShortRead` — a short lookup S1–S7 on one entity;
* :class:`Update` — one insert from the update stream.

:func:`as_operation` coerces the legacy shapes still produced by the
driver (``ReadOperation`` stream items, raw ``UpdateOperation`` values)
so connectors can accept both during the deprecation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..datagen.update_stream import UpdateOperation
from ..workload.operations import EntityRef, ReadOperation


@dataclass(frozen=True)
class ComplexRead:
    """One complex read: query id and its parameter binding."""

    query_id: int
    params: object
    #: Seed for the short-read walk the connector runs on the result.
    walk_seed: int = 0

    @property
    def op_class(self) -> str:
        return f"Q{self.query_id}"


@dataclass(frozen=True)
class ShortRead:
    """One short read against a single entity."""

    query_id: int
    entity: EntityRef

    @property
    def op_class(self) -> str:
        return f"S{self.query_id}"


@dataclass(frozen=True)
class Update:
    """One transactional update from the update stream."""

    operation: UpdateOperation

    @property
    def op_class(self) -> str:
        return self.operation.kind.name


Operation = Union[ComplexRead, ShortRead, Update]


@dataclass(frozen=True)
class OperationResult:
    """What ``execute`` returns: the operation and its value.

    ``value`` holds the result rows for reads and ``None`` for updates.
    """

    op_class: str
    value: object = None


def as_operation(raw) -> Operation:
    """Coerce any legacy operation shape into the typed union."""
    if isinstance(raw, (ComplexRead, ShortRead, Update)):
        return raw
    if isinstance(raw, UpdateOperation):
        return Update(raw)
    if isinstance(raw, ReadOperation):
        return ComplexRead(raw.query_id, raw.params, raw.walk_seed)
    raise TypeError(f"unsupported operation {type(raw).__name__}")
