"""Read operations for the mixed workload stream.

The driver is operation-agnostic: anything exposing due/dependency times
and the Dependencies/Dependents flags schedules identically.  Reads
depend on nothing and nothing depends on them ("as they contain no
inter-dependencies, executing the read queries in parallel is trivial" —
paper §4.2), so both flags are off and the dependency metadata is zero.

This module is also home to :class:`EntityRef`, the typed reference to
a person/message entity that short reads take as input.

Every operation shape — stream reads, update operations and the typed
:mod:`repro.core.operation` union — names its latency/span class
(``Q9``, ``S3``, ``ADD_POST``, ...) through one ``op_class`` property,
so the driver scheduler, the connector spans and the telemetry metrics
bridge agree on per-class labels.
"""

from __future__ import annotations

from dataclasses import dataclass

PERSON_KIND = "person"
MESSAGE_KIND = "message"


@dataclass(frozen=True, eq=False)
class EntityRef:
    """A typed, hashable reference to a workload entity.

    Replaces the raw ``(kind, id)`` tuples historically passed to short
    reads.  Hashable (so it can key sets and dicts) and
    tuple-compatible for the transition: it unpacks (``kind, eid = ref``),
    indexes (``ref[1]``), and compares equal to the tuple it replaces.
    """

    kind: str
    id: int

    @classmethod
    def person(cls, entity_id: int) -> "EntityRef":
        return cls(PERSON_KIND, entity_id)

    @classmethod
    def message(cls, entity_id: int) -> "EntityRef":
        return cls(MESSAGE_KIND, entity_id)

    @classmethod
    def of(cls, value) -> "EntityRef":
        """Coerce an EntityRef or legacy ``(kind, id)`` tuple."""
        if isinstance(value, EntityRef):
            return value
        kind, entity_id = value
        return cls(kind, entity_id)

    @property
    def is_person(self) -> bool:
        return self.kind == PERSON_KIND

    def as_json(self) -> list:
        """JSON-able ``[kind, id]`` form (round-trips through :meth:`of`)."""
        return [self.kind, self.id]

    def __iter__(self):
        yield self.kind
        yield self.id

    def __getitem__(self, index: int):
        return (self.kind, self.id)[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, EntityRef):
            return self.kind == other.kind and self.id == other.id
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        # Same hash as the tuple it replaces, so refs and legacy tuples
        # address the same dict slots during the deprecation window.
        return hash((self.kind, self.id))


@dataclass(frozen=True)
class ReadOperation:
    """One scheduled complex read (with its short-read walk)."""

    query_id: int
    params: object
    due_time: int
    #: Seed for the short-read random walk run after this query.
    walk_seed: int = 0

    depends_on_time: int = 0
    global_depends_on_time: int = 0
    partition_key: int | None = None

    @property
    def is_dependency(self) -> bool:
        return False

    @property
    def is_dependent(self) -> bool:
        return False

    @property
    def op_class(self) -> str:
        return f"Q{self.query_id}"
