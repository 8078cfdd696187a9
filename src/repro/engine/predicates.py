"""Declarative column predicates for residual filters.

A :class:`JoinStep` residual written as a plain ``lambda row: ...`` has
to see whole row tuples.  The declarative forms here name the column
they test, so a :class:`~.operators.Filter` (or an index-nested-loop
join carrying the residual) resolves positions against its schema once
and then evaluates the predicate as one pass over the named column of
each chunk, producing the list of surviving row indices for a bulk
gather.

Only the comparison shapes the 14 complex-read plans need are modelled;
``Where`` covers anything else with a per-value function (one
comprehension over a single column rather than one call per row).
"""

from __future__ import annotations

import operator as _op
from itertools import compress, count, repeat
from typing import Any, Callable, Iterable, Sequence

from ..errors import EngineError
from .rows import Schema

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "lt": _op.lt,
    "le": _op.le,
    "gt": _op.gt,
    "ge": _op.ge,
    "eq": _op.eq,
    "ne": _op.ne,
}


class Predicate:
    """Base class: a column-aware boolean condition."""

    def resolve(self, schema: Schema) -> None:
        """Bind column names to positions in the input schema."""
        raise NotImplementedError

    def keep_indices(self, columns: Sequence[Sequence]) -> list[int]:
        """Indices of surviving rows in one columnar pass."""
        raise NotImplementedError


class Compare(Predicate):
    """``column <op> value`` for op in lt/le/gt/ge/eq/ne."""

    __slots__ = ("column", "op", "value", "_position", "_fn")

    def __init__(self, column: str, op: str, value: Any) -> None:
        if op not in _OPS:
            raise EngineError(f"unknown comparison {op!r}")
        self.column = column
        self.op = op
        self.value = value
        self._position: int | None = None
        self._fn = _OPS[op]

    def resolve(self, schema: Schema) -> None:
        self._position = schema.position(self.column)

    def keep_indices(self, columns: Sequence[Sequence]) -> list[int]:
        # map + compress keep the whole scan in C: no Python-level loop
        # body, just one bound-method dispatch per batch.  count()
        # instead of range(len(...)) so the column may be a lazy
        # iterator (the INL join's un-materialized candidate view).
        flags = map(self._fn, columns[self._position],
                    repeat(self.value))
        return list(compress(count(), flags))

    def __repr__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


class InSet(Predicate):
    """``column in values`` (or ``not in`` with ``negate=True``)."""

    __slots__ = ("column", "values", "negate", "_position")

    def __init__(self, column: str, values: Iterable[Any],
                 negate: bool = False) -> None:
        self.column = column
        self.values = frozenset(values)
        self.negate = negate
        self._position: int | None = None

    def resolve(self, schema: Schema) -> None:
        self._position = schema.position(self.column)

    def keep_indices(self, columns: Sequence[Sequence]) -> list[int]:
        flags = map(self.values.__contains__, columns[self._position])
        if self.negate:
            flags = map(_op.not_, flags)
        return list(compress(count(), flags))

    def __repr__(self) -> str:
        word = "not in" if self.negate else "in"
        return f"{self.column} {word} {{{len(self.values)} values}}"


class Where(Predicate):
    """``fn(column_value)`` — arbitrary per-value condition."""

    __slots__ = ("column", "fn", "_position")

    def __init__(self, column: str, fn: Callable[[Any], bool]) -> None:
        self.column = column
        self.fn = fn
        self._position: int | None = None

    def resolve(self, schema: Schema) -> None:
        self._position = schema.position(self.column)

    def keep_indices(self, columns: Sequence[Sequence]) -> list[int]:
        fn = self.fn
        column = columns[self._position]
        return [i for i, item in enumerate(column) if fn(item)]

    def __repr__(self) -> str:
        return f"{self.column} where {getattr(self.fn, '__name__', '?')}"


class All(Predicate):
    """Conjunction of predicates, evaluated column-wise in sequence."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate) -> None:
        if not parts:
            raise EngineError("All() of nothing")
        self.parts = parts

    def resolve(self, schema: Schema) -> None:
        for part in self.parts:
            part.resolve(schema)

    def keep_indices(self, columns: Sequence[Sequence]) -> list[int]:
        # Each conjunct scans only its own column; the surviving index
        # sets are intersected and re-sorted to preserve row order.
        kept = set(self.parts[0].keep_indices(columns))
        for part in self.parts[1:]:
            if not kept:
                break
            kept &= set(part.keep_indices(columns))
        return sorted(kept)

    def __repr__(self) -> str:
        return " and ".join(repr(part) for part in self.parts)
