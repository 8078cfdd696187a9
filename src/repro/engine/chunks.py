"""Columnar chunk format: the unit operators exchange.

The engine moves batches of up to ``CHUNK_SIZE`` rows between operators
as *chunks*: parallel column arrays (plain Python lists / tuples), so
per-operator work is bulk list comprehensions, ``zip`` transposes and
set operations — all C-level loops — instead of one Python-level
generator hop per row per operator.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

#: Rows per chunk.  Large enough to amortize per-chunk overhead, small
#: enough that gather buffers stay cache-friendly.
CHUNK_SIZE = 1024


class Chunk:
    """A batch of rows as parallel column arrays.

    ``columns[i][j]`` is column *i* of row *j*.  Columns may be lists or
    tuples; producers that build fresh columns use lists, transposes of
    existing row tuples stay tuples — consumers only index and iterate.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[Sequence]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def rows(self) -> Iterator[tuple]:
        """Row-tuple view (one ``zip`` transpose, C-level)."""
        return zip(*self.columns)

    def gather(self, indices: Sequence[int]) -> "Chunk":
        """New chunk keeping ``indices`` rows in the given order."""
        return Chunk([list(map(column.__getitem__, indices))
                      for column in self.columns])

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], width: int) -> "Chunk":
        """Transpose row tuples into a chunk (empty input → empty)."""
        columns = list(zip(*rows))
        if not columns:
            columns = [() for _ in range(width)]
        return cls(columns)


def chunk_rows(rows: Iterable[tuple], width: int) -> Iterator[Chunk]:
    """Batch a row stream (or list) into chunks, lazily."""
    stream = iter(rows)
    while block := list(islice(stream, CHUNK_SIZE)):
        yield Chunk.from_rows(block, width)
