"""Canonical result forms, digests, and structured per-column diffs.

Every validation surface — the static cross-SUT checker
(:mod:`repro.core.validation`), the update-aware differential runner,
golden datasets, and replay bundles — compares query results through the
same canonical form so a disagreement means the same thing everywhere:

* :func:`canonicalize` maps a query result (a result dataclass, a list
  of them, or ``None``) to plain JSON-compatible data: dataclasses
  become ``{field: value}`` dicts, tuples become lists;
* :func:`comparable` is the single per-query comparison projection.
  Since the relational engine now materializes the denormalized
  multi-valued person attributes (``person_email`` /
  ``person_language``), every query compares on the full canonical row;
  this function stays the one place to register a projection should a
  future SUT genuinely not produce a column;
* :func:`read_outcome` executes one read and returns that form, turning
  a raised exception into an ``<error>`` row so it compares (and diffs)
  like any other wrong answer;
* :func:`diff_results` produces a structured :class:`ResultDiff` — the
  first differing rows *per column*, not just row counts.

This module is intentionally stdlib-only so every layer (including the
driver) may import it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum


def canonicalize(value):
    """Recursively convert a result value to JSON-compatible data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, dict):
        return {str(key): canonicalize(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonicalize(item) for item in value), key=repr)
    return value


def comparable(query_id: int, rows) -> object:
    """The shared comparison form of one query's result.

    ``query_id`` is accepted (and currently unused) so per-query
    projections have exactly one home if a SUT ever cannot emit a
    column — the historical Q1 shared-column projection lived here
    until the engine grew ``person_email`` / ``person_language``.
    """
    return canonicalize(rows)


def read_outcome(sut, op) -> object:
    """What one read produced on ``sut``, in :func:`comparable` form.

    A read that raises yields a one-row ``<error>`` result instead of
    propagating: a SUT failing a read the other side (or the golden
    expectation) answers is a disagreement to report — with its diff,
    replay bundle and shrink — exactly like wrong rows, not a crash of
    the harness.  Two SUTs raising the same error still agree.
    """
    try:
        return comparable(op.query_id, sut.execute(op).value)
    except Exception as exc:
        return [{"<error>": f"{type(exc).__name__}: {exc}"}]


def canonical_json(value) -> str:
    """Deterministic JSON encoding of a (canonicalized) value."""
    return json.dumps(canonicalize(value), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


#: Sequence items encoded per piece by :func:`_json_pieces`.
_PIECE_ITEMS = 2048


def _json_pieces(value):
    """The text of :func:`canonical_json`, a bounded piece at a time.

    A mapping is emitted key by key and a sequence in blocks of items,
    so hashing a full-database snapshot holds one block's canonical copy
    and JSON text, not the whole snapshot's.
    """
    if isinstance(value, dict):
        items = {str(key): item for key, item in value.items()}
        yield "{"
        for position, key in enumerate(sorted(items)):
            yield ("," if position else "") + json.dumps(key) + ":"
            yield from _json_pieces(items[key])
        yield "}"
    elif isinstance(value, (list, tuple)):
        yield "["
        for start in range(0, len(value), _PIECE_ITEMS):
            block = canonical_json(value[start:start + _PIECE_ITEMS])
            yield ("," if start else "") + block[1:-1]
        yield "]"
    else:
        yield canonical_json(value)


def digest(value) -> str:
    """Content digest of a value's canonical JSON form."""
    hasher = hashlib.sha256()
    for piece in _json_pieces(value):
        hasher.update(piece.encode("utf-8"))
    return "sha256:" + hasher.hexdigest()


# ---------------------------------------------------------------------------
# structured diffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnDiff:
    """One differing cell: row index, column name, both values.

    ``column`` is ``"<row>"`` for non-record rows and ``"<missing>"``
    when one side has no row at this index at all.
    """

    row: int
    column: str
    left: object
    right: object

    def describe(self) -> str:
        return (f"row {self.row} col {self.column}: "
                f"{_short(self.left)} != {_short(self.right)}")


@dataclass
class ResultDiff:
    """Structured disagreement between two result sets."""

    left_rows: int
    right_rows: int
    column_diffs: list[ColumnDiff] = field(default_factory=list)
    #: Differing cells beyond the ones collected in ``column_diffs``.
    truncated: int = 0

    @property
    def equal(self) -> bool:
        return not self.column_diffs \
            and self.left_rows == self.right_rows

    def describe(self, left_name: str = "left",
                 right_name: str = "right") -> str:
        """One-line summary: counts, first diff, and the overflow."""
        parts = [f"{left_name}={self.left_rows} rows, "
                 f"{right_name}={self.right_rows} rows"]
        if self.column_diffs:
            parts.append(self.column_diffs[0].describe())
        more = len(self.column_diffs) - 1 + self.truncated
        if more > 0:
            parts.append(f"(+{more} more differing cells)")
        return "; ".join(parts)


def _short(value, limit: int = 48) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 1] + "…"


def _as_rows(value) -> list:
    canon = canonicalize(value)
    if canon is None:
        return []
    if isinstance(canon, list):
        return canon
    return [canon]


def diff_results(left, right, max_diffs: int = 3) -> ResultDiff:
    """Per-column diff of two query results (any canonicalizable shape).

    Scalar results and ``None`` are treated as 1- and 0-row result sets
    so short reads diff through the same machinery as complex reads.
    """
    left_rows, right_rows = _as_rows(left), _as_rows(right)
    diff = ResultDiff(len(left_rows), len(right_rows))
    overflow = 0
    for index in range(max(len(left_rows), len(right_rows))):
        cell_diffs = _diff_row(index,
                               left_rows[index]
                               if index < len(left_rows) else _ABSENT,
                               right_rows[index]
                               if index < len(right_rows) else _ABSENT)
        for cell in cell_diffs:
            if len(diff.column_diffs) < max_diffs:
                diff.column_diffs.append(cell)
            else:
                overflow += 1
    diff.truncated = overflow
    return diff


_ABSENT = object()


def _diff_row(index: int, left, right) -> list[ColumnDiff]:
    if left is _ABSENT or right is _ABSENT:
        return [ColumnDiff(index, "<missing>",
                           "<absent>" if left is _ABSENT else left,
                           "<absent>" if right is _ABSENT else right)]
    if isinstance(left, dict) and isinstance(right, dict):
        diffs = []
        for column in sorted(set(left) | set(right)):
            a = left.get(column, "<absent>")
            b = right.get(column, "<absent>")
            if a != b:
                diffs.append(ColumnDiff(index, column, a, b))
        return diffs
    if left != right:
        return [ColumnDiff(index, "<row>", left, right)]
    return []
