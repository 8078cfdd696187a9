"""Deterministic replay bundles and the greedy counterexample shrinker.

When any validation surface finds a mismatch, it persists a **replay
bundle**: the datagen seed, the indices of the update-stream prefix that
was applied, and the failing check itself (query + binding, or a state
checkpoint).  Because datagen is a pure function of ``(persons, seed)``,
the bundle alone reproduces the failure on a fresh process — no pickles,
no dataset files.

:func:`shrink` then minimizes the failing update prefix with a greedy
delta-debugging pass (ddmin-style chunk removal) so the reported
counterexample is the smallest op sequence that still disagrees: a bug
independent of updates shrinks to an empty prefix in one probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..datagen.config import DatagenConfig
from ..datagen.pipeline import generate
from ..datagen.update_stream import SplitDataset, split_network
from ..errors import BenchmarkError
from ..workload.operations import EntityRef
from .canonical import (
    ColumnDiff,
    ResultDiff,
    diff_results,
    read_outcome,
)

REPLAY_FORMAT = "snb-replay/1"


@dataclass(frozen=True)
class FailingCheck:
    """The check that disagreed, in replayable (JSON-able) form."""

    action: str                 #: "complex" | "short" | "checkpoint"
    query_id: int = 0
    params: dict | None = None  #: complex-read binding as a field dict
    entity: list | None = None  #: short-read target as ``[kind, id]``
    #: Which SUT to replay against a recorded expectation; ``None``
    #: means differential mode (store vs engine, no expectation).
    sut: str | None = None
    #: Expected canonical result (or checkpoint digest); ``None`` in
    #: differential mode.
    expected: object = None
    #: Worker count when ``sut == "sharded"``.
    shards: int = 0

    @property
    def label(self) -> str:
        if self.action == "complex":
            return f"Q{self.query_id}"
        if self.action == "short":
            return f"S{self.query_id}"
        return "snapshot"

    def to_json(self) -> dict:
        return {"action": self.action, "query_id": self.query_id,
                "params": self.params, "entity": self.entity,
                "sut": self.sut, "expected": self.expected,
                "shards": self.shards}

    @classmethod
    def from_json(cls, data: dict) -> "FailingCheck":
        return cls(action=data["action"],
                   query_id=data.get("query_id", 0),
                   params=data.get("params"),
                   entity=data.get("entity"),
                   sut=data.get("sut"),
                   expected=data.get("expected"),
                   shards=data.get("shards", 0))


@dataclass
class ReplayBundle:
    """Everything needed to reproduce one validation mismatch."""

    persons: int
    seed: int
    update_indices: list[int]
    failing: FailingCheck
    note: str = ""
    format: str = REPLAY_FORMAT

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": self.format, "persons": self.persons,
                       "seed": self.seed,
                       "update_indices": self.update_indices,
                       "failing": self.failing.to_json(),
                       "note": self.note},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ReplayBundle":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("format") != REPLAY_FORMAT:
            raise BenchmarkError(
                f"unsupported replay bundle format {data.get('format')!r}")
        return cls(persons=data["persons"], seed=data["seed"],
                   update_indices=list(data["update_indices"]),
                   failing=FailingCheck.from_json(data["failing"]),
                   note=data.get("note", ""))


# ---------------------------------------------------------------------------
# reproduction
# ---------------------------------------------------------------------------

def _build_suts(split: SplitDataset, failing: FailingCheck):
    """Fresh SUTs for one replay: store then engine in differential
    mode, else just the one the failing check names."""
    from ..core.sut import load_sut

    if failing.sut is None:
        return [load_sut("store", split.bulk),
                load_sut("engine", split.bulk)]
    return [load_sut(failing.sut, split.bulk, shards=failing.shards)]


def _check_op(failing: FailingCheck):
    """The typed operation a failing read check replays."""
    from ..core.operation import ComplexRead, ShortRead
    from ..queries.registry import COMPLEX_QUERIES

    if failing.action == "complex":
        params_type = COMPLEX_QUERIES[failing.query_id].params_type
        return ComplexRead(failing.query_id,
                           params_type(**failing.params))
    if failing.action == "short":
        return ShortRead(failing.query_id,
                         EntityRef.of(failing.entity))
    raise BenchmarkError(f"not a read check: {failing.action}")


def run_check(split: SplitDataset, update_indices: list[int],
              failing: FailingCheck) -> ResultDiff | None:
    """Replay a prefix + one check on fresh SUTs; diff or ``None``.

    Differential mode (``failing.sut is None``) compares store against
    engine; expectation mode compares the named SUT's result (or state
    digest) against ``failing.expected``.
    """
    from ..core.operation import Update
    from .snapshot import diff_snapshots, snapshot_digest

    suts = _build_suts(split, failing)
    try:
        updates = split.updates
        for index in update_indices:
            op = Update(updates[index])
            for sut in suts:
                sut.execute(op)

        if failing.action == "checkpoint":
            left = suts[0].snapshot()
            if failing.sut is None:
                right = suts[1].snapshot()
                sections = diff_snapshots(left, right)
                if not sections:
                    return None
                diff = ResultDiff(len(left), len(right))
                diff.column_diffs = [
                    ColumnDiff(i, section.section,
                               section.only_left[:1],
                               section.only_right[:1])
                    for i, section in enumerate(sections[:3])]
                diff.truncated = max(len(sections) - 3, 0)
                return diff
            actual = snapshot_digest(left)
            if actual == failing.expected:
                return None
            return ResultDiff(1, 1, [ColumnDiff(0, "<state digest>",
                                                failing.expected,
                                                actual)])

        op = _check_op(failing)
        if failing.sut is None:
            left = read_outcome(suts[0], op)
            right = read_outcome(suts[1], op)
        else:
            left = failing.expected
            right = read_outcome(suts[0], op)
        if left == right:
            return None
        return diff_results(left, right)
    finally:
        for sut in suts:
            sut.close()


def reproduce(bundle: ReplayBundle,
              split: SplitDataset | None = None) -> ResultDiff | None:
    """Reproduce a bundle from scratch; the diff if it still fails."""
    if split is None:
        network = generate(DatagenConfig(num_persons=bundle.persons,
                                         seed=bundle.seed))
        split = split_network(network)
    return run_check(split, bundle.update_indices, bundle.failing)


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

@dataclass
class ShrinkResult:
    """Outcome of a shrink pass."""

    bundle: ReplayBundle
    original_updates: int
    probes: int
    diff: ResultDiff | None = field(default=None, repr=False)

    @property
    def shrunk_updates(self) -> int:
        return len(self.bundle.update_indices)


def shrink(bundle: ReplayBundle, split: SplitDataset | None = None,
           max_probes: int = 120) -> ShrinkResult:
    """Greedily minimize the failing update prefix (ddmin-style).

    Each probe replays a candidate subsequence on fresh SUTs; a removal
    is kept whenever the mismatch persists.  The empty prefix is probed
    first, so update-independent failures cost exactly one probe.
    """
    if split is None:
        network = generate(DatagenConfig(num_persons=bundle.persons,
                                         seed=bundle.seed))
        split = split_network(network)
    indices = list(bundle.update_indices)
    probes = 0
    diff = None

    def fails(candidate: list[int]):
        nonlocal probes
        probes += 1
        return run_check(split, candidate, bundle.failing)

    empty_diff = fails([])
    if empty_diff is not None:
        final = replace(bundle, update_indices=[],
                        note=(bundle.note + " [shrunk: failure is "
                              "update-independent]").strip())
        return ShrinkResult(final, len(bundle.update_indices), probes,
                            empty_diff)

    granularity = 2
    while len(indices) >= 2 and probes < max_probes:
        chunk = max(1, -(-len(indices) // granularity))
        removed = False
        for start in range(0, len(indices), chunk):
            candidate = indices[:start] + indices[start + chunk:]
            result = fails(candidate)
            if result is not None:
                indices = candidate
                diff = result
                granularity = max(granularity - 1, 2)
                removed = True
                break
            if probes >= max_probes:
                break
        if not removed:
            if chunk == 1:
                break
            granularity = min(len(indices), granularity * 2)
    final = replace(bundle, update_indices=indices,
                    note=(bundle.note
                          + f" [shrunk from "
                            f"{len(bundle.update_indices)} updates in "
                            f"{probes} probes]").strip())
    return ShrinkResult(final, len(bundle.update_indices), probes, diff)
