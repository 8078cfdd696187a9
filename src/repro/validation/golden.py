"""Golden validation datasets (the LDBC driver's validation-set idiom).

The official driver can emit a *validation set* — ``(operation,
expected result)`` pairs recorded from a trusted run — that any other
implementation replays to prove conformance.  Here the golden file is a
versioned JSONL stream mirroring one differential plan:

* a header line pinning the datagen/curation configuration (the network
  is regenerated from it — golden files carry **no dataset**, only
  seeds and expectations);
* ``update`` records carrying only ``kind`` + ``due``: the payload is
  regenerated deterministically, and the pair doubles as an update-
  stream identity check (a datagen drift fails loudly at the exact
  stream position instead of corrupting later expectations);
* ``complex`` / ``short`` records with the binding and the canonical
  expected result;
* ``checkpoint`` records with the full-graph state digest.

``check_golden`` replays a file against either SUT; the first mismatch
produces a structured diff plus a shrunk replay bundle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from dataclasses import replace as dc_replace

from ..curation.curator import ParameterCurator
from ..datagen.config import DatagenConfig
from ..datagen.pipeline import generate
from ..datagen.update_stream import SplitDataset, split_network
from ..errors import BenchmarkError
from ..workload.operations import EntityRef
from .canonical import (
    ResultDiff,
    canonicalize,
    comparable,
    diff_results,
    read_outcome,
)
from .differential import build_plan
from .replay import FailingCheck, ReplayBundle, ShrinkResult, shrink

GOLDEN_FORMAT = "snb-golden/1"


def _golden_plan(split: SplitDataset, header: dict):
    params = ParameterCurator(
        split.bulk, seed=header["curation_seed"]).curate(
        header["bindings_per_query"])
    return build_plan(split, params,
                      batch_size=header["batch_size"],
                      reads_per_batch=header["reads_per_batch"],
                      shorts_per_batch=header["shorts_per_batch"],
                      snapshot_every=header["snapshot_every"])


def _regenerate(header: dict, jobs: int = 1) -> SplitDataset:
    from ..datagen.config import ParallelConfig
    network = generate(DatagenConfig(num_persons=header["persons"],
                                     seed=header["seed"],
                                     parallel=ParallelConfig(jobs=jobs)))
    return split_network(network)


def create_golden(path: str, persons: int = 80, seed: int = 7,
                  curation_seed: int = 3, bindings_per_query: int = 2,
                  batch_size: int = 100, reads_per_batch: int = 3,
                  shorts_per_batch: int = 4,
                  snapshot_every: int = 4) -> int:
    """Record a golden dataset from the graph store (the reference SUT).

    Returns the number of records written (header excluded).
    """
    from ..core.operation import ComplexRead, ShortRead, Update
    from ..core.sut import StoreSUT

    header = {"format": GOLDEN_FORMAT, "persons": persons, "seed": seed,
              "curation_seed": curation_seed,
              "bindings_per_query": bindings_per_query,
              "batch_size": batch_size,
              "reads_per_batch": reads_per_batch,
              "shorts_per_batch": shorts_per_batch,
              "snapshot_every": snapshot_every}
    split = _regenerate(header)
    plan = _golden_plan(split, header)
    sut = StoreSUT.for_network(split.bulk)

    records = 0
    with open(path, "w", encoding="utf-8") as out:
        def emit(record: dict) -> None:
            out.write(json.dumps(record, sort_keys=True,
                                 separators=(",", ":"),
                                 ensure_ascii=True))
            out.write("\n")

        emit(header)
        for step in plan:
            if step.action == "update":
                operation = split.updates[step.index]
                sut.execute(Update(operation))
                emit({"op": "update", "kind": operation.kind.name,
                      "due": operation.due_time})
            elif step.action == "complex":
                value = sut.execute(
                    ComplexRead(step.query_id, step.params)).value
                emit({"op": "complex", "q": step.query_id,
                      "params": asdict(step.params),
                      "expect": comparable(step.query_id, value)})
            elif step.action == "short":
                value = sut.execute(
                    ShortRead(step.query_id, step.entity)).value
                emit({"op": "short", "q": step.query_id,
                      "entity": step.entity.as_json(),
                      "expect": canonicalize(value)})
            else:
                emit({"op": "checkpoint", "digest": sut.digest()})
            records += 1
    return records


@dataclass
class GoldenMismatch:
    """One deviation of the checked SUT from the golden expectation."""

    record: int                  #: line number in the golden file
    label: str                   #: "Q2", "S4", "snapshot", or "stream"
    params: object
    diff: ResultDiff | None = None
    detail: str = ""

    def describe(self) -> str:
        head = f"record {self.record} {self.label}"
        if self.params is not None:
            head += f" params={self.params}"
        if self.detail:
            head += f": {self.detail}"
        if self.diff is not None:
            head += "\n    " + self.diff.describe(
                "golden", "actual").replace("\n", "\n    ")
        return head


@dataclass
class GoldenCheckReport:
    """Outcome of replaying a golden dataset against one SUT."""

    sut: str
    updates_replayed: int = 0
    reads_checked: int = 0
    checkpoints_checked: int = 0
    mismatches: list[GoldenMismatch] = field(default_factory=list)
    bundle: ReplayBundle | None = None
    shrunk: ShrinkResult | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_golden(path: str, sut_name: str = "store",
                 shrink_on_mismatch: bool = True,
                 max_mismatches: int = 5,
                 jobs: int = 1, shards: int = 2) -> GoldenCheckReport:
    """Replay a golden dataset against one SUT and diff expectations.

    The shrink pass replays candidates against the *recorded*
    expectation, which is exact when the failure is update-independent
    (it shrinks to the empty prefix); for update-dependent failures the
    shrunk prefix is a strong hint, since dropping updates can change
    the expected result legitimately.  Checkpoint failures are never
    shrunk for the same reason.

    ``jobs`` regenerates the network process-parallel; goldens were
    recorded from serial runs, so a passing check doubles as a
    determinism proof for the parallel path.

    ``sut_name="sharded"`` replays against the multi-process sharded
    store (``shards`` workers): goldens were recorded single-process,
    so a pass proves the sharded read path and commit protocol are
    byte-for-byte faithful, and the shard-router canary (which drops a
    shard from scatter-gathers) must make this check FAIL.
    """
    from ..core.sut import load_sut

    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if not lines or lines[0].get("format") != GOLDEN_FORMAT:
        raise BenchmarkError(
            f"{path}: not a {GOLDEN_FORMAT} golden dataset")
    header, records = lines[0], lines[1:]

    if sut_name != "sharded":
        shards = 0  # ``shards`` sizes the sharded replay only
    split = _regenerate(header, jobs=jobs)
    sut = load_sut(sut_name, split.bulk, shards=shards)

    report = GoldenCheckReport(sut=sut_name)
    applied: list[int] = []

    def record_mismatch(line_no: int, label: str, params: object,
                        failing: FailingCheck,
                        diff: ResultDiff | None = None,
                        detail: str = "") -> None:
        if shards:
            failing = dc_replace(failing, shards=shards)
        report.mismatches.append(GoldenMismatch(
            record=line_no, label=label, params=params, diff=diff,
            detail=detail))
        if report.bundle is None:
            report.bundle = ReplayBundle(
                persons=header["persons"], seed=header["seed"],
                update_indices=list(applied), failing=failing,
                note=f"golden check of {sut_name} failed at record "
                     f"{line_no}")

    try:
        _replay_golden(records, split, sut, sut_name, report, applied,
                       record_mismatch, max_mismatches, path)
    finally:
        sut.close()

    if report.bundle is not None and shrink_on_mismatch \
            and report.bundle.failing.action != "checkpoint":
        report.shrunk = shrink(report.bundle, split=split)
    return report


def _replay_golden(records, split, sut, sut_name, report, applied,
                   record_mismatch, max_mismatches, path) -> None:
    from ..core.operation import ComplexRead, ShortRead, Update
    from ..queries.registry import COMPLEX_QUERIES

    update_cursor = 0
    for line_no, record in enumerate(records, start=2):
        if len(report.mismatches) >= max_mismatches:
            break
        op_kind = record["op"]
        if op_kind == "update":
            if update_cursor >= len(split.updates):
                report.mismatches.append(GoldenMismatch(
                    record=line_no, label="stream", params=None,
                    detail="golden file has more updates than the "
                           "regenerated stream"))
                break
            operation = split.updates[update_cursor]
            if operation.kind.name != record["kind"] \
                    or operation.due_time != record["due"]:
                report.mismatches.append(GoldenMismatch(
                    record=line_no, label="stream", params=None,
                    detail=f"update stream diverged: golden "
                           f"{record['kind']}@{record['due']}, "
                           f"regenerated {operation.kind.name}"
                           f"@{operation.due_time} — datagen is no "
                           f"longer deterministic for this config"))
                break
            sut.execute(Update(operation))
            applied.append(update_cursor)
            update_cursor += 1
            report.updates_replayed += 1
        elif op_kind == "complex":
            query_id = record["q"]
            params_type = COMPLEX_QUERIES[query_id].params_type
            binding = params_type(**record["params"])
            actual = read_outcome(sut, ComplexRead(query_id, binding))
            report.reads_checked += 1
            if actual != record["expect"]:
                record_mismatch(
                    line_no, f"Q{query_id}", record["params"],
                    FailingCheck("complex", query_id,
                                 params=record["params"], sut=sut_name,
                                 expected=record["expect"]),
                    diff=diff_results(record["expect"], actual))
        elif op_kind == "short":
            query_id = record["q"]
            entity = EntityRef.of(record["entity"])
            actual = read_outcome(sut, ShortRead(query_id, entity))
            report.reads_checked += 1
            if actual != record["expect"]:
                record_mismatch(
                    line_no, f"S{query_id}", record["entity"],
                    FailingCheck("short", query_id,
                                 entity=record["entity"], sut=sut_name,
                                 expected=record["expect"]),
                    diff=diff_results(record["expect"], actual))
        elif op_kind == "checkpoint":
            actual = sut.digest()
            report.checkpoints_checked += 1
            if actual != record["digest"]:
                record_mismatch(
                    line_no, "snapshot", None,
                    FailingCheck("checkpoint", sut=sut_name,
                                 expected=record["digest"]),
                    detail=f"state digest {actual} != golden "
                           f"{record['digest']}")
        else:
            raise BenchmarkError(
                f"{path}:{line_no}: unknown record op {op_kind!r}")


def render_golden_check(report: GoldenCheckReport) -> str:
    """Human-readable golden-check summary."""
    lines = [
        f"golden check [{report.sut}]: {report.updates_replayed} "
        f"updates replayed, {report.reads_checked} reads, "
        f"{report.checkpoints_checked} checkpoints",
        f"result: {'OK — matches golden' if report.ok else 'MISMATCHES'}",
    ]
    for mismatch in report.mismatches:
        lines.append("  " + mismatch.describe().replace("\n", "\n  "))
    if report.shrunk is not None:
        lines.append(
            f"  shrunk counterexample: {report.shrunk.shrunk_updates} "
            f"of {report.shrunk.original_updates} updates "
            f"({report.shrunk.probes} probes)")
    return "\n".join(lines)
