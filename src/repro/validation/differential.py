"""Update-aware differential execution of the full workload.

The read-only checker in :mod:`repro.core.validation` compares query
results over the bulk-loaded network; this runner extends the oracle to
the *update* workload.  It replays the same timestamped update stream on
both SUTs in lockstep batches, interleaves curated complex reads and
short reads targeted at the entities each batch touched, and at
checkpoints compares a canonical full-graph state snapshot of the store
against the catalog — so a divergence is caught near the update that
introduced it, not at the end of the run.

On the first mismatch the runner also mints a
:class:`~repro.validation.replay.ReplayBundle` so the failure can be
reproduced (and shrunk) from nothing but seeds and indices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

from ..curation.curator import CuratedWorkloadParams
from ..datagen.update_stream import SplitDataset, UpdateKind, UpdateOperation
from ..workload.operations import EntityRef
from .canonical import ResultDiff, diff_results, read_outcome
from .replay import FailingCheck, ReplayBundle
from .snapshot import SectionDiff, diff_snapshots

#: Short reads taking a person ref / a message ref.
_PERSON_SHORTS = (1, 2, 3)
_MESSAGE_SHORTS = (4, 5, 6, 7)


def touched_refs(operation: UpdateOperation) -> tuple[EntityRef, ...]:
    """The entity refs whose short reads an update can change.

    SNB-Interactive updates are pure inserts and person/message
    attributes never change after insert, so the map is exact: a new
    entity touches itself, a new message its author's S2 (and, for a
    comment, the parent message's S7), a new friendship both persons.
    """
    kind = operation.kind
    payload = operation.payload
    if kind is UpdateKind.ADD_PERSON:
        return (EntityRef.person(payload.id),)
    if kind is UpdateKind.ADD_FRIENDSHIP:
        return (EntityRef.person(payload.person1_id),
                EntityRef.person(payload.person2_id))
    if kind is UpdateKind.ADD_POST:
        return (EntityRef.person(payload.author_id),
                EntityRef.message(payload.id))
    if kind is UpdateKind.ADD_COMMENT:
        return (EntityRef.person(payload.author_id),
                EntityRef.message(payload.id),
                EntityRef.message(payload.reply_of_id))
    # ADD_FORUM / ADD_FORUM_MEMBERSHIP / ADD_LIKE_*: no short read
    # observes forums a person moderates, memberships, or likes.
    return ()


@dataclass(frozen=True)
class PlanStep:
    """One step of a differential execution plan."""

    action: str                    #: "update" | "complex" | "short" | "checkpoint"
    index: int = -1                #: update-stream index (updates only)
    query_id: int = 0
    params: object = None          #: complex-read binding
    entity: EntityRef | None = None


def build_plan(split: SplitDataset, params: CuratedWorkloadParams,
               batch_size: int = 100, reads_per_batch: int = 3,
               shorts_per_batch: int = 4,
               snapshot_every: int = 4) -> list[PlanStep]:
    """Deterministic interleaving of updates, reads, and checkpoints.

    Updates run in stream order in batches of ``batch_size``.  After each
    batch the plan schedules ``reads_per_batch`` complex reads (rotating
    through the curated templates and bindings so every binding is
    exercised against evolving state) and short reads aimed at entities
    the batch's updates touched (via :func:`touched_refs`).  Every
    ``snapshot_every`` batches, and at the end, a full state checkpoint.
    """
    plan: list[PlanStep] = []
    query_ids = sorted(params.by_query)
    num_batches = -(-len(split.updates) // batch_size) \
        if split.updates else 0
    read_cursor = 0
    for batch in range(num_batches):
        start = batch * batch_size
        ops = split.updates[start:start + batch_size]
        for offset in range(len(ops)):
            plan.append(PlanStep("update", index=start + offset))

        for __ in range(reads_per_batch):
            query_id = query_ids[read_cursor % len(query_ids)]
            bindings = params.by_query[query_id]
            binding = bindings[(read_cursor // len(query_ids))
                               % len(bindings)]
            plan.append(PlanStep("complex", query_id=query_id,
                                 params=binding))
            read_cursor += 1

        refs: list[EntityRef] = []
        seen = set()
        for op in ops:
            for ref in touched_refs(op):
                if ref not in seen:
                    seen.add(ref)
                    refs.append(ref)
        for i, ref in enumerate(refs[:shorts_per_batch]):
            pool = _PERSON_SHORTS if ref.kind == "person" \
                else _MESSAGE_SHORTS
            plan.append(PlanStep(
                "short", query_id=pool[(batch + i) % len(pool)],
                entity=ref))

        if (batch + 1) % snapshot_every == 0:
            plan.append(PlanStep("checkpoint"))
    if not plan or plan[-1].action != "checkpoint":
        plan.append(PlanStep("checkpoint"))
    return plan


@dataclass
class DifferentialMismatch:
    """One disagreement found during differential execution."""

    step: int                      #: index into the plan
    label: str                     #: "Q3", "S5", or "snapshot"
    params: object
    updates_applied: int
    diff: ResultDiff | None = None
    sections: list[SectionDiff] = field(default_factory=list)

    def describe(self) -> str:
        head = (f"{self.label} after {self.updates_applied} updates "
                f"(plan step {self.step}), params={self.params}")
        if self.diff is not None:
            return head + "\n    " + self.diff.describe(
                "store", "engine").replace("\n", "\n    ")
        body = "\n    ".join(
            section.describe("store", "engine")
            for section in self.sections)
        return head + ("\n    " + body if body else "")


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    updates_applied: int = 0
    reads_checked: int = 0
    snapshots_checked: int = 0
    mismatches: list[DifferentialMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_differential(split: SplitDataset, params: CuratedWorkloadParams,
                     persons: int = 0, seed: int = 0,
                     batch_size: int = 100, reads_per_batch: int = 3,
                     shorts_per_batch: int = 4, snapshot_every: int = 4,
                     max_mismatches: int = 10,
                     left_factory=None, right_factory=None,
                     ) -> tuple[DifferentialReport, ReplayBundle | None]:
    """Replay the update stream on two SUTs with interleaved checks.

    Returns the report plus a replay bundle for the *first* mismatch
    (``None`` on a clean run).  ``persons``/``seed`` are recorded in the
    bundle so it reproduces standalone; pass the datagen configuration
    that produced ``split``.

    ``left_factory`` / ``right_factory`` build the two systems from the
    bulk network (default: graph store vs relational engine).  Any pair
    of unified-API SUTs works — the sharded-vs-single digest-invariance
    oracle passes ``partial(load_sut, "store", shards=N)`` as one
    side — and SUTs holding external resources are closed on the way
    out.
    """
    from ..core.sut import load_sut

    left_factory = left_factory or partial(load_sut, "store")
    right_factory = right_factory or partial(load_sut, "engine")
    left_sut = left_factory(split.bulk)
    try:
        right_sut = right_factory(split.bulk)
    except BaseException:
        _close_sut(left_sut)
        raise
    try:
        return _run_differential(
            split, params, left_sut, right_sut, persons=persons,
            seed=seed, batch_size=batch_size,
            reads_per_batch=reads_per_batch,
            shorts_per_batch=shorts_per_batch,
            snapshot_every=snapshot_every,
            max_mismatches=max_mismatches)
    finally:
        _close_sut(left_sut)
        _close_sut(right_sut)


def _close_sut(sut) -> None:
    close = getattr(sut, "close", None)
    if callable(close):
        close()


def _run_differential(split, params, left_sut, right_sut, *,
                      persons, seed, batch_size, reads_per_batch,
                      shorts_per_batch, snapshot_every, max_mismatches,
                      ) -> tuple[DifferentialReport, ReplayBundle | None]:
    from ..core.operation import ComplexRead, ShortRead, Update

    plan = build_plan(split, params, batch_size=batch_size,
                      reads_per_batch=reads_per_batch,
                      shorts_per_batch=shorts_per_batch,
                      snapshot_every=snapshot_every)
    report = DifferentialReport()
    bundle: ReplayBundle | None = None
    applied: list[int] = []

    def record(step_no: int, label: str, step_params: object,
               failing: FailingCheck, diff: ResultDiff | None = None,
               sections: list[SectionDiff] | None = None) -> None:
        nonlocal bundle
        report.mismatches.append(DifferentialMismatch(
            step=step_no, label=label, params=step_params,
            updates_applied=len(applied), diff=diff,
            sections=sections or []))
        if bundle is None:
            bundle = ReplayBundle(
                persons=persons, seed=seed,
                update_indices=list(applied), failing=failing,
                note=f"differential mismatch at plan step {step_no}")

    for step_no, step in enumerate(plan):
        if len(report.mismatches) >= max_mismatches:
            break
        if step.action == "update":
            op = Update(split.updates[step.index])
            left_sut.execute(op)
            right_sut.execute(op)
            applied.append(step.index)
            report.updates_applied += 1
        elif step.action == "complex":
            op = ComplexRead(step.query_id, step.params)
            left = read_outcome(left_sut, op)
            right = read_outcome(right_sut, op)
            report.reads_checked += 1
            if left != right:
                record(step_no, f"Q{step.query_id}", step.params,
                       FailingCheck("complex", step.query_id,
                                    params=asdict(step.params)),
                       diff=diff_results(left, right))
        elif step.action == "short":
            op = ShortRead(step.query_id, step.entity)
            left = read_outcome(left_sut, op)
            right = read_outcome(right_sut, op)
            report.reads_checked += 1
            if left != right:
                record(step_no, f"S{step.query_id}", step.entity,
                       FailingCheck("short", step.query_id,
                                    entity=step.entity.as_json()),
                       diff=diff_results(left, right))
        else:
            left_snap = left_sut.snapshot()
            right_snap = right_sut.snapshot()
            report.snapshots_checked += 1
            sections = diff_snapshots(left_snap, right_snap)
            if sections:
                record(step_no, "snapshot", None,
                       FailingCheck("checkpoint"), sections=sections)
    return report, bundle


def render_differential(report: DifferentialReport) -> str:
    """Human-readable differential summary."""
    lines = [
        f"differential validation: {report.updates_applied} updates, "
        f"{report.reads_checked} interleaved reads, "
        f"{report.snapshots_checked} state checkpoints",
        f"result: {'OK — systems agree' if report.ok else 'MISMATCHES'}",
    ]
    shown = report.mismatches[:10]
    for mismatch in shown:
        lines.append("  " + mismatch.describe().replace("\n", "\n  "))
    if len(report.mismatches) > len(shown):
        lines.append(f"  (+{len(report.mismatches) - len(shown)} "
                     "more mismatches)")
    return "\n".join(lines)
