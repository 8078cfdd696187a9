"""Fault plans: what goes wrong, where, and how often — reproducibly.

A :class:`FaultPlan` combines two layers:

* **rates** — per-op-class probabilities of each fault kind (the key
  ``"*"`` applies to every class without its own entry);
* **schedule** — explicit ``operation key → FaultSpec`` entries that
  override the probabilistic layer for targeted tests ("make exactly
  the 17th update abort twice").

The decision for one operation is a pure function of ``(seed, key)``
where ``key`` is a *stable identity* of the operation — its index in
the operation stream when the injector knows the stream, else the
``(op class, due time)`` pair.  Thread interleaving, retries and
partitioning therefore cannot change which operations fault: identical
``(seed, plan)`` reproduces identical injections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..rng import RandomStream


class FaultKind(Enum):
    """The injectable failure modes."""

    #: Transient abort: the attempt raises before touching the SUT
    #: (a deadlock-victim abort); succeeds once retried enough.
    ABORT = "abort"
    #: Latency spike: the attempt sleeps, then executes normally.
    LATENCY = "latency"
    #: Fatal: every attempt raises :class:`FatalSUTError`; never
    #: retried, the operation cannot succeed.
    FATAL = "fatal"


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault bound to one operation."""

    kind: FaultKind
    #: ABORT: number of consecutive failing attempts before success.
    attempts: int = 1
    #: LATENCY: injected stall in seconds.
    delay_seconds: float = 0.0


@dataclass(frozen=True)
class ClassRates:
    """Per-op-class fault probabilities (independent thresholds).

    The three rates must sum to at most 1: one uniform draw per
    operation selects at most one fault kind.
    """

    abort: float = 0.0
    latency: float = 0.0
    fatal: float = 0.0
    #: Failing attempts per injected abort.
    abort_attempts: int = 1
    latency_seconds: float = 0.005

    def __post_init__(self) -> None:
        total = self.abort + self.latency + self.fatal
        if not 0.0 <= total <= 1.0:
            raise ValueError(
                f"fault rates must sum to [0, 1], got {total}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible description of every fault a run may see."""

    #: op-class name (``op.op_class``) or ``"*"`` → rates.
    rates: dict = field(default_factory=dict)
    #: stable operation key → explicit fault (overrides rates).
    #: Keys are stream indices (int) or ``(op_class, due_time)`` pairs,
    #: matching whichever identity the injector resolves for the op.
    schedule: dict = field(default_factory=dict)

    @classmethod
    def uniform(cls, abort: float = 0.0, latency: float = 0.0,
                fatal: float = 0.0, abort_attempts: int = 1,
                latency_seconds: float = 0.005) -> "FaultPlan":
        """A plan applying one rate set to every operation class."""
        return cls(rates={"*": ClassRates(
            abort=abort, latency=latency, fatal=fatal,
            abort_attempts=abort_attempts,
            latency_seconds=latency_seconds)})

    def with_fault(self, key, spec: FaultSpec) -> "FaultPlan":
        """A copy with one more explicit schedule entry."""
        schedule = dict(self.schedule)
        schedule[key] = spec
        return FaultPlan(rates=dict(self.rates), schedule=schedule)

    def rates_for(self, op_class: str) -> ClassRates | None:
        rates = self.rates.get(op_class)
        if rates is None:
            rates = self.rates.get("*")
        return rates

    def decide(self, seed: int, key, op_class: str) -> FaultSpec | None:
        """The fault (if any) bound to one operation — pure in its args."""
        explicit = self.schedule.get(key)
        if explicit is not None:
            return explicit
        rates = self.rates_for(op_class)
        if rates is None:
            return None
        if isinstance(key, tuple):
            stream = RandomStream.for_key(seed, "fault", *key)
        else:
            stream = RandomStream.for_key(seed, "fault", key)
        draw = stream.random()
        if draw < rates.abort:
            return FaultSpec(FaultKind.ABORT,
                             attempts=rates.abort_attempts)
        draw -= rates.abort
        if draw < rates.latency:
            return FaultSpec(FaultKind.LATENCY,
                             delay_seconds=rates.latency_seconds)
        draw -= rates.latency
        if draw < rates.fatal:
            return FaultSpec(FaultKind.FATAL)
        return None

    @property
    def empty(self) -> bool:
        return not self.schedule and all(
            r.abort == r.latency == r.fatal == 0.0
            for r in self.rates.values())
