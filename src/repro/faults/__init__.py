"""Deterministic fault injection for the workload driver.

A validated retry policy needs faults to retry; this package supplies
them reproducibly.  Everything is driven by a seeded
:class:`~repro.faults.plan.FaultPlan` — per-op-class probabilities
and/or explicit per-operation schedules — so the exact same faults fire
for the exact same ``(seed, plan)`` no matter how the driver's threads
interleave:

* :mod:`~repro.faults.plan` — fault kinds, per-class rates, explicit
  schedules, and the seeded decision function;
* :mod:`~repro.faults.injector` — :class:`FaultInjectingConnector`, a
  wrapper composable with any connector (including the differential
  one) that raises transient aborts, injects latency spikes and
  fatal errors according to the plan;
* :mod:`~repro.faults.conflicts` — a store-level knob that makes
  :class:`~repro.store.graph.GraphStore` commits raise *genuine*
  :class:`~repro.errors.WriteConflictError` at a seeded rate, so the
  MVCC retry path is exercised end-to-end rather than simulated.

The chaos soak (``repro chaos`` / :mod:`repro.validation.chaos`) runs
the driver under a plan and asserts the perturbed run converges to the
same final state digest as a fault-free run.
"""

from .conflicts import ConflictInjector, install_conflict_injector
from .injector import (
    FaultInjectingConnector,
    InjectedFatalError,
    InjectedTransientError,
)
from .plan import ClassRates, FaultKind, FaultPlan, FaultSpec

__all__ = [
    "ClassRates",
    "ConflictInjector",
    "FaultInjectingConnector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFatalError",
    "InjectedTransientError",
    "install_conflict_injector",
]
