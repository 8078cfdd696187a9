"""Chaos soak: the strongest robustness property the harness can check.

A run perturbed by injected faults — transient aborts, latency spikes,
genuine MVCC write conflicts — must converge to the **exact same
final state digest** as a fault-free run, with zero dependency
timeouts.  The canonical snapshots of :mod:`repro.validation.snapshot`
carry no commit timestamps, so the digest is insensitive to the retry
reordering chaos introduces; any divergence means an update was lost,
double-applied, or executed against the wrong dependency state.

Two entry points:

* :func:`run_chaos` — the soak proper (``repro chaos``): clean
  reference digest, then a driver run through a
  :class:`~repro.faults.FaultInjectingConnector` under a real
  resilience policy, then the verdict;
* :func:`chaos_canary` — the harness-of-the-harness
  (``repro validate --check … --canary-faults``): the same soak with
  retry *classification disabled* (every fault treated fatal) must
  FAIL, proving the injector actually fires and the soak can detect a
  broken run — a chaos harness that cannot fail proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.sut import load_sut
from ..datagen.update_stream import SplitDataset
from ..driver import (
    DegradePolicy,
    DriverConfig,
    DriverReport,
    ExecutionMode,
    RetryPolicy,
    WorkloadDriver,
)
from ..errors import BenchmarkError
from ..faults import FaultInjectingConnector, FaultPlan, \
    install_conflict_injector

#: The default soak policy: generous transient retries, fail fast on
#: anything fatal (a fatal fault must surface, not degrade silently).
DEFAULT_POLICY = RetryPolicy(max_retries=8, base_backoff=0.0005,
                             max_backoff=0.05)


def clean_run_digest(split: SplitDataset, sut_name: str) -> str:
    """Final-state digest of a fault-free in-order replay (the oracle)."""
    from ..core.operation import Update

    sut = load_sut(sut_name, split.bulk)
    for operation in split.updates:
        sut.execute(Update(operation))
    return sut.digest()


@dataclass
class ChaosReport:
    """Outcome of one chaos soak against one SUT."""

    sut: str
    clean_digest: str
    chaos_digest: str
    #: fault-kind name → injections that actually fired.
    injected: dict[str, int] = field(default_factory=dict)
    #: Store-level write conflicts injected (store SUT only).
    injected_conflicts: int = 0
    #: Worker-side shard faults that fired (sharded runs only).
    injected_shard_faults: dict[str, int] = field(default_factory=dict)
    #: Supervised worker respawns (crash-tolerant sharded runs only).
    worker_restarts: int = 0
    driver: DriverReport | None = None
    #: Set when the perturbed run raised instead of completing.
    failure: str | None = None

    @property
    def injected_total(self) -> int:
        return (sum(self.injected.values()) + self.injected_conflicts
                + sum(self.injected_shard_faults.values()))

    @property
    def digests_match(self) -> bool:
        return self.clean_digest == self.chaos_digest

    @property
    def ok(self) -> bool:
        """Converged, nothing wedged, and the injector provably fired."""
        return (self.failure is None
                and self.digests_match
                and self.injected_total > 0
                and self.driver is not None
                and self.driver.dependency_timeouts == 0)


def run_chaos(split: SplitDataset, sut_name: str, plan: FaultPlan,
              seed: int = 0, policy: RetryPolicy | None = None,
              num_partitions: int = 4,
              mode: ExecutionMode = ExecutionMode.PARALLEL,
              window_millis: int | None = None,
              conflict_rate: float = 0.0,
              dependency_wait_timeout: float = 60.0,
              remote: str | None = None,
              shards: int = 0,
              shard_faults=None,
              shard_timeout: float = 30.0,
              shard_wal_dir: str | None = None,
              shard_max_restarts: int = 8) -> ChaosReport:
    """Drive the update stream under faults; compare final digests.

    The fault-injecting connector wraps the chosen SUT directly (the
    engine serializes itself: its catalog has no internal concurrency
    control).  ``conflict_rate`` additionally installs the store-level
    :class:`ConflictInjector` so real MVCC aborts join the mix (store
    SUT only).

    ``remote`` (``host:port`` of a ``repro serve`` instance loaded with
    the same split) swaps the in-process SUT for the wire client: the
    clean reference digest is still computed locally, injected faults
    perturb the *client side* of the wire, and the final digest is
    fetched from the server's admin endpoint — so the soak proves the
    whole remote stack (codec, pipelining, retry mapping, server-side
    dedup) converges to the same bytes.

    ``shards`` > 0 swaps the in-process store for the multi-process
    sharded store (``shard_faults`` optionally arms worker-side aborts
    and delays, ``shard_timeout`` bounds each router RPC) — the clean
    reference digest stays single-process, so the soak simultaneously
    proves exactly-once commit under faults *and* shard-placement
    digest invariance.

    ``shard_wal_dir`` arms crash tolerance: per-shard WALs, the 2PC
    coordinator log, and supervised respawn (budgeted by
    ``shard_max_restarts``).  It is required when ``shard_faults``
    carries crash rates (``kill_rate`` / ``kill_after_prepare`` /
    ``torn_wal_rate``) — those soaks ``kill -9`` workers mid-protocol
    and the digest gate then proves no acknowledged update was lost
    and nothing double-applied across the recoveries.
    """
    if conflict_rate > 0.0 and (sut_name != "store" or remote is not None
                                or shards > 0):
        raise BenchmarkError(
            "store-level conflict injection needs the in-process store "
            "SUT (no --remote; with --shards use --shard-abort-rate/"
            "--shard-delay-rate to fault the workers instead)")
    clean = clean_run_digest(split, sut_name)
    sut = load_sut(sut_name, split.bulk, shards=shards, remote=remote,
                   faults=shard_faults, request_timeout=shard_timeout,
                   wal_dir=shard_wal_dir, max_restarts=shard_max_restarts)
    try:
        connector = FaultInjectingConnector(
            sut, plan, seed=seed, operations=split.updates)
        conflicts = None
        if conflict_rate > 0.0:
            conflicts = install_conflict_injector(sut.store, seed,
                                                  conflict_rate)
        config = DriverConfig(
            num_partitions=num_partitions, mode=mode,
            window_millis=window_millis,
            dependency_wait_timeout=dependency_wait_timeout,
            resilience=policy or DEFAULT_POLICY, seed=seed)
        driver = WorkloadDriver(connector, config)

        report = ChaosReport(sut=sut_name, clean_digest=clean,
                             chaos_digest="",
                             injected=connector.injected_counts())
        try:
            report.driver = driver.run(split.updates)
        except Exception as exc:
            report.failure = f"{type(exc).__name__}: {exc}"
        report.injected = connector.injected_counts()
        if conflicts is not None:
            report.injected_conflicts = conflicts.injected
            sut.store.fault_injector = None  # quiesce for the snapshot
        if report.failure is None:
            # Digest BEFORE stats on sharded runs: the snapshot gather
            # is supervised, so a worker that died at the very end of
            # the stream is recovered here first and its counters are
            # readable.
            report.chaos_digest = sut.digest()
        if shards > 0 and shard_faults is not None:
            stats = sut.stats()
            fired: dict[str, int] = {}
            for worker in stats.get("shards", []):
                for kind, count in worker.get("faults", {}).items():
                    if count:
                        fired[kind] = fired.get(kind, 0) + count
            report.injected_shard_faults = fired
            report.worker_restarts = stats.get(
                "supervisor", {}).get("restarts", 0)
        return report
    finally:
        sut.close()


def chaos_canary(split: SplitDataset, sut_name: str, plan: FaultPlan,
                 seed: int = 0, num_partitions: int = 2,
                 ) -> tuple[bool, ChaosReport]:
    """Soak with retry classification disabled — it must FAIL.

    Returns ``(caught, report)`` where ``caught`` is True when the
    unprotected run failed (raised, diverged, or saw no injections at
    all counts as NOT caught).  Guards the chaos harness against
    rotting into a no-op: if faults stop firing, or the soak stops
    noticing a driver that cannot retry, the canary goes green-blind
    and CI fails.
    """
    no_retry = RetryPolicy(max_retries=8, base_backoff=0.0,
                           max_backoff=0.0,
                           classify=lambda exc: False)
    report = run_chaos(split, sut_name, plan, seed=seed,
                       policy=no_retry, num_partitions=num_partitions,
                       dependency_wait_timeout=10.0)
    caught = report.injected_total > 0 and (
        report.failure is not None or not report.digests_match)
    return caught, report


def render_chaos(report: ChaosReport) -> str:
    """Human-readable chaos soak summary."""
    lines = [f"chaos soak [{report.sut}]:"]
    injected = ", ".join(f"{kind}={count}"
                         for kind, count in sorted(report.injected.items())
                         if count) or "none"
    lines.append(f"  injected faults: {injected}"
                 + (f", store conflicts={report.injected_conflicts}"
                    if report.injected_conflicts else ""))
    if report.injected_shard_faults:
        shard_faults = ", ".join(
            f"{kind}={count}" for kind, count
            in sorted(report.injected_shard_faults.items()))
        lines.append(f"  shard worker faults: {shard_faults}")
    if report.worker_restarts:
        lines.append(f"  supervised worker restarts: "
                     f"{report.worker_restarts}")
    if report.failure is not None:
        lines.append(f"  run FAILED: {report.failure}")
    elif report.driver is not None:
        d = report.driver
        retries = ", ".join(
            f"{name}={count}"
            for name, count in sorted(d.retries_by_class.items())) \
            or "none"
        lines.append(f"  driver: {d.metrics.operations} ops, "
                     f"{d.retries} retries ({retries}), "
                     f"{d.skipped} skipped, {d.breaker_trips} breaker "
                     f"trips, {d.op_timeouts} op timeouts, "
                     f"{d.dependency_timeouts} dependency timeouts")
    lines.append(
        f"  state digest: {'MATCH' if report.digests_match else 'MISMATCH'}"
        f" (clean {report.clean_digest[:12]}…, "
        f"chaos {report.chaos_digest[:12] if report.chaos_digest else '—'}…)"
        if report.failure is None else
        f"  state digest: not compared (run failed)")
    lines.append(f"  verdict: {'OK — chaos run converged' if report.ok else 'FAILED'}")
    return "\n".join(lines)
