"""End-to-end SNB-Interactive benchmark orchestration.

Mirrors the paper's run procedure:

1. DATAGEN generates the three-year network;
2. the first 32 months are bulk-loaded into the SUT, the last 4 months
   become the transactional update stream;
3. parameters are curated from generation statistics;
4. the Table 4 query mix is interleaved into the update stream;
5. the driver plays the stream at the chosen acceleration factor;
6. the run reports sustained-acceleration status, throughput, and the
   per-query latency breakdown (the full-disclosure tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..curation.curator import CuratedWorkloadParams, ParameterCurator
from ..datagen.config import DatagenConfig
from ..datagen.pipeline import generate
from ..datagen.stats import FrequencyStatistics
from ..datagen.update_stream import SplitDataset, split_network
from ..driver.clock import AS_FAST_AS_POSSIBLE
from ..driver.metrics import ClassStats, steady_state_ok
from ..driver.modes import ExecutionMode
from ..driver.scheduler import DriverConfig, WorkloadDriver
from ..errors import BenchmarkError
from ..schema.dataset import SocialNetwork
from ..workload.mix import QueryMix, build_mixed_stream
from ..workload.random_walk import RandomWalkConfig
from .connector import InteractiveConnector
from .sut import SystemUnderTest, load_sut


@dataclass
class BenchmarkConfig:
    """Everything a benchmark run depends on."""

    num_persons: int = 300
    seed: int = 42
    #: "store" (native graph API) or "engine" (relational plans).
    sut: str = "store"
    acceleration: float = AS_FAST_AS_POSSIBLE
    num_partitions: int = 4
    mode: ExecutionMode = ExecutionMode.SEQUENTIAL
    bindings_per_query: int = 10
    walk: RandomWalkConfig = field(default_factory=RandomWalkConfig)
    #: Complex-read frequencies; None → the paper's Table 4.
    frequencies: dict[int, int] | None = None
    #: Use uniform random parameters instead of curated ones (the
    #: Fig. 5 baseline).
    uniform_parameters: bool = False
    #: ``host:port`` of a ``repro serve`` instance; when set, the
    #: driver executes over the wire instead of loading a local SUT
    #: (the server must be loaded with the same persons/seed for
    #: digests to agree).
    remote: str | None = None
    #: > 0 partitions the store SUT across this many worker processes
    #: behind the shard router (``--shards``); 0 keeps the store
    #: in-process.
    shards: int = 0


@dataclass
class BenchmarkReport:
    """Full-disclosure outcome of one run."""

    sut_name: str
    acceleration_target: float
    wall_seconds: float
    operations: int
    throughput: float
    complex_stats: dict[str, ClassStats]
    short_stats: dict[str, ClassStats]
    update_stats: dict[str, ClassStats]
    short_reads: int
    late_fraction: float
    #: Whether p99 complex-read latency stayed stable (run validity).
    steady_state: bool
    #: Whether the run kept up with the target acceleration.
    sustained: bool

    def mean_latency_row(self, stats: dict[str, ClassStats],
                         prefix: str, count: int) -> list[float]:
        """Mean latencies in ms ordered Q1..Qn / S1..Sn (0 if absent)."""
        row = []
        for index in range(1, count + 1):
            entry = stats.get(f"{prefix}{index}")
            row.append(entry.mean_ms if entry else 0.0)
        return row


class InteractiveBenchmark:
    """Prepares and runs the SNB-Interactive workload on one SUT."""

    def __init__(self, config: BenchmarkConfig) -> None:
        self.config = config
        self.network: SocialNetwork | None = None
        self.split: SplitDataset | None = None
        self.params: CuratedWorkloadParams | None = None
        self.sut: SystemUnderTest | None = None
        self.stream: list | None = None
        self.connector: InteractiveConnector | None = None

    # -- preparation -------------------------------------------------------

    def prepare(self) -> None:
        """Generate, split, bulk-load, curate, and build the op stream."""
        config = self.config
        datagen = DatagenConfig(num_persons=config.num_persons,
                                seed=config.seed)
        self.network = generate(datagen)
        self.split = split_network(self.network)
        self.sut = load_sut(config.sut, self.split.bulk,
                            shards=config.shards, remote=config.remote)
        stats = FrequencyStatistics.of(self.network)
        curator = ParameterCurator(self.network, stats, seed=config.seed)
        self.params = curator.curate(config.bindings_per_query,
                                     uniform=config.uniform_parameters)
        mix = QueryMix(config.frequencies)
        self.stream = build_mixed_stream(self.split.updates, self.params,
                                         mix, walk_seed=config.seed)
        self.connector = InteractiveConnector(self.sut, config.walk,
                                              seed=config.seed)

    def final_state_digest(self) -> str:
        """Canonical digest of the SUT's state after the run.

        The remote/in-process equivalence oracle: a loopback ``--remote``
        run against a server loaded with the same (persons, seed) must
        report the byte-identical digest an in-process run reports.
        """
        if self.sut is None:
            raise BenchmarkError("run the benchmark before digesting")
        return self.sut.digest()

    def close(self) -> None:
        """Release SUT resources (shard workers, wire connections)."""
        if self.sut is not None:
            self.sut.close()

    # -- the measured run ---------------------------------------------------

    def run(self) -> BenchmarkReport:
        """Play the mixed stream through the driver; build the report."""
        if self.stream is None:
            self.prepare()
        config = self.config
        driver_config = DriverConfig(
            num_partitions=config.num_partitions,
            mode=config.mode,
            acceleration=config.acceleration,
        )
        driver = WorkloadDriver(self.connector, driver_config)
        report = driver.run(self.stream)
        per_class = report.metrics.per_class
        complex_stats = {name: stats for name, stats in per_class.items()
                        if name.startswith("Q")}
        update_stats = {name: stats for name, stats in per_class.items()
                        if name.startswith("ADD_")}
        short_stats = self.connector.short_recorder.stats()
        p99_series = []
        for name in complex_stats:
            p99_series.extend(
                driver.recorder.p99_series(name, window_seconds=2.0))
        return BenchmarkReport(
            sut_name=self.sut.name,
            acceleration_target=config.acceleration,
            wall_seconds=report.metrics.wall_seconds,
            operations=report.metrics.operations,
            throughput=report.metrics.throughput,
            complex_stats=complex_stats,
            short_stats=short_stats,
            update_stats=update_stats,
            short_reads=self.connector.short_reads_executed,
            late_fraction=report.metrics.late_fraction,
            steady_state=steady_state_ok(p99_series),
            sustained=report.metrics.late_fraction < 0.05,
        )
