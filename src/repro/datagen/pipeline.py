"""DATAGEN pipeline: person → friendship → activity stages (paper §2.4).

The original generator runs as three groups of MapReduce jobs on a Hadoop
cluster.  Here the three stages run one after another in one process, in
a fixed draw order, so the output is a pure function of the config:

* **person generation** is a pure function of each person serial;
* **friendship generation** is "a succession of stages, each of them based
  on a different correlation dimension", each a sort followed by a
  sequential sliding-window sweep;
* **person activity generation** is keyed per forum owner.

The paper's Fig. 3b scale-up belongs to the cluster.  The pipeline
records, per stage, its wall time and how much of it would partition
over workers, and :meth:`DatagenTimings.projected_seconds` turns those
serial measurements into an Amdahl projection for ``n`` nodes
(``benchmarks/bench_figure3b_datagen_scaleup.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import telemetry
from ..schema.dataset import SocialNetwork
from .activity import ActivityGenerator
from .config import DatagenConfig
from .dictionaries import Dictionaries
from .events import EventCalendar
from .friendships import generate_friendships
from .persons import generate_persons
from .universe import build_universe


@dataclass
class StageTiming:
    """Wall-clock seconds of one stage, split by parallelizability."""

    name: str
    seconds: float
    #: Fraction of the stage that partitions cleanly over workers.
    parallel_fraction: float


@dataclass
class DatagenTimings:
    """Per-stage timings of one generation run (Fig. 3b input)."""

    stages: list[StageTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def projected_seconds(self, nodes: int) -> float:
        """Amdahl projection of the run on ``nodes`` nodes."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        total = 0.0
        for stage in self.stages:
            parallel = stage.seconds * stage.parallel_fraction
            serial = stage.seconds - parallel
            total += serial + parallel / nodes
        return total


class DatagenPipeline:
    """Runs the full generation pipeline for one configuration."""

    def __init__(self, config: DatagenConfig) -> None:
        self.config = config
        self.timings = DatagenTimings()

    def run(self) -> SocialNetwork:
        """Generate the network; timings are recorded on ``self.timings``."""
        config = self.config
        dictionaries = Dictionaries(config.seed)

        started = time.perf_counter()
        universe = build_universe(dictionaries)
        self._record("universe", started, parallel_fraction=0.0)

        started = time.perf_counter()
        persons = generate_persons(config, dictionaries, universe)
        self._record("persons", started, parallel_fraction=1.0)

        started = time.perf_counter()
        knows = generate_friendships(config, universe, persons)
        # The three passes are dominated by the per-person window sweeps,
        # which would partition over workers; the sorts are the serial
        # part.
        self._record("friendships", started, parallel_fraction=0.8)

        started = time.perf_counter()
        calendar = EventCalendar.generate(config, universe)
        adjacency = _adjacency(persons, knows)
        activity = ActivityGenerator(config, dictionaries, universe,
                                     calendar).generate(persons, adjacency)
        self._record("activity", started, parallel_fraction=0.95)

        return SocialNetwork(
            persons=persons,
            knows=knows,
            forums=activity.forums,
            memberships=activity.memberships,
            posts=activity.posts,
            comments=activity.comments,
            likes=activity.likes,
            tags=list(universe.tags),
            tag_classes=list(universe.tag_classes),
            places=list(universe.places),
            organisations=list(universe.organisations),
        )

    def _record(self, name: str, started: float,
                parallel_fraction: float) -> None:
        ended = time.perf_counter()
        elapsed = ended - started
        self.timings.stages.append(StageTiming(name, elapsed,
                                               parallel_fraction))
        if telemetry.active:
            # Stages time themselves (perf_counter, the tracer's clock),
            # so they export as pre-timed spans.
            telemetry.add_span("datagen." + name, started, ended,
                               parallel_fraction=parallel_fraction)


def _adjacency(persons, knows) -> dict[int, list[tuple[int, int]]]:
    """Person id → [(friend id, friendship creation date)], both ways."""
    adjacency: dict[int, list[tuple[int, int]]] = {p.id: [] for p in persons}
    for edge in knows:
        adjacency[edge.person1_id].append((edge.person2_id,
                                           edge.creation_date))
        adjacency[edge.person2_id].append((edge.person1_id,
                                           edge.creation_date))
    return adjacency


def generate(config: DatagenConfig) -> SocialNetwork:
    """Generate a social network for the given configuration."""
    return DatagenPipeline(config).run()
