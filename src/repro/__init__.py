"""Reproduction of "The LDBC Social Network Benchmark: Interactive
Workload" (Erling et al., SIGMOD 2015).

A from-scratch, pure-Python implementation of the complete SNB
Interactive stack:

* :mod:`repro.datagen` — the correlated social-network generator
  (DATAGEN): correlated attributes, spiking trends, sliding-window
  friendship generation, deterministic parallelism;
* :mod:`repro.schema` — the 11-entity / 20-relation SNB schema;
* :mod:`repro.store` — an MVCC snapshot-isolation property-graph store
  (the native-API SUT);
* :mod:`repro.engine` — a chunk-at-a-time relational engine with a
  cost-based optimizer (the SQL SUT);
* :mod:`repro.queries` — the 14 complex reads, 7 short reads and 8
  transactional updates;
* :mod:`repro.curation` — parameter curation (Parameter-Count tables +
  greedy minimal-variance selection);
* :mod:`repro.workload` — the Table 4 query mix, short-read random walk
  and frequency calibration;
* :mod:`repro.driver` — the dependency-tracking parallel workload driver
  (LDS/GDS, parallel / sequential / windowed execution);
* :mod:`repro.core` — benchmark orchestration and full-disclosure
  reporting.

Quickstart::

    from repro import BenchmarkConfig, InteractiveBenchmark, render_report

    report = InteractiveBenchmark(BenchmarkConfig(num_persons=300)).run()
    print(render_report(report))
"""

from .core import (
    BenchmarkConfig,
    BenchmarkReport,
    InteractiveBenchmark,
    render_report,
)
from .datagen import DatagenConfig, generate, persons_for_scale_factor
from .schema import SocialNetwork, validate_network

__version__ = "1.0.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkReport",
    "DatagenConfig",
    "InteractiveBenchmark",
    "SocialNetwork",
    "__version__",
    "generate",
    "persons_for_scale_factor",
    "render_report",
    "validate_network",
]
