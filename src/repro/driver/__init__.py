"""The SNB workload driver (paper §4.2).

"The SNB query driver solves the difficult task of generating a highly
parallel workload ... on a dataset that by its complex connected component
structure is impossible to partition."

Components:

* :mod:`repro.driver.dependency` — Local/Global Dependency Services
  (Figure 7): Initiated/Completed Times, T_LI / T_LC per stream, T_GI /
  T_GC globally;
* :mod:`repro.driver.modes` — the three execution modes: Parallel (GCT
  synchronization), Sequential (per-forum causal order), Windowed
  (T_SAFE-sized out-of-order windows);
* :mod:`repro.driver.clock` — simulation-to-real-time mapping and the
  acceleration factor (the benchmark's headline metric);
* :mod:`repro.driver.connectors` — the paper's sleeping dummy
  connector (Table 5) and the recording connector of the dependency
  tests (any SUT is itself a connector);
* :mod:`repro.driver.scheduler` — multi-threaded partitioned execution
  (Figure 8's dependent-execution loop);
* :mod:`repro.driver.metrics` — latency/throughput recording, percentile
  and steady-state reporting.
"""

from .clock import AccelerationClock, AS_FAST_AS_POSSIBLE
from .connectors import RecordingConnector, SleepingConnector
from .dependency import GlobalDependencyService, LocalDependencyService
from .metrics import DriverMetrics, LatencyRecorder
from .modes import ExecutionMode
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DegradePolicy,
    RetryPolicy,
    default_is_transient,
)
from .scheduler import DriverConfig, DriverReport, WorkloadDriver

__all__ = [
    "AS_FAST_AS_POSSIBLE",
    "AccelerationClock",
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradePolicy",
    "DriverConfig",
    "DriverMetrics",
    "DriverReport",
    "ExecutionMode",
    "GlobalDependencyService",
    "LatencyRecorder",
    "LocalDependencyService",
    "RecordingConnector",
    "RetryPolicy",
    "SleepingConnector",
    "WorkloadDriver",
    "default_is_transient",
]
