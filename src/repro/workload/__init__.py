"""Workload definition: query mix, short-read random walk, calibration.

Paper §4 "Query Mix": the workload is read-dominated and calibrated so
that ~10% of total runtime goes to updates, ~50% to complex reads and
~40% to simple reads, with each complex query taking an approximately
equal share of the complex-read budget — realized by the Table 4 relative
frequencies (one execution of query *i* per ``f_i`` update operations).
"""

from .mix import TABLE4_FREQUENCIES, QueryMix, build_mixed_stream
from .operations import EntityRef, ReadOperation
from .random_walk import RandomWalkConfig, extract_entities, run_walk
from .calibration import (
    CalibrationResult,
    calibrate_frequencies,
    expected_walk_length,
    scale_frequencies,
    solve_walk_probability,
)

__all__ = [
    "CalibrationResult",
    "EntityRef",
    "QueryMix",
    "ReadOperation",
    "RandomWalkConfig",
    "TABLE4_FREQUENCIES",
    "build_mixed_stream",
    "calibrate_frequencies",
    "expected_walk_length",
    "extract_entities",
    "run_walk",
    "scale_frequencies",
    "solve_walk_probability",
]
