"""Configuration for DATAGEN.

Scale is expressed either directly as a person count or as a *scale factor*
(SF).  In the paper the SF is the number of GB of CSV data; persons grow
sublinearly with SF (paper Table 3: SF30 → 0.18M persons, SF1000 → 3.6M).
Fitting a power law to Table 3 gives ``persons ≈ 10000 · SF^0.849``, which
this module uses so miniature runs keep the paper's scaling relationships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import DatagenError
from ..sim_time import DEFAULT_WINDOW, SimulationWindow

#: Fit of persons-vs-SF to the paper's Table 3.
_PERSONS_COEFFICIENT = 10000.0
_PERSONS_EXPONENT = 0.849


def persons_for_scale_factor(scale_factor: float) -> int:
    """Person count for a given scale factor (paper Table 3 power-law fit)."""
    if scale_factor <= 0:
        raise DatagenError(f"scale factor must be positive: {scale_factor}")
    return max(10, round(_PERSONS_COEFFICIENT
                         * scale_factor ** _PERSONS_EXPONENT))


def scale_factor_for_persons(num_persons: int) -> float:
    """Inverse of :func:`persons_for_scale_factor` (for reporting)."""
    if num_persons <= 0:
        raise DatagenError(f"person count must be positive: {num_persons}")
    return (num_persons / _PERSONS_COEFFICIENT) ** (1.0 / _PERSONS_EXPONENT)


@dataclass
class DatagenConfig:
    """All knobs of the data generator.

    The output of :func:`repro.datagen.pipeline.generate` is a pure function
    of this configuration — the paper: "we have paid specific attention
    to making data generation deterministic".
    """

    num_persons: int = 300
    seed: int = 42
    window: SimulationWindow = field(default_factory=lambda: DEFAULT_WINDOW)
    #: Enable event-driven spiking post generation (Fig. 2a).  When off,
    #: post timestamps are uniform over each person's active period.
    event_driven_posts: bool = True
    #: Number of simulated world events per simulated year.
    events_per_year: int = 12
    #: Sliding window size for friendship generation (persons kept in
    #: memory per worker during a pass).
    friendship_window: int = 200
    #: Degree budget split across the three correlation passes
    #: (study location, interest, random) — paper: 45% / 45% / 10%.
    dimension_shares: tuple[float, float, float] = (0.45, 0.45, 0.10)
    #: Geometric parameter for picking friends by window distance.  At
    #: miniature scales correlation clusters (same university+year, same
    #: primary interest) hold only a handful of persons, so the decay is
    #: steeper than a cluster-scale deployment would use — the mean jump
    #: (≈ 1/p) must stay comparable to the cluster size for the
    #: homophily correlation to materialize.
    window_geometric_p: float = 0.18
    #: Mean number of forum groups a person moderates.
    mean_groups_per_person: float = 0.35
    #: Mean posts per wall-forum per active month, before degree scaling.
    posts_per_friendship: float = 2.0
    #: Mean comments attached below each post (discussion tree size).
    mean_comments_per_post: float = 1.4
    #: Probability that a friend likes a given message.
    like_probability: float = 0.08
    #: Minimum gap (ms) between a dependency and its dependents
    #: (paper: T_SAFE, enabling windowed execution).
    t_safe_millis: int = 10 * 24 * 3600 * 1000
    #: Maximum number of interests (tags) per person.
    max_interests: int = 12
    #: Probability a person has a second university / workplace entry.
    extra_affiliation_p: float = 0.15

    @classmethod
    def for_scale_factor(cls, scale_factor: float, **overrides) -> "DatagenConfig":
        """Config for a scale factor; person count derived from Table 3 fit."""
        return cls(num_persons=persons_for_scale_factor(scale_factor),
                   **overrides)

    def __post_init__(self) -> None:
        if self.num_persons < 2:
            raise DatagenError("need at least 2 persons")
        if abs(sum(self.dimension_shares) - 1.0) > 1e-9:
            raise DatagenError("dimension shares must sum to 1")
        if not 0 < self.window_geometric_p < 1:
            raise DatagenError("window_geometric_p must be in (0,1)")
        if self.friendship_window < 2:
            raise DatagenError("friendship window must be >= 2")
        if self.t_safe_millis <= 0:
            raise DatagenError("t_safe_millis must be positive")

    @property
    def scale_factor(self) -> float:
        """Approximate SF this person count corresponds to."""
        return scale_factor_for_persons(self.num_persons)

    def average_degree_target(self) -> float:
        """Paper formula: ``avg_degree = n^(0.512 - 0.028 · log10 n)``.

        At Facebook size (700M persons) this yields ≈ 200 friends.
        """
        n = self.num_persons
        return n ** (0.512 - 0.028 * math.log10(n))
