"""DATAGEN: the correlated social-network data generator (paper Section 2).

The generator simulates user activity in a social network over three years.
It reproduces the paper's three pillars:

* **Correlated attribute values** (Table 1): a person's location determines
  the ranking (not the shape) of the skewed distributions their first name,
  last name, university, company and languages are drawn from; interests
  follow location; message topics follow interests; message text follows
  topics.
* **Time correlation and spiking trends** (Fig. 2a): all timestamps obey the
  logical ordering rules, and post volume optionally spikes around simulated
  events (trending topics).
* **Structure correlation** (Fig. 1, Fig. 3a): friendship edges are produced
  by a multi-stage sliding-window process over correlation dimensions
  (study location via Z-order composite key, interests, random) with a
  45/45/10 degree budget split, against a discretized Facebook-shaped degree
  distribution scaled by ``n^(0.512 - 0.028 log10 n)``.

Entry point: :func:`repro.datagen.pipeline.generate` /
:class:`repro.datagen.pipeline.DatagenPipeline`.
"""

from .config import DatagenConfig, persons_for_scale_factor
from .pipeline import DatagenPipeline, generate

__all__ = [
    "DatagenConfig",
    "DatagenPipeline",
    "generate",
    "persons_for_scale_factor",
]
