"""Statistics-based cardinality estimation.

The paper singles out "estimating cardinality in graph traversals with
data skew and correlations" as a key choke point: graph traversals are
repeated joins, and the optimizer must "estimate the size of [the]
second-degree friendship circle in a dense social graph".

The estimator uses per-table statistics (row counts, distinct counts and
average fanout on indexed columns) plus a dedup damping factor for
repeated expansions of the same edge table — without damping, the 2-hop
estimate is ``degree²``, which badly overestimates dense circles where
friends-of-friends overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog

#: Fraction of 2nd-hop expansions expected to be novel (overlap damping).
DEDUP_DAMPING = 0.8


@dataclass
class Estimate:
    """A cardinality estimate with the reasoning chain (for EXPLAIN)."""

    rows: float
    derivation: str


class CardinalityEstimator:
    """Estimates intermediate cardinalities along a join pipeline."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def fanout(self, table_name: str, column: str | None) -> float:
        """Expected matches per probe key.

        ``column=None`` means a primary-key lookup: fanout ≤ 1, estimated
        as the probability a key is present (≈ 1 for FK-driven probes).
        """
        table = self.catalog.table(table_name)
        if column is None:
            return 1.0
        return table.average_fanout(column)

    def expand(self, input_rows: float, table_name: str,
               column: str | None, selectivity: float = 1.0,
               repeat_expansion: bool = False) -> Estimate:
        """Estimate output rows of joining ``input_rows`` with a table."""
        per_key = self.fanout(table_name, column)
        rows = input_rows * per_key * selectivity
        note = (f"{input_rows:.0f} × fanout({table_name}."
                f"{column or 'pk'})={per_key:.1f}")
        if selectivity != 1.0:
            note += f" × sel={selectivity:.2f}"
        if repeat_expansion:
            rows *= DEDUP_DAMPING
            note += f" × dedup={DEDUP_DAMPING}"
        return Estimate(rows, note)

    def average_degree(self) -> float:
        """Estimated friendship degree (knows stores both directions)."""
        return self.fanout("knows", "person1_id")

    def k_hop_circle(self, depth: int, table_name: str = "knows",
                     column: str = "person1_id") -> Estimate:
        """Estimated size of a ``depth``-hop circle from one person.

        Generalizes :meth:`two_hop_circle` for the expand-sourced plans
        (Q1's 3-hop, Q13's unbounded search).  The estimate is capped at
        the number of distinct source nodes — beyond the graph diameter
        every further hop adds nothing, which keeps Q13's "unbounded"
        depth finite.
        """
        cap = float(self.catalog.table(table_name).distinct_count(column))
        total = 0.0
        frontier = 1.0
        hops = 0
        for hop in range(depth):
            estimate = self.expand(frontier, table_name, column,
                                   repeat_expansion=hop > 0)
            frontier = estimate.rows
            total += frontier
            hops = hop + 1
            if total >= cap or frontier < 1.0:
                total = min(total, cap)
                break
        return Estimate(total,
                        f"{hops}-hop circle ≈ {total:.0f} "
                        f"(degree={self.average_degree():.1f}, "
                        f"dedup={DEDUP_DAMPING}, cap={cap:.0f})")

    def two_hop_circle(self) -> Estimate:
        """Estimated size of a 2-hop friendship circle from one person."""
        degree = self.average_degree()
        first = self.expand(1.0, "knows", "person1_id")
        second = self.expand(first.rows, "knows", "person1_id",
                             repeat_expansion=True)
        return Estimate(first.rows + second.rows,
                        f"{first.derivation}; then {second.derivation} "
                        f"(degree={degree:.1f})")

    def date_selectivity(self, table_name: str, column: str,
                         low: int | None, high: int | None) -> float:
        """Fraction of rows inside a date range (uniform assumption)."""
        table = self.catalog.table(table_name)
        if not table.rows:
            return 0.0
        position = table.schema.position(column)
        values = [table.rows[0][position], table.rows[-1][position]]
        lo_bound, hi_bound = min(values), max(values)
        span = max(hi_bound - lo_bound, 1)
        lo = lo_bound if low is None else max(low, lo_bound)
        hi = hi_bound if high is None else min(high, hi_bound)
        if hi <= lo:
            return 0.0
        return min((hi - lo) / span, 1.0)
