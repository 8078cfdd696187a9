"""Cost-based join-type selection (the Figure 4 choke point).

"An important task for the query optimizer here is to detect the types of
joins, since they are highly sensitive to cardinalities of their inputs."

The optimizer plans *linear join pipelines*: a point source (index
lookup, or a transitive friendship expansion for the circle-shaped
queries) followed by a sequence of joins.  For every join it compares

* **index nested loop**: ``outer × (probe_cost + fanout)``, available
  when the inner table has a usable index on the join column;
* **hash join**: ``inner_rows × build_cost + outer × probe_cost +
  output`` — building on the *entire inner table* (possibly filtered),
  which wins once the outer side is large relative to the inner table.

``force`` overrides let the Figure 4 bench measure the penalty of the
wrong choice (the paper: "replacing index-nested loop with hash in ⨝1
results in 50% penalty" in HyPer).

Every planned operator is annotated with ``estimated_rows`` so EXPLAIN
can render estimates next to post-execution actuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Union

from ..errors import PlanError
from .cardinality import CardinalityEstimator
from .catalog import Catalog
from .operators import (
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    KeyLookup,
    Operator,
    Scan,
    TransitiveExpand,
)
from .predicates import Predicate

#: Cost units per index probe (hash/pk lookup).
PROBE_COST = 1.5
#: Cost units per row inserted into a hash-join build table.
BUILD_COST = 1.0
#: Cost units per produced output row.
OUTPUT_COST = 0.2

#: Residuals may be declarative predicates (column-aware, pushed into
#: INL joins) or plain row callables.
Residual = Union[Callable[[tuple], bool], Predicate]


@dataclass
class JoinStep:
    """One join of the pipeline: probe ``inner_table`` by a key column."""

    inner_table: str
    #: Column of the accumulated (outer) schema providing probe keys.
    outer_key: str
    #: Indexed column of the inner table (None → primary key).
    inner_column: str | None = None
    #: Residual predicate applied to the join output.
    residual: Residual | None = None
    #: Estimated selectivity of the residual (for downstream estimates).
    selectivity: float = 1.0
    #: True when this re-expands an edge table already expanded once
    #: (enables the estimator's dedup damping).
    repeat_expansion: bool = False
    #: Force a join algorithm ("inl" or "hash"); None → cost-based.
    force: str | None = None


@dataclass
class ExpandSource:
    """Pipeline source: a bounded-depth friendship-circle expansion.

    The circle-shaped queries (Q1/Q3/Q5/Q6/Q9/Q11/Q13) start from the
    k-hop circle of one person rather than a key list; the source
    operator is :class:`TransitiveExpand` and the estimator's k-hop
    circle estimate seeds the pipeline's outer cardinality."""

    edges_table: str
    source_key: Any
    max_depth: int
    from_column: str = "person1_id"
    to_column: str = "person2_id"


@dataclass
class JoinSpec:
    """A linear pipeline: source (lookup or expansion) + join steps."""

    source_table: str | None = None
    source_keys: list[Any] = field(default_factory=list)
    #: Indexed column the source keys probe (None → primary key).
    source_column: str | None = None
    steps: list[JoinStep] = field(default_factory=list)
    #: Alternative source: a transitive expansion instead of a lookup.
    source_expand: ExpandSource | None = None

    def __post_init__(self) -> None:
        if (self.source_table is None) == (self.source_expand is None):
            raise PlanError(
                "JoinSpec needs exactly one of source_table / "
                "source_expand")


@dataclass
class PlannedJoin:
    """The optimizer's decision for one step (Fig. 4 annotations)."""

    step_index: int
    inner_table: str
    algorithm: str
    estimated_outer: float
    estimated_output: float
    inl_cost: float
    hash_cost: float

    @property
    def chosen_cost(self) -> float:
        return self.inl_cost if self.algorithm == "inl" \
            else self.hash_cost


@dataclass
class PlannedPipeline:
    """A physical plan plus the decisions that produced it."""

    root: Operator
    decisions: list[PlannedJoin]

    def execute(self) -> list[tuple]:
        return self.root.execute()

    def execute_columns(self) -> list[list]:
        """Full result as parallel column arrays."""
        return self.root.execute_columns()


class Optimizer:
    """Plans join pipelines against a catalog.

    Every call estimates and costs afresh from the tables' live row
    counts, so each binding's join algorithms follow its own input
    cardinalities.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog)

    def plan(self, spec: JoinSpec) -> PlannedPipeline:
        """Choose join algorithms and build the physical plan."""
        root, outer_rows = self._source(spec)
        decisions: list[PlannedJoin] = []
        for index, step in enumerate(spec.steps):
            root, outer_rows, decision = self._plan_step(
                root, outer_rows, index, step)
            decisions.append(decision)
        return PlannedPipeline(root, decisions)

    def _source(self, spec: JoinSpec) -> tuple[Operator, float]:
        """Build the pipeline source and estimate its cardinality."""
        if spec.source_expand is not None:
            expand = spec.source_expand
            root: Operator = TransitiveExpand(
                self.catalog.table(expand.edges_table),
                expand.source_key, expand.max_depth,
                expand.from_column, expand.to_column)
            rows = self.estimator.k_hop_circle(
                expand.max_depth, expand.edges_table,
                expand.from_column).rows
        else:
            source_table = self.catalog.table(spec.source_table)
            root = KeyLookup(source_table, spec.source_keys,
                             spec.source_column)
            rows = self.estimator.expand(
                float(len(spec.source_keys)), spec.source_table,
                spec.source_column).rows
        root.estimated_rows = rows
        return root, rows

    def _plan_step(self, outer: Operator, outer_rows: float, index: int,
                   step: JoinStep):
        inner = self.catalog.table(step.inner_table)
        estimate = self.estimator.expand(
            outer_rows, step.inner_table, step.inner_column,
            step.selectivity, step.repeat_expansion)
        fanout = self.estimator.fanout(step.inner_table,
                                       step.inner_column)
        inl_cost = outer_rows * (PROBE_COST + fanout) \
            + estimate.rows * OUTPUT_COST
        hash_cost = (inner.row_count * BUILD_COST
                     + outer_rows * PROBE_COST
                     + estimate.rows * OUTPUT_COST)
        indexed = (step.inner_column is None
                   or inner.has_hash_index(step.inner_column))
        if step.force is not None:
            algorithm = step.force
        elif not indexed:
            algorithm = "hash"
        elif step.inner_column is None:
            # Hash joins build on a join column; pk probes are INL-only.
            algorithm = "inl"
        else:
            algorithm = "inl" if inl_cost <= hash_cost else "hash"

        joined = self._build_join(outer, index, step, algorithm)
        joined.estimated_rows = estimate.rows
        decision = PlannedJoin(
            step_index=index,
            inner_table=step.inner_table,
            algorithm=algorithm,
            estimated_outer=outer_rows,
            estimated_output=estimate.rows,
            inl_cost=inl_cost,
            hash_cost=hash_cost,
        )
        return joined, estimate.rows, decision

    def _build_join(self, outer: Operator, index: int, step: JoinStep,
                    algorithm: str) -> Operator:
        """Construct one step's physical operators for an algorithm."""
        inner = self.catalog.table(step.inner_table)
        indexed = (step.inner_column is None
                   or inner.has_hash_index(step.inner_column))
        if algorithm == "inl" and not indexed:
            raise PlanError(
                f"cannot INL-join {step.inner_table}.{step.inner_column} "
                "without an index")

        residual = step.residual
        if algorithm == "inl":
            # A declarative residual is pushed into the join for late
            # materialization: candidates it rejects are never assembled
            # into output columns, and no Filter is stacked on top.
            pushed = isinstance(residual, Predicate)
            joined: Operator = IndexNestedLoopJoin(
                outer, inner, step.outer_key, step.inner_column,
                residual=residual if pushed else None)
            if pushed:
                residual = None
        else:
            build: Operator = Scan(inner)
            if step.inner_column is None:
                raise PlanError("hash join needs an inner column")
            joined = HashJoin(build, outer, step.inner_column,
                              step.outer_key,
                              label=f"hashjoin({step.inner_table})",
                              prefix="inner_")
        if residual is not None:
            joined = Filter(joined, residual, label=f"filter#{index}")
        return joined
