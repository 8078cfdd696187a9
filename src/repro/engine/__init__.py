"""Relational chunk-at-a-time engine — the second system under test.

The paper's evaluation runs SNB-Interactive on Virtuoso, a relational
store, with "queries in SQL with vendor-specific extensions for graph
algorithms" and *explicit plans*.  This package plays that role:

* :mod:`repro.engine.rows` — schemas, tables, hash/ordered/primary-key
  indexes and the maintained adjacency the graph traversals expand;
* :mod:`repro.engine.catalog` — the SNB relational schema (person, knows,
  message, likes, forum, membership, ...), loaded from a generated
  network, plus table statistics;
* :mod:`repro.engine.chunks` / :mod:`repro.engine.predicates` — the
  columnar chunk operators exchange, and the declarative residual
  predicates evaluated over chunk columns;
* :mod:`repro.engine.operators` — pull-based operators exchanging
  chunks: scans, index lookups, index-nested-loop and hash joins,
  sort/limit/aggregate, and a transitive-expansion operator (the
  "vendor extension" for graph traversals);
* :mod:`repro.engine.cardinality` — statistics-based cardinality
  estimates for friendship expansions (the paper's hardest choke point);
* :mod:`repro.engine.optimizer` — cost-based join-type selection,
  reproducing the Figure 4 discussion: INL join for the low-cardinality
  friend expansion, hash join for the voluminous message join, and a
  measurable ~50% penalty for choosing wrong;
* :mod:`repro.engine.explain` — plan rendering à la Figure 4;
* :mod:`repro.engine.snb_queries` — explicit physical plans for the 14
  complex reads, 7 short reads and 8 updates.
"""

from .catalog import Catalog, load_catalog
from .explain import explain
from .operators import (
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    Limit,
    Project,
    Scan,
    Sort,
    TransitiveExpand,
)
from .optimizer import JoinSpec, Optimizer, PlannedJoin
from .rows import Schema, Table

__all__ = [
    "Catalog",
    "Filter",
    "HashJoin",
    "IndexNestedLoopJoin",
    "JoinSpec",
    "Limit",
    "Optimizer",
    "PlannedJoin",
    "Project",
    "Scan",
    "Schema",
    "Sort",
    "Table",
    "TransitiveExpand",
    "explain",
    "load_catalog",
]
