"""Optimizer coverage of the full read mix.

All 14 complex reads execute as relational plans: every query id has a
plan builder in ``snb_queries.PIPELINES`` whose joins are all costed,
and EXPLAIN renders estimates next to actuals.
"""

from __future__ import annotations

import pytest

from repro.engine import snb_queries
from repro.engine.explain import explain, explain_pipeline

ALL_QUERY_IDS = list(range(1, 15))


def _binding(curated_params, query_id):
    return curated_params.by_query[query_id][0]


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_every_query_has_a_pipeline(query_id, loaded_catalog,
                                    curated_params):
    builder = snb_queries.PIPELINES[query_id]
    pipeline = builder(loaded_catalog, _binding(curated_params,
                                                query_id))
    assert pipeline.root is not None
    # Every join step carries a costed decision.
    for decision in pipeline.decisions:
        assert decision.algorithm in ("inl", "hash")
        assert decision.inl_cost > 0 or decision.hash_cost > 0


def test_explain_renders_estimates_and_actuals(loaded_catalog,
                                               curated_params):
    """The satellite: per-operator ``est=`` next to post-run ``out=``."""
    pipeline = snb_queries.q9_plan(loaded_catalog,
                                   _binding(curated_params, 9))
    pipeline.execute()
    text = explain(pipeline.root, show_actuals=True)
    assert "est=" in text
    assert "out=" in text
    # The root (a Filter or join) carries both annotations on one line.
    assert any("est=" in line and "out=" in line
               for line in text.splitlines())
    full = explain_pipeline(pipeline, show_actuals=True)
    assert "join decisions:" in full


@pytest.mark.parametrize("query_id", [1, 3, 5, 6, 9, 11, 13])
def test_expand_sourced_plans_estimate_the_circle(query_id,
                                                  loaded_catalog,
                                                  curated_params):
    """Circle-shaped queries seed the pipeline with a k-hop estimate."""
    pipeline = snb_queries.PIPELINES[query_id](
        loaded_catalog, _binding(curated_params, query_id))
    source = pipeline.root
    while source.children:
        source = source.children[-1] if source.label.startswith(
            "hashjoin") else source.children[0]
    assert source.label.startswith("transitive(")
    assert source.estimated_rows is not None
    assert source.estimated_rows > 0
