"""Tests for cardinality estimation and cost-based join selection."""

from __future__ import annotations

import pytest

from repro.engine.cardinality import CardinalityEstimator
from repro.engine.explain import explain, explain_pipeline
from repro.engine.optimizer import JoinSpec, JoinStep, Optimizer
from repro.engine import snb_queries
from repro.errors import PlanError
from repro.queries.complex_reads import q2 as g2
from repro.queries.complex_reads import q9 as g9


class TestCardinalityEstimator:
    def test_fanout_pk_is_one(self, loaded_catalog):
        estimator = CardinalityEstimator(loaded_catalog)
        assert estimator.fanout("person", None) == 1.0

    def test_knows_fanout_is_average_degree(self, network,
                                            loaded_catalog):
        estimator = CardinalityEstimator(loaded_catalog)
        degree = estimator.average_degree()
        actual = 2 * len(network.knows) / len(network.persons)
        # Persons with zero friends are absent from the index, so the
        # estimator slightly overestimates; allow a band.
        assert actual * 0.8 <= degree <= actual * 1.6

    def test_expand_chains(self, loaded_catalog):
        estimator = CardinalityEstimator(loaded_catalog)
        one = estimator.expand(1.0, "knows", "person1_id")
        two = estimator.expand(one.rows, "knows", "person1_id",
                               repeat_expansion=True)
        assert two.rows > one.rows
        assert "dedup" in two.derivation

    def test_two_hop_estimate_positive(self, loaded_catalog):
        estimator = CardinalityEstimator(loaded_catalog)
        estimate = estimator.two_hop_circle()
        assert estimate.rows > estimator.average_degree()

    def test_date_selectivity_bounds(self, loaded_catalog):
        estimator = CardinalityEstimator(loaded_catalog)
        full = estimator.date_selectivity("message", "creation_date",
                                          None, None)
        assert full == pytest.approx(1.0)
        none = estimator.date_selectivity("message", "creation_date",
                                          10, 5)
        assert none == 0.0

    def test_date_selectivity_half(self, network, loaded_catalog):
        estimator = CardinalityEstimator(loaded_catalog)
        dates = sorted(m.creation_date for m in network.messages())
        mid = dates[len(dates) // 2]
        half = estimator.date_selectivity("message", "creation_date",
                                          None, mid)
        assert 0.1 < half < 0.95


class TestOptimizer:
    def _q9_spec(self, person_id, max_date, force=None):
        force = force or {}
        return JoinSpec(
            source_table="knows", source_keys=[person_id],
            source_column="person1_id",
            steps=[
                JoinStep("knows", outer_key="person2_id",
                         inner_column="person1_id",
                         repeat_expansion=True, force=force.get(0)),
                JoinStep("message", outer_key="inner_person2_id",
                         inner_column="creator_id",
                         residual=lambda row: row[9] < max_date,
                         selectivity=0.5, force=force.get(1)),
            ])

    def test_intended_plan_uses_inl_for_friend_expansion(
            self, network, loaded_catalog):
        """Fig. 4: the low-cardinality friend expansion must be an
        index-nested-loop join."""
        person = network.persons[0]
        pipeline = Optimizer(loaded_catalog).plan(
            self._q9_spec(person.id, 2 ** 62))
        assert pipeline.decisions[0].algorithm == "inl"

    def test_forced_algorithms_agree_on_results(self, network,
                                                loaded_catalog):
        person = network.persons[0]
        max_date = network.posts[-1].creation_date
        optimizer = Optimizer(loaded_catalog)
        free = optimizer.plan(self._q9_spec(person.id, max_date))
        forced = optimizer.plan(self._q9_spec(
            person.id, max_date, force={0: "hash", 1: "hash"}))
        assert sorted(free.execute()) == sorted(forced.execute())

    def test_hash_wins_when_outer_huge(self, loaded_catalog):
        """With a huge outer side, the cost model must flip to hash."""
        optimizer = Optimizer(loaded_catalog)
        knows = loaded_catalog.table("knows")
        all_sources = [row[0] for row in knows.rows]
        spec = JoinSpec(
            source_table="knows", source_keys=all_sources,
            source_column="person1_id",
            steps=[JoinStep("message", outer_key="person2_id",
                            inner_column="creator_id")])
        pipeline = optimizer.plan(spec)
        decision = pipeline.decisions[0]
        assert decision.estimated_outer > 1000
        assert decision.algorithm == "hash"

    def test_unindexed_column_forces_hash(self, loaded_catalog):
        spec = JoinSpec(
            source_table="person",
            source_keys=[loaded_catalog.table("person").rows[0][0]],
            steps=[JoinStep("forum", outer_key="id",
                            inner_column="moderator_id")])
        # forum.moderator_id has no hash index.
        pipeline = Optimizer(loaded_catalog).plan(spec)
        assert pipeline.decisions[0].algorithm == "hash"

    def test_forcing_inl_without_index_raises(self, loaded_catalog):
        spec = JoinSpec(
            source_table="person",
            source_keys=[loaded_catalog.table("person").rows[0][0]],
            steps=[JoinStep("forum", outer_key="id",
                            inner_column="moderator_id",
                            force="inl")])
        with pytest.raises(PlanError):
            Optimizer(loaded_catalog).plan(spec)

    def test_decision_costs_recorded(self, network, loaded_catalog):
        person = network.persons[0]
        pipeline = Optimizer(loaded_catalog).plan(
            self._q9_spec(person.id, 2 ** 62))
        for decision in pipeline.decisions:
            assert decision.inl_cost > 0
            assert decision.hash_cost > 0
            assert decision.chosen_cost \
                == min(decision.inl_cost, decision.hash_cost) \
                or decision.algorithm in ("inl", "hash")


class TestQ9Pipeline:
    def test_pipeline_matches_leg_semantics(self, network,
                                            loaded_catalog,
                                            curated_params):
        """The pipeline is the voluminous friends-of-friends leg of the
        Fig. 4 union: messages of every endpoint of a length-2 knows
        path (duplicates per path, dates filtered)."""
        params = curated_params.by_query[9][0]
        pipeline = snb_queries.q9_pipeline(loaded_catalog, params)
        rows = pipeline.execute()
        got = {row[6] for row in rows}  # message ids
        knows = loaded_catalog.table("knows")
        expected = set()
        for edge1 in knows.probe("person1_id", params.person_id):
            for edge2 in knows.probe("person1_id", edge1[1]):
                for message in loaded_catalog.table("message").probe(
                        "creator_id", edge2[1]):
                    if message[3] < params.max_date:
                        expected.add(message[0])
        assert got == expected

    def test_q2_pipeline_runs(self, loaded_catalog, curated_params):
        params = curated_params.by_query[2][0]
        pipeline = snb_queries.q2_pipeline(loaded_catalog, params)
        assert pipeline.execute() is not None

    def test_q5_pipeline_matches_leg_semantics(self, loaded_catalog,
                                               curated_params):
        """Q5's pipeline: memberships (joined after the date) of every
        endpoint of a length-2 knows path."""
        params = curated_params.by_query[5][0]
        pipeline = snb_queries.q5_pipeline(loaded_catalog, params)
        rows = pipeline.execute()
        got = {(row[6], row[7]) for row in rows}  # (forum, person)
        knows = loaded_catalog.table("knows")
        membership = loaded_catalog.table("membership")
        expected = set()
        for edge1 in knows.probe("person1_id", params.person_id):
            for edge2 in knows.probe("person1_id", edge1[1]):
                for row in membership.probe("person_id", edge2[1]):
                    if row[2] > params.min_date:
                        expected.add((row[0], row[1]))
        assert got == expected

    def test_q5_pipeline_forced_algorithms_agree(self, loaded_catalog,
                                                 curated_params):
        params = curated_params.by_query[5][0]
        free = snb_queries.q5_pipeline(loaded_catalog, params)
        forced = snb_queries.q5_pipeline(loaded_catalog, params,
                                         force={0: "hash", 1: "hash"})
        assert sorted(free.execute()) == sorted(forced.execute())


class TestExplain:
    def test_explain_tree_structure(self, network, loaded_catalog,
                                    curated_params):
        params = curated_params.by_query[9][0]
        pipeline = snb_queries.q9_pipeline(loaded_catalog, params)
        text = explain(pipeline.root)
        assert "lookup(knows.person1_id)" in text
        assert "knows" in text

    def test_explain_with_actuals(self, loaded_catalog, curated_params):
        params = curated_params.by_query[9][0]
        pipeline = snb_queries.q9_pipeline(loaded_catalog, params)
        pipeline.execute()
        text = explain_pipeline(pipeline, show_actuals=True)
        assert "out=" in text
        assert "join decisions:" in text
        assert "cost(inl)=" in text

    def test_explain_residual_on_inl_join(self, loaded_catalog,
                                          curated_params):
        """An INL join applies its residual itself: no Filter node is
        stacked on it, and EXPLAIN renders the predicate on the join."""
        params = curated_params.by_query[9][0]
        pipeline = snb_queries.q9_pipeline(loaded_catalog, params,
                                           force={1: "inl"})
        pipeline.execute()
        text = explain(pipeline.root, show_actuals=True)
        root_line = text.splitlines()[0]
        assert root_line.startswith(
            "inl(message on creator_id) where "
            f"inner_inner_creation_date lt {params.max_date}")
        assert "filter" not in text
        assert all("est=" in line and "out=" in line
                   for line in text.splitlines())
        hashed = snb_queries.q9_pipeline(loaded_catalog, params,
                                         force={1: "hash"})
        assert explain(hashed.root).startswith("filter#1")
