"""Tests for the DATAGEN pipeline: determinism and timing projection."""

from __future__ import annotations

import pytest

from repro.datagen import DatagenConfig, generate
from repro.datagen.pipeline import DatagenPipeline, StageTiming, \
    DatagenTimings
from repro.schema import validate_network
from repro.validation import snapshot_digest, snapshot_store

#: ``snapshot_digest`` of the session ``network`` fixture (150 persons,
#: seed 7).
SESSION_NETWORK_DIGEST = ("sha256:05f54b158d46f4cfe441aea3f9539484"
                          "fba6cd3073e453c96c57e06a9d824133")


class TestDeterminism:
    def test_same_config_same_network(self):
        a = generate(DatagenConfig(num_persons=80, seed=17))
        b = generate(DatagenConfig(num_persons=80, seed=17))
        assert a.persons == b.persons
        assert a.knows == b.knows
        assert a.forums == b.forums
        assert a.posts == b.posts
        assert a.comments == b.comments
        assert a.likes == b.likes
        assert a.memberships == b.memberships

    def test_session_network_digest_is_pinned(self, loaded_store):
        """Any change to an emitted value or to the draw order moves the
        session network's state digest; update the pinned value only for
        a deliberate change to the generated data."""
        digest = snapshot_digest(snapshot_store(loaded_store))
        assert digest == SESSION_NETWORK_DIGEST

    def test_owner_processing_order_does_not_change_activity(self):
        """Activity generation is keyed per owner, so processing owners
        in any order yields the same forums/messages."""
        from repro.datagen.activity import ActivityGenerator
        from repro.datagen.dictionaries import Dictionaries
        from repro.datagen.events import EventCalendar
        from repro.datagen.friendships import generate_friendships
        from repro.datagen.persons import generate_persons
        from repro.datagen.pipeline import _adjacency
        from repro.datagen.universe import build_universe

        config = DatagenConfig(num_persons=60, seed=23)
        dictionaries = Dictionaries(config.seed)
        universe = build_universe(dictionaries)
        persons = generate_persons(config, dictionaries, universe)
        knows = generate_friendships(config, universe, persons)
        adjacency = _adjacency(persons, knows)
        calendar = EventCalendar.generate(config, universe)

        forward = ActivityGenerator(config, dictionaries, universe,
                                    calendar).generate(persons, adjacency)
        backward = ActivityGenerator(
            config, dictionaries, universe, calendar
        ).generate(list(reversed(persons)), adjacency)
        assert forward.forums == backward.forums
        assert forward.posts == backward.posts
        assert forward.comments == backward.comments
        assert forward.likes == backward.likes
        assert forward.memberships == backward.memberships

    def test_seed_changes_network(self):
        a = generate(DatagenConfig(num_persons=60, seed=1))
        b = generate(DatagenConfig(num_persons=60, seed=2))
        assert a.persons != b.persons


class TestIntegrity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_networks_validate(self, seed):
        network = generate(DatagenConfig(num_persons=70, seed=seed))
        report = validate_network(network)
        assert report.ok, report.violations[:10]

    def test_session_network_validates(self, network):
        report = validate_network(network)
        assert report.ok, report.violations[:10]


class TestTimings:
    def test_stages_recorded(self):
        pipeline = DatagenPipeline(DatagenConfig(num_persons=40, seed=1))
        pipeline.run()
        names = [stage.name for stage in pipeline.timings.stages]
        assert names == ["universe", "persons", "friendships",
                         "activity"]
        assert pipeline.timings.total_seconds > 0

    def test_amdahl_projection(self):
        timings = DatagenTimings([
            StageTiming("a", 10.0, parallel_fraction=1.0),
            StageTiming("b", 10.0, parallel_fraction=0.0),
        ])
        assert timings.projected_seconds(1) == pytest.approx(20.0)
        assert timings.projected_seconds(10) == pytest.approx(11.0)

    def test_projection_monotone(self):
        pipeline = DatagenPipeline(DatagenConfig(num_persons=40, seed=1))
        pipeline.run()
        t1 = pipeline.timings.projected_seconds(1)
        t3 = pipeline.timings.projected_seconds(3)
        t10 = pipeline.timings.projected_seconds(10)
        assert t1 >= t3 >= t10

    def test_projection_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            DatagenTimings([]).projected_seconds(0)
