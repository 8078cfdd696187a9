"""Tests for DATAGEN configuration and the scale-factor law."""

from __future__ import annotations

import pytest

from repro.datagen.config import (
    DatagenConfig,
    persons_for_scale_factor,
    scale_factor_for_persons,
)
from repro.errors import DatagenError


class TestScaleFactorLaw:
    def test_table3_fit_sf30(self):
        """Paper Table 3: SF30 → 0.18M persons (±15%)."""
        persons = persons_for_scale_factor(30)
        assert abs(persons - 180_000) / 180_000 < 0.15

    def test_table3_fit_sf100(self):
        persons = persons_for_scale_factor(100)
        assert abs(persons - 500_000) / 500_000 < 0.15

    def test_table3_fit_sf300(self):
        persons = persons_for_scale_factor(300)
        assert abs(persons - 1_250_000) / 1_250_000 < 0.15

    def test_table3_fit_sf1000(self):
        persons = persons_for_scale_factor(1000)
        assert abs(persons - 3_600_000) / 3_600_000 < 0.15

    def test_sublinear(self):
        """Persons grow sublinearly with SF (messages/person grows)."""
        ratio = (persons_for_scale_factor(100)
                 / persons_for_scale_factor(10))
        assert ratio < 10

    def test_inverse(self):
        sf = scale_factor_for_persons(persons_for_scale_factor(10))
        assert abs(sf - 10) < 0.1

    def test_invalid_inputs(self):
        with pytest.raises(DatagenError):
            persons_for_scale_factor(0)
        with pytest.raises(DatagenError):
            scale_factor_for_persons(0)


class TestDatagenConfig:
    def test_defaults_valid(self):
        DatagenConfig()

    def test_for_scale_factor(self):
        config = DatagenConfig.for_scale_factor(0.01, seed=3)
        assert config.num_persons == persons_for_scale_factor(0.01)
        assert config.seed == 3

    def test_average_degree_formula(self):
        """The paper's n^(0.512 - 0.028 log10 n) law."""
        config = DatagenConfig(num_persons=700_000_000)
        assert 170 <= config.average_degree_target() <= 230

    def test_rejects_too_few_persons(self):
        with pytest.raises(DatagenError):
            DatagenConfig(num_persons=1)

    def test_rejects_bad_shares(self):
        with pytest.raises(DatagenError):
            DatagenConfig(dimension_shares=(0.5, 0.5, 0.5))

    def test_rejects_bad_geometric(self):
        with pytest.raises(DatagenError):
            DatagenConfig(window_geometric_p=1.0)

    def test_rejects_tiny_window(self):
        with pytest.raises(DatagenError):
            DatagenConfig(friendship_window=1)

    def test_rejects_nonpositive_tsafe(self):
        with pytest.raises(DatagenError):
            DatagenConfig(t_safe_millis=0)
