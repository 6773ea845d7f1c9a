"""Unit tests for the closed set of algorithms and the forecasting model the
seasonal periods pick."""

import numpy as np
import pytest

from repro.core.ada import ADAAlgorithm
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.sta import STAAlgorithm
from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank, load_seasonal_state
from repro.forecasting.holt_winters import (
    HoltWintersForecaster,
    MultiSeasonalHoltWinters,
)
from repro.hierarchy.tree import HierarchyTree


@pytest.fixture
def tree():
    return HierarchyTree([("a", "a1"), ("a", "a2"), ("b", "b1")])


@pytest.fixture
def config():
    return TiresiasConfig(
        theta=4.0, delta_seconds=100.0, window_units=16,
        forecast=ForecastConfig(season_lengths=(4,)),
    )


class TestAlgorithmRegistry:
    def test_builtins_registered(self):
        assert ALGORITHMS == {"ada": ADAAlgorithm, "sta": STAAlgorithm}

    def test_create_builtin_algorithms(self, tree, config):
        assert isinstance(create_algorithm("ada", tree, config), ADAAlgorithm)
        assert isinstance(create_algorithm("sta", tree, config), STAAlgorithm)

    def test_unknown_name_raises_with_known_names(self, tree, config):
        with pytest.raises(ConfigurationError, match="ada"):
            create_algorithm("magic", tree, config)


class TestForecastModels:
    def test_auto_model_picks_by_season_count(self):
        single = fed_row(ForecastConfig(season_lengths=(2,)), [1.0, 2.0, 1.0, 2.0])
        assert isinstance(seasonal_model(*single), HoltWintersForecaster)
        multi = fed_row(ForecastConfig(season_lengths=(2, 4)), [1.0, 2.0] * 4)
        assert isinstance(seasonal_model(*multi), MultiSeasonalHoltWinters)


def fed_row(config, values):
    """A bank and its one row, which observed ``values``."""
    bank = ForecasterBank(config)
    row = bank.new_row()
    for value in values:
        bank.observe_rows(np.array([row]), np.array([value]))
    return bank, row


def seasonal_model(bank, row):
    """The row's seasonal model, rebuilt from its snapshot."""
    return load_seasonal_state(bank.row_state_dict(row)["seasonal"])
