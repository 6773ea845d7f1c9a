"""Unit tests for :mod:`repro.core.registry` (pluggable factories)."""

import numpy as np
import pytest

from repro.core.ada import ADAAlgorithm
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.registry import (
    available_algorithms,
    create_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.sta import STAAlgorithm
from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank, load_seasonal_state
from repro.forecasting.holt_winters import (
    HoltWintersForecaster,
    MultiSeasonalHoltWinters,
)
from repro.forecasting.registry import (
    available_forecasters,
    create_forecaster,
    register_forecaster,
    unregister_forecaster,
)
from repro.hierarchy.tree import HierarchyTree


@pytest.fixture
def tree():
    return HierarchyTree.from_leaf_paths([("a", "a1"), ("a", "a2"), ("b", "b1")])


@pytest.fixture
def config():
    return TiresiasConfig(
        theta=4.0, delta_seconds=100.0, window_units=16,
        forecast=ForecastConfig(season_lengths=(4,)),
    )


class TestAlgorithmRegistry:
    def test_builtins_registered(self):
        names = available_algorithms()
        assert "ada" in names and "sta" in names

    def test_create_builtin_algorithms(self, tree, config):
        assert isinstance(create_algorithm("ada", tree, config), ADAAlgorithm)
        assert isinstance(create_algorithm("sta", tree, config), STAAlgorithm)

    def test_unknown_name_raises_with_known_names(self, tree, config):
        with pytest.raises(ConfigurationError, match="ada"):
            create_algorithm("magic", tree, config)

    def test_register_custom_algorithm(self, tree, config):
        created = []

        def factory(tree_, config_):
            algorithm = ADAAlgorithm(tree_, config_)
            created.append(algorithm)
            return algorithm

        register_algorithm("custom-ada", factory)
        try:
            algorithm = create_algorithm("custom-ada", tree, config)
            assert created == [algorithm]
            assert "custom-ada" in available_algorithms()
        finally:
            unregister_algorithm("custom-ada")
        assert "custom-ada" not in available_algorithms()

    def test_duplicate_registration_rejected_unless_overwrite(self):
        register_algorithm("dup-algo", lambda t, c: None)
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_algorithm("dup-algo", lambda t, c: None)
            register_algorithm("dup-algo", lambda t, c: "new", overwrite=True)
            assert create_algorithm("dup-algo", None, None) == "new"
        finally:
            unregister_algorithm("dup-algo")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_algorithm("", lambda t, c: None)


class TestForecasterRegistry:
    def test_builtins_registered(self):
        names = available_forecasters()
        assert "holt-winters" in names
        assert "multi-seasonal-holt-winters" in names

    def test_create_builtin_forecasters(self):
        single = create_forecaster(
            "holt-winters", ForecastConfig(season_lengths=(4,))
        )
        assert isinstance(single, HoltWintersForecaster)
        assert single.season_length == 4
        multi = create_forecaster(
            "multi-seasonal-holt-winters",
            ForecastConfig(season_lengths=(4, 8), season_weights=(0.75, 0.25)),
        )
        assert isinstance(multi, MultiSeasonalHoltWinters)
        assert multi.season_lengths == (4, 8)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="holt-winters"):
            create_forecaster("oracle", ForecastConfig())

    def test_bank_resolves_named_model(self):
        class ConstantModel:
            """Minimal Forecaster-protocol stub: always predicts 42."""

            min_history = 0

            def initialize(self, history):
                self.initialized_with = list(history)

            def forecast(self):
                return 42.0

            def update(self, value):
                return 42.0

        register_forecaster("constant", lambda config: ConstantModel())
        try:
            bank, row = fed_row(
                ForecastConfig(season_lengths=(2,), model="constant"), [5.0, 6.0, 5.0, 6.0]
            )
            # A plug-in row's forecaster state is a scalar row beside the matrix.
            assert isinstance(bank._obj[row].seasonal, ConstantModel)
            assert bank.forecast(row) == 42.0
        finally:
            unregister_forecaster("constant")

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
