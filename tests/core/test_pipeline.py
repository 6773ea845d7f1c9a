"""Unit tests for :mod:`repro.core.pipeline` (Step 3: the offline seasonality
analysis that configures the forecasting model)."""

import math

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.pipeline import derive_seasonal_config


@pytest.fixture
def config():
    return TiresiasConfig(
        theta=4.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        delta_seconds=100.0,
        window_units=32,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )


class TestSeasonalConfigDerivation:
    def test_derive_seasonal_config_sets_periods(self, config):
        units_per_day = int(86400 / config.delta_seconds)
        series = [
            100 + 40 * math.cos(2 * math.pi * t / units_per_day)
            for t in range(units_per_day * 10)
        ]
        updated = derive_seasonal_config(series, config, max_seasons=1)
        assert updated.forecast.season_lengths[0] == pytest.approx(units_per_day, abs=2)
        # Non-forecast fields carried over unchanged.
        assert updated.theta == config.theta
        assert updated.window_units == config.window_units

    def test_derive_seasonal_config_preserves_policy_fields(self, config):
        units_per_day = int(86400 / config.delta_seconds)
        series = [
            100 + 40 * math.cos(2 * math.pi * t / units_per_day)
            for t in range(units_per_day * 10)
        ]
        base = config.replace(out_of_order_policy="clamp", track_root=False)
        updated = derive_seasonal_config(series, base, max_seasons=1)
        assert updated.out_of_order_policy == "clamp"
        assert updated.track_root is False
