"""Unit tests for :mod:`repro.core.config`."""

import pytest

from repro.core.config import (
    SPLIT_RULE_NAMES,
    ForecastConfig,
    TiresiasConfig,
)
from repro.exceptions import ConfigurationError


class TestForecastConfig:
    def test_defaults_are_valid(self):
        config = ForecastConfig()
        assert config.min_history == 2 * max(config.season_lengths)

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            ForecastConfig(alpha=1.5)
        with pytest.raises(ConfigurationError):
            ForecastConfig(gamma=-0.1)

    def test_season_lengths_required(self):
        with pytest.raises(ConfigurationError):
            ForecastConfig(season_lengths=())

    def test_season_weights_must_match_and_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            ForecastConfig(season_lengths=(4, 8), season_weights=(1.0,))
        with pytest.raises(ConfigurationError):
            ForecastConfig(season_lengths=(4, 8), season_weights=(0.7, 0.7))
        config = ForecastConfig(season_lengths=(4, 8), season_weights=(0.76, 0.24))
        assert config.season_weights == (0.76, 0.24)

    def test_with_seasons_builds_new_config(self):
        config = ForecastConfig(season_lengths=(96,))
        updated = config.with_seasons((96, 672), (0.76, 0.24))
        assert updated.season_lengths == (96, 672)
        assert updated.season_weights == (0.76, 0.24)
        assert config.season_lengths == (96,)  # original untouched

    def test_fallback_alpha_bounds(self):
        with pytest.raises(ConfigurationError):
            ForecastConfig(fallback_alpha=0.0)

    @pytest.mark.parametrize("lengths", [(0,), (96, 0), (-4,)])
    def test_season_lengths_must_be_positive(self, lengths):
        with pytest.raises(ConfigurationError, match=">= 1 timeunit"):
            ForecastConfig(season_lengths=lengths)


class TestTiresiasConfig:
    def test_defaults_match_paper_choices(self):
        config = TiresiasConfig()
        assert config.ratio_threshold == pytest.approx(2.8)
        assert config.difference_threshold == pytest.approx(8.0)
        assert config.delta_seconds == 900.0
        assert config.window_units == 8064
        assert config.split_rule in SPLIT_RULE_NAMES

    def test_theta_positive(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(theta=0)

    def test_ratio_threshold_at_least_one(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(ratio_threshold=0.5)

    def test_unknown_split_rule(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(split_rule="magic")

    def test_negative_reference_levels(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(reference_levels=-1)

    def test_window_needs_two_units(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(window_units=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("difference_threshold", -1.0, "difference_threshold"),
            ("delta_seconds", 0.0, "delta_seconds"),
            ("delta_seconds", -900.0, "delta_seconds"),
            ("split_ewma_alpha", 0.0, "split_ewma_alpha"),
            ("split_ewma_alpha", 1.5, "split_ewma_alpha"),
        ],
    )
    def test_field_bounds(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            TiresiasConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("difference_threshold", 0.0),
            ("split_ewma_alpha", 1.0),
        ],
    )
    def test_field_bounds_are_inclusive_where_documented(self, field, value):
        assert getattr(TiresiasConfig(**{field: value}), field) == value

    def test_split_rule_names_frozen(self):
        assert SPLIT_RULE_NAMES == frozenset(
            {"uniform", "last-time-unit", "long-term-history", "ewma"}
        )


class TestReplace:
    def test_replace_changes_only_named_fields(self):
        config = TiresiasConfig(theta=10.0, window_units=100)
        updated = config.replace(theta=20.0)
        assert updated.theta == 20.0
        assert updated.window_units == 100
        assert config.theta == 10.0  # original untouched (frozen)

    def test_replace_revalidates(self):
        config = TiresiasConfig()
        with pytest.raises(ConfigurationError):
            config.replace(theta=-1.0)
        with pytest.raises(ConfigurationError):
            config.replace(split_rule="magic")

    def test_forecast_config_replace(self):
        forecast = ForecastConfig(season_lengths=(4,))
        updated = forecast.replace(season_lengths=(8, 16))
        assert updated.season_lengths == (8, 16)
        assert updated.alpha == forecast.alpha
        with pytest.raises(ConfigurationError):
            forecast.replace(alpha=2.0)


class TestOutOfOrderPolicy:
    def test_default_is_raise(self):
        assert TiresiasConfig().out_of_order_policy == "raise"

    def test_all_policies_accepted(self):
        from repro.core.config import OUT_OF_ORDER_POLICIES

        assert OUT_OF_ORDER_POLICIES == frozenset({"raise", "drop", "clamp"})
        for policy in OUT_OF_ORDER_POLICIES:
            assert TiresiasConfig(out_of_order_policy=policy).out_of_order_policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(out_of_order_policy="ignore")
