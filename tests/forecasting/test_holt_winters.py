"""Unit tests for :mod:`repro.forecasting.holt_winters`.

Includes the linearity property (the paper's Lemma 2) as example-based tests;
the property-based version lives in ``tests/core/test_properties.py``.
"""

import math

import pytest

from repro.exceptions import ConfigurationError, NotEnoughHistoryError
from repro.forecasting.holt_winters import HoltWintersForecaster, MultiSeasonalHoltWinters


def seasonal_series(cycles: int, period: int = 8, base: float = 50.0, amplitude: float = 20.0):
    """A clean additive seasonal series used across the tests."""
    series = []
    for t in range(cycles * period):
        series.append(base + amplitude * math.sin(2 * math.pi * t / period))
    return series


class TestValidation:
    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            HoltWintersForecaster(alpha=1.5)
        with pytest.raises(ConfigurationError):
            HoltWintersForecaster(beta=-0.1)

    def test_season_length_positive(self):
        with pytest.raises(ConfigurationError):
            HoltWintersForecaster(season_length=0)

    def test_min_history_is_two_cycles(self):
        model = HoltWintersForecaster(season_length=12)
        assert model.min_history == 24

    def test_initialize_requires_history(self):
        model = HoltWintersForecaster(season_length=8)
        with pytest.raises(NotEnoughHistoryError):
            model.initialize([1.0] * 10)

    def test_update_before_initialize_raises(self):
        model = HoltWintersForecaster(season_length=4)
        with pytest.raises(NotEnoughHistoryError):
            model.update(1.0)

    def test_forecast_before_initialize_raises(self):
        model = HoltWintersForecaster(season_length=4)
        with pytest.raises(NotEnoughHistoryError):
            model.forecast()


class TestForecastQuality:
    def test_constant_series(self):
        model = HoltWintersForecaster(season_length=4)
        model.initialize([10.0] * 8)
        for _ in range(12):
            forecast = model.update(10.0)
            assert forecast == pytest.approx(10.0, abs=1e-6)

    def test_seasonal_series_tracked_better_than_mean(self):
        period = 8
        series = seasonal_series(6, period=period)
        model = HoltWintersForecaster(alpha=0.3, beta=0.05, gamma=0.3, season_length=period)
        split = model.min_history
        model.initialize(series[:split])
        hw_errors = []
        mean_errors = []
        mean = sum(series[:split]) / split
        for value in series[split:]:
            hw_errors.append(abs(model.update(value) - value))
            mean_errors.append(abs(mean - value))
        assert sum(hw_errors) < 0.5 * sum(mean_errors)

    def test_trend_is_learned(self):
        period = 4
        series = [10.0 + 2.0 * t for t in range(4 * period)]
        model = HoltWintersForecaster(alpha=0.5, beta=0.3, gamma=0.1, season_length=period)
        model.initialize(series[: 2 * period])
        last_forecast = None
        for value in series[2 * period:]:
            last_forecast = model.update(value)
        # With a linear trend the forecast should be close to the actual.
        assert last_forecast == pytest.approx(series[-1], rel=0.15)


class TestLinearity:
    """Lemma 2: the Holt-Winters state of a summed series is the sum of states."""

    def test_scaled_state_matches_scaled_series(self):
        period = 6
        series = seasonal_series(5, period=period)
        a = HoltWintersForecaster(season_length=period)
        b = HoltWintersForecaster(season_length=period)
        a.initialize(series[: 2 * period])
        b.initialize([2 * v for v in series[: 2 * period]])
        for value in series[2 * period:]:
            a.update(value)
            b.update(2 * value)
        scaled = a.scaled(2.0)
        assert scaled.forecast() == pytest.approx(b.forecast(), rel=1e-9)

    def test_added_state_matches_summed_series(self):
        period = 6
        s1 = seasonal_series(5, period=period, base=30, amplitude=10)
        s2 = seasonal_series(5, period=period, base=70, amplitude=5)
        a = HoltWintersForecaster(season_length=period)
        b = HoltWintersForecaster(season_length=period)
        c = HoltWintersForecaster(season_length=period)
        a.initialize(s1[: 2 * period])
        b.initialize(s2[: 2 * period])
        c.initialize([x + y for x, y in zip(s1[: 2 * period], s2[: 2 * period])])
        for x, y in zip(s1[2 * period:], s2[2 * period:]):
            a.update(x)
            b.update(y)
            c.update(x + y)
        merged = a.copy()
        merged.add_state(b)
        assert merged.forecast() == pytest.approx(c.forecast(), rel=1e-9)

    def test_incompatible_states_rejected(self):
        a = HoltWintersForecaster(season_length=4)
        b = HoltWintersForecaster(season_length=8)
        a.initialize([1.0] * 8)
        b.initialize([1.0] * 16)
        with pytest.raises(ConfigurationError):
            a.add_state(b)

    def test_adding_an_uninitialized_state_is_a_noop(self):
        a = HoltWintersForecaster(season_length=4)
        a.initialize(seasonal_series(2, period=4))
        before = a.state_dict()
        a.add_state(HoltWintersForecaster(season_length=4))
        assert a.state_dict() == before

    def test_adding_into_an_uninitialized_model_adopts_the_other(self):
        a = HoltWintersForecaster(season_length=4)
        b = HoltWintersForecaster(season_length=4)
        b.initialize(seasonal_series(3, period=4))
        b.update(60.0)
        a.add_state(b)
        assert a.level is not None
        assert a.forecast() == b.forecast()
        # The seasonal factors are copied, not shared.
        a.update(10.0)
        assert a.forecast() != b.forecast()


class TestMultiSeasonal:
    def test_needs_a_seasonal_period(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            MultiSeasonalHoltWinters(season_lengths=())

    def test_season_lengths_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            MultiSeasonalHoltWinters(season_lengths=(4, 0))

    def test_initialize_requires_two_longest_cycles(self):
        model = MultiSeasonalHoltWinters(season_lengths=(4, 8))
        with pytest.raises(NotEnoughHistoryError):
            model.initialize([1.0] * 15)
        assert model.level is None
        model.initialize([1.0] * 16)
        assert model.level is not None

    @pytest.mark.parametrize("call", ["forecast", "update"])
    def test_use_before_initialize_raises(self, call):
        model = MultiSeasonalHoltWinters(season_lengths=(4, 8))
        args = () if call == "forecast" else (1.0,)
        with pytest.raises(NotEnoughHistoryError):
            getattr(model, call)(*args)

    def test_adding_an_uninitialized_state_is_a_noop(self):
        model = MultiSeasonalHoltWinters(season_lengths=(4, 8))
        model.initialize(seasonal_series(2, period=8))
        before = model.state_dict()
        model.add_state(MultiSeasonalHoltWinters(season_lengths=(4, 8)))
        assert model.state_dict() == before

    def test_adding_into_an_uninitialized_model_adopts_the_other(self):
        a = MultiSeasonalHoltWinters(season_lengths=(4, 8))
        b = MultiSeasonalHoltWinters(season_lengths=(4, 8))
        b.initialize(seasonal_series(3, period=8))
        b.update(60.0)
        a.add_state(b)
        assert a.forecast() == b.forecast()
        assert a.phases == b.phases
        # The seasonal buffers are copied, not shared.
        a.update(10.0)
        assert a.forecast() != b.forecast()

    @pytest.mark.parametrize(
        "other_kwargs",
        [
            dict(season_lengths=(4, 12), season_weights=(0.5, 0.5)),
            dict(season_lengths=(4, 8), season_weights=(0.75, 0.25)),
        ],
        ids=["lengths", "weights"],
    )
    def test_structure_mismatch_rejected(self, other_kwargs):
        a = MultiSeasonalHoltWinters(season_lengths=(4, 8), season_weights=(0.5, 0.5))
        b = MultiSeasonalHoltWinters(**other_kwargs)
        a.initialize([1.0] * 16)
        b.initialize([1.0] * 24)
        with pytest.raises(ConfigurationError, match="different structure"):
            a.add_state(b)

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            MultiSeasonalHoltWinters(season_lengths=(4, 8), season_weights=(0.7, 0.7))
        with pytest.raises(ConfigurationError):
            MultiSeasonalHoltWinters(season_lengths=(4, 8), season_weights=(1.0,))

    def test_default_weights_are_uniform(self):
        model = MultiSeasonalHoltWinters(season_lengths=(4, 8))
        assert model.season_weights == (0.5, 0.5)

    def test_min_history_uses_longest_season(self):
        model = MultiSeasonalHoltWinters(season_lengths=(4, 12))
        assert model.min_history == 24

    def test_constant_series(self):
        model = MultiSeasonalHoltWinters(season_lengths=(4, 8), season_weights=(0.6, 0.4))
        model.initialize([5.0] * 16)
        for _ in range(10):
            assert model.update(5.0) == pytest.approx(5.0, abs=1e-6)

    def test_dual_seasonality_beats_single_on_weekly_pattern(self):
        day, week = 8, 56
        series = []
        for t in range(4 * week):
            daily = 10 * math.sin(2 * math.pi * t / day)
            weekly = 15 * math.sin(2 * math.pi * t / week)
            series.append(100 + daily + weekly)
        dual = MultiSeasonalHoltWinters(
            alpha=0.2, gamma=0.3, season_lengths=(day, week), season_weights=(0.5, 0.5)
        )
        single = MultiSeasonalHoltWinters(alpha=0.2, gamma=0.3, season_lengths=(day,))
        errors = {"dual": 0.0, "single": 0.0}
        for name, model in (("dual", dual), ("single", single)):
            split = 2 * week
            model.initialize(series[:split])
            for value in series[split:]:
                errors[name] += abs(model.update(value) - value)
        assert errors["dual"] < errors["single"]

    def test_linearity_of_multi_seasonal(self):
        day, week = 4, 12
        s1 = [10 + 3 * math.sin(2 * math.pi * t / day) for t in range(4 * week)]
        s2 = [20 + 5 * math.sin(2 * math.pi * t / week) for t in range(4 * week)]
        kwargs = dict(season_lengths=(day, week), season_weights=(0.5, 0.5))
        a = MultiSeasonalHoltWinters(**kwargs)
        b = MultiSeasonalHoltWinters(**kwargs)
        c = MultiSeasonalHoltWinters(**kwargs)
        split = 2 * week
        a.initialize(s1[:split])
        b.initialize(s2[:split])
        c.initialize([x + y for x, y in zip(s1[:split], s2[:split])])
        for x, y in zip(s1[split:], s2[split:]):
            a.update(x)
            b.update(y)
            c.update(x + y)
        merged = a.copy()
        merged.add_state(b)
        assert merged.forecast() == pytest.approx(c.forecast(), rel=1e-9)
