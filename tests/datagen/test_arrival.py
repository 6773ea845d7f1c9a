"""Unit tests for :mod:`repro.datagen.arrival`."""

import random

import pytest

from repro.datagen.arrival import (
    SeasonalRateModel,
    hour_of_peak,
    spread_uniformly,
    weighted_choices,
    zipf_weights,
)
from repro.exceptions import ConfigurationError
from repro.streaming.clock import DAY, HOUR, SimulationClock


@pytest.fixture
def clock():
    return SimulationClock(delta=900.0, epoch_weekday=0, epoch_hour=0.0)


class TestSeasonalRateModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SeasonalRateModel(base_rate=-1.0)
        with pytest.raises(ConfigurationError):
            SeasonalRateModel(base_rate=1.0, diurnal_strength=1.0)
        with pytest.raises(ConfigurationError):
            SeasonalRateModel(base_rate=1.0, peak_hour=25.0)

    @pytest.mark.parametrize(
        "field, value", [("weekly_strength", 1.0), ("volatility", -0.1)]
    )
    def test_rejects_an_out_of_range_field(self, field, value):
        SeasonalRateModel(base_rate=1.0, **{field: 0.0})  # in range
        with pytest.raises(ConfigurationError, match=field):
            SeasonalRateModel(base_rate=1.0, **{field: value})

    def test_peak_hour_has_max_rate(self, clock):
        model = SeasonalRateModel(base_rate=1.0, diurnal_strength=0.8, peak_hour=16.0,
                                  weekly_strength=0.0, volatility=0.0)
        peak = model.rate_at(16 * HOUR, clock)
        trough = model.rate_at(4 * HOUR, clock)
        assert peak > trough
        assert peak == pytest.approx(1.8)
        assert trough == pytest.approx(0.2, abs=1e-6)

    def test_weekend_reduction(self):
        clock = SimulationClock(delta=900.0, epoch_weekday=5)  # starts Saturday
        model = SeasonalRateModel(base_rate=1.0, diurnal_strength=0.0,
                                  weekly_strength=0.4, volatility=0.0)
        weekend = model.rate_at(12 * HOUR, clock)
        weekday = model.rate_at(2 * DAY + 12 * HOUR, clock)
        assert weekend == pytest.approx(0.6)
        assert weekday == pytest.approx(1.0)

    def test_expected_count_scales_with_delta(self, clock):
        model = SeasonalRateModel(base_rate=0.1, diurnal_strength=0.0,
                                  weekly_strength=0.0, volatility=0.0)
        assert model.expected_count(0.0, clock) == pytest.approx(0.1 * clock.delta)

    def test_sample_count_reproducible_and_near_mean(self, clock):
        model = SeasonalRateModel(base_rate=0.05, diurnal_strength=0.0,
                                  weekly_strength=0.0, volatility=0.0)
        rng = random.Random(3)
        samples = [model.sample_count(i * clock.delta, clock, rng) for i in range(300)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(0.05 * clock.delta, rel=0.15)
        rng2 = random.Random(3)
        samples2 = [model.sample_count(i * clock.delta, clock, rng2) for i in range(300)]
        assert samples == samples2

    def test_zero_rate_gives_zero_counts(self, clock):
        model = SeasonalRateModel(base_rate=0.0)
        assert model.sample_count(0.0, clock, random.Random(1)) == 0

    def test_volatility_increases_dispersion(self, clock):
        calm = SeasonalRateModel(base_rate=0.1, diurnal_strength=0.0,
                                 weekly_strength=0.0, volatility=0.0)
        wild = SeasonalRateModel(base_rate=0.1, diurnal_strength=0.0,
                                 weekly_strength=0.0, volatility=0.8)
        rng_a, rng_b = random.Random(5), random.Random(5)
        calm_samples = [calm.sample_count(i * 900.0, clock, rng_a) for i in range(400)]
        wild_samples = [wild.sample_count(i * 900.0, clock, rng_b) for i in range(400)]

        def variance(xs):
            mean = sum(xs) / len(xs)
            return sum((x - mean) ** 2 for x in xs) / len(xs)

        assert variance(wild_samples) > variance(calm_samples)


class TestHelpers:
    def test_spread_uniformly_bounds_and_order(self):
        rng = random.Random(0)
        timestamps = spread_uniformly(50, unit_start=100.0, delta=10.0, rng=rng).tolist()
        assert len(timestamps) == 50
        assert timestamps == sorted(timestamps)
        assert all(100.0 <= ts < 110.0 for ts in timestamps)

    def test_zipf_weights_normalized_and_decreasing(self):
        weights = zipf_weights(10, exponent=1.2)
        assert sum(weights) == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zipf_exponent_zero_is_uniform(self):
        weights = zipf_weights(4, exponent=0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_zipf_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0)

    def test_zipf_rejects_a_negative_exponent(self):
        with pytest.raises(ConfigurationError, match="exponent"):
            zipf_weights(3, exponent=-0.5)

    @pytest.mark.parametrize("total", [0.0, float("nan"), float("inf")])
    def test_weighted_choices_needs_a_finite_positive_total(self, total):
        with pytest.raises(ConfigurationError, match="finite total"):
            weighted_choices(random.Random(1), [0.0, total], 4)

    def test_hour_of_peak(self):
        units_per_day = 24
        series = []
        for day in range(3):
            for hour in range(24):
                series.append(100.0 if hour == 16 else 10.0)
        assert hour_of_peak(series, units_per_day) == pytest.approx(16.0)

    def test_hour_of_peak_validation(self):
        with pytest.raises(ConfigurationError):
            hour_of_peak([], 24)
