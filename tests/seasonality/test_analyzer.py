"""Unit tests for :mod:`repro.seasonality.analyzer`."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.seasonality.analyzer import SeasonalityAnalyzer


def ccd_like_series(weeks: int, delta_seconds: float = 3600.0):
    """Hourly-ish series with daily + weekly structure like the CCD root."""
    units_per_hour = 3600.0 / delta_seconds
    length = int(weeks * 7 * 24 * units_per_hour)
    series = []
    for t in range(length):
        hours = t / units_per_hour
        value = 200.0
        value += 80.0 * math.cos(2 * math.pi * (hours - 16.0) / 24.0)
        value += 40.0 * math.cos(2 * math.pi * hours / 168.0)
        series.append(max(value, 0.0))
    return series


class TestValidation:
    def test_positive_timeunit(self):
        with pytest.raises(ConfigurationError):
            SeasonalityAnalyzer(timeunit_seconds=0)

    def test_max_seasons_positive(self):
        with pytest.raises(ConfigurationError):
            SeasonalityAnalyzer(timeunit_seconds=900, max_seasons=0)


class TestAnalysis:
    def test_the_strongest_peak_stands_in_for_weak_candidates(self):
        analyzer = SeasonalityAnalyzer(
            timeunit_seconds=3600.0, candidate_periods_hours=(24.0,), min_relative_magnitude=0.5
        )
        series = [100 + 50 * math.cos(2 * math.pi * t / 10.0) for t in range(24 * 14)]
        profile = analyzer.analyze(series)
        assert profile.periods_timeunits == (10,)
        assert profile.weights == (1.0,)

    def test_a_flat_series_has_no_season(self):
        analyzer = SeasonalityAnalyzer(timeunit_seconds=3600.0)
        with pytest.raises(ConfigurationError, match="no significant seasonal period"):
            analyzer.analyze([5.0] * (24 * 14))

    def test_daily_and_weekly_periods_found_for_ccd_like_data(self):
        analyzer = SeasonalityAnalyzer(timeunit_seconds=3600.0, max_seasons=2)
        profile = analyzer.analyze(ccd_like_series(weeks=8))
        assert len(profile.periods_timeunits) == 2
        periods_hours = sorted(p * 1.0 for p in profile.periods_timeunits)
        assert periods_hours[0] == pytest.approx(24, abs=2)
        assert periods_hours[1] == pytest.approx(168, abs=10)

    def test_weights_sum_to_one(self):
        analyzer = SeasonalityAnalyzer(timeunit_seconds=3600.0, max_seasons=2)
        profile = analyzer.analyze(ccd_like_series(weeks=8))
        assert sum(profile.weights) == pytest.approx(1.0)
        assert all(w > 0 for w in profile.weights)

    def test_daily_only_series_gets_single_season(self):
        analyzer = SeasonalityAnalyzer(
            timeunit_seconds=3600.0, max_seasons=2, min_relative_magnitude=0.15
        )
        series = [
            100 + 50 * math.cos(2 * math.pi * t / 24.0) for t in range(24 * 28)
        ]
        profile = analyzer.analyze(series)
        assert profile.periods_timeunits[0] == pytest.approx(24, abs=2)
        # The weekly candidate has negligible magnitude and must be dropped.
        assert len(profile.periods_timeunits) == 1

    def test_primary_period_is_strongest(self):
        analyzer = SeasonalityAnalyzer(timeunit_seconds=3600.0, max_seasons=2)
        profile = analyzer.analyze(ccd_like_series(weeks=8))
        assert profile.weights[0] == max(profile.weights)

    def test_fifteen_minute_units_scale_periods(self):
        analyzer = SeasonalityAnalyzer(timeunit_seconds=900.0, max_seasons=1)
        units_per_hour = 4
        series = [
            100 + 50 * math.cos(2 * math.pi * t / (24 * units_per_hour))
            for t in range(24 * units_per_hour * 21)
        ]
        profile = analyzer.analyze(series)
        assert profile.periods_timeunits[0] == pytest.approx(96, abs=4)

    def test_wavelet_profile_present(self):
        analyzer = SeasonalityAnalyzer(timeunit_seconds=3600.0)
        profile = analyzer.analyze(ccd_like_series(weeks=4))
        assert len(profile.wavelet_profile) >= 1
        assert max(energy for _, energy in profile.wavelet_profile) == pytest.approx(1.0)
