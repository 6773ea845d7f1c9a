"""Unit tests for :mod:`repro.seasonality.fft`."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.seasonality.fft import compute_spectrum, dominant_periods


def daily_weekly_series(days: int, units_per_hour: int = 1, weekly_amp: float = 0.5):
    """Hourly series with a 24 h cycle and an optional 168 h cycle."""
    series = []
    for t in range(days * 24 * units_per_hour):
        hours = t / units_per_hour
        value = 100.0
        value += 40.0 * math.cos(2 * math.pi * hours / 24.0)
        value += 40.0 * weekly_amp * math.cos(2 * math.pi * hours / 168.0)
        series.append(value)
    return series


class TestSpectrum:
    def test_requires_minimum_length(self):
        with pytest.raises(ConfigurationError):
            compute_spectrum([1.0, 2.0])

    def test_daily_peak_detected(self):
        series = daily_weekly_series(days=28, weekly_amp=0.0)
        spectrum = compute_spectrum(series, sample_spacing=1.0)
        assert spectrum.magnitude_at_period(24.0) == pytest.approx(1.0, abs=1e-6)
        assert spectrum.magnitude_at_period(5.0) < 0.05

    def test_normalization(self):
        series = daily_weekly_series(days=14)
        spectrum = compute_spectrum(series)
        assert max(spectrum.magnitudes) == pytest.approx(1.0)

    def test_sample_spacing_scales_periods(self):
        # 15-minute samples: the daily peak must appear at 24 when spacing=0.25h.
        series = daily_weekly_series(days=14, units_per_hour=4, weekly_amp=0.0)
        spectrum = compute_spectrum(series, sample_spacing=0.25)
        assert spectrum.magnitude_at_period(24.0) == pytest.approx(1.0, abs=1e-6)


class TestDominantPeriods:
    def test_daily_and_weekly_found(self):
        series = daily_weekly_series(days=56)
        peaks = dominant_periods(series, sample_spacing=1.0, count=2, min_period=4.0)
        periods = sorted(p.period for p in peaks)
        assert any(abs(p - 24.0) < 3.0 for p in periods)
        assert any(abs(p - 168.0) < 25.0 for p in periods)

    def test_near_duplicates_are_collapsed(self):
        series = daily_weekly_series(days=28, weekly_amp=0.0)
        peaks = dominant_periods(series, sample_spacing=1.0, count=3, min_period=4.0)
        periods = [p.period for p in peaks]
        for i, a in enumerate(periods):
            for b in periods[i + 1:]:
                assert abs(a - b) > 0.2 * min(a, b)

    def test_magnitude_floor_filters_noise(self):
        series = daily_weekly_series(days=28, weekly_amp=0.0)
        peaks = dominant_periods(series, min_magnitude=0.5, count=5, min_period=4.0)
        assert all(p.magnitude >= 0.5 for p in peaks)
