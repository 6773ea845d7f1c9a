"""Combined seasonality analysis (Step 3 of the system overview).

Tiresias runs the seasonality analysis once, offline, on the root (or other
high-volume) time series: the FFT picks candidate periods, the à-trous wavelet
detail energies confirm them, and the resulting periods plus the relative
magnitude weight ``xi`` parameterize the Holt-Winters model used for every
heavy hitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.seasonality.fft import SpectrumPeak, compute_spectrum, dominant_periods
from repro.seasonality.wavelet import detail_energy_profile


@dataclass(frozen=True)
class SeasonalityProfile:
    """Result of the combined FFT + wavelet seasonality analysis.

    Attributes
    ----------
    periods_timeunits:
        Confirmed seasonal periods, in timeunits, strongest first.
    weights:
        Convex weights for combining the seasonal factors, aligned with
        ``periods_timeunits`` (the paper's ``xi`` generalized to any number of
        seasons).
    fft_peaks:
        The raw FFT peaks that were considered.
    wavelet_profile:
        (timescale, energy) pairs from the wavelet analysis.
    """

    periods_timeunits: tuple[int, ...]
    weights: tuple[float, ...]
    fft_peaks: tuple[SpectrumPeak, ...]
    wavelet_profile: tuple[tuple[float, float], ...]


class SeasonalityAnalyzer:
    """Derives a :class:`SeasonalityProfile` from a count time series.

    Parameters
    ----------
    timeunit_seconds:
        Width of one timeunit in seconds (Δ).
    max_seasons:
        Maximum number of seasonal periods to keep.
    candidate_periods_hours:
        Calendar periods (in hours) to check first; the paper's operational
        data is dominated by the 24-hour day and the ~168-hour week.  Any
        candidate whose FFT magnitude and wavelet energy are both negligible
        is discarded; if no candidate survives, the strongest raw FFT peak is
        used instead.
    min_relative_magnitude:
        FFT magnitude (relative to the strongest peak) below which a candidate
        period is considered absent.
    """

    def __init__(
        self,
        timeunit_seconds: float,
        max_seasons: int = 2,
        candidate_periods_hours: Sequence[float] = (24.0, 168.0),
        min_relative_magnitude: float = 0.05,
    ):
        if timeunit_seconds <= 0:
            raise ConfigurationError("timeunit_seconds must be positive")
        if max_seasons < 1:
            raise ConfigurationError("max_seasons must be >= 1")
        self.timeunit_seconds = timeunit_seconds
        self.max_seasons = max_seasons
        self.candidate_periods_hours = tuple(candidate_periods_hours)
        self.min_relative_magnitude = min_relative_magnitude

    # ------------------------------------------------------------------
    def analyze(self, series: Sequence[float]) -> SeasonalityProfile:
        """Run the FFT + wavelet analysis on ``series`` (one value per timeunit)."""
        hours_per_unit = self.timeunit_seconds / 3600.0
        spectrum = compute_spectrum(series, sample_spacing=hours_per_unit)
        peaks = dominant_periods(series, sample_spacing=hours_per_unit, count=6)
        wavelet = detail_energy_profile(series, sample_spacing=hours_per_unit)

        candidates: list[tuple[float, float]] = []
        for period_hours in self.candidate_periods_hours:
            magnitude = spectrum.magnitude_at_period(period_hours)
            if magnitude >= self.min_relative_magnitude:
                candidates.append((period_hours, magnitude))
        if not candidates and peaks:
            candidates = [(peaks[0].period, peaks[0].magnitude)]
        if not candidates:
            raise ConfigurationError("no significant seasonal period found")

        candidates.sort(key=lambda item: item[1], reverse=True)
        candidates = candidates[: self.max_seasons]

        periods_units = tuple(
            max(2, int(round(hours * 3600.0 / self.timeunit_seconds)))
            for hours, _ in candidates
        )
        total_magnitude = sum(m for _, m in candidates)
        weights = tuple(m / total_magnitude for _, m in candidates)
        return SeasonalityProfile(
            periods_timeunits=periods_units,
            weights=weights,
            fft_peaks=tuple(peaks),
            wavelet_profile=tuple(wavelet),
        )
