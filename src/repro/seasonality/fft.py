"""FFT-based seasonality analysis (Section VI, Fig. 11).

The paper applies the Fast Fourier Transform to a long count-of-appearances
series to find its dominant periods.  For both CCD and SCD the strongest
period is 24 hours; CCD also shows a noticeable peak near 170 hours, the
closest measurable period to a week given the trace length.  The peaks'
magnitudes weight the seasonal factors of the forecasting model:
:class:`~repro.seasonality.analyzer.SeasonalityAnalyzer` normalises the kept
peaks' magnitudes (``m / total``) into the convex weights ``xi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class SpectrumPeak:
    """One peak of the magnitude spectrum."""

    period: float
    """Period in the same time unit as ``sample_spacing`` (e.g. hours)."""
    magnitude: float
    """Magnitude normalized by the maximum magnitude of the spectrum."""


@dataclass(frozen=True)
class Spectrum:
    """Normalized one-sided magnitude spectrum of a series."""

    periods: np.ndarray
    magnitudes: np.ndarray

    def magnitude_at_period(self, period: float, tolerance: float = 0.2) -> float:
        """Largest normalized magnitude within ``tolerance`` (relative) of ``period``."""
        mask = np.abs(self.periods - period) <= tolerance * period
        if not np.any(mask):
            return 0.0
        return float(np.max(self.magnitudes[mask]))

    def top_peaks(self, count: int = 5, min_period: float = 0.0) -> list[SpectrumPeak]:
        """The ``count`` strongest spectral peaks with period above ``min_period``."""
        order = np.argsort(self.magnitudes)[::-1]
        peaks: list[SpectrumPeak] = []
        for idx in order:
            period = float(self.periods[idx])
            if period < min_period:
                continue
            peaks.append(SpectrumPeak(period=period, magnitude=float(self.magnitudes[idx])))
            if len(peaks) >= count:
                break
        return peaks


def compute_spectrum(series: Sequence[float], sample_spacing: float = 1.0) -> Spectrum:
    """Normalized magnitude spectrum of ``series``.

    Parameters
    ----------
    series:
        Count-of-appearances series, one value per timeunit.
    sample_spacing:
        Spacing between samples in the desired period unit (e.g. pass 0.25 for
        15-minute samples if periods should be reported in hours).
    """
    values = np.asarray(list(series), dtype=float)
    if values.size < 4:
        raise ConfigurationError("the series is too short for spectral analysis")
    detrended = values - values.mean()
    amplitudes = np.abs(np.fft.rfft(detrended))
    frequencies = np.fft.rfftfreq(values.size, d=sample_spacing)
    # Skip the zero-frequency bin: it has no period and the mean was removed.
    amplitudes = amplitudes[1:]
    frequencies = frequencies[1:]
    periods = 1.0 / frequencies
    peak = amplitudes.max()
    normalized = amplitudes / peak if peak > 0 else amplitudes
    return Spectrum(periods=periods, magnitudes=normalized)


def dominant_periods(
    series: Sequence[float],
    sample_spacing: float = 1.0,
    count: int = 3,
    min_period: float = 2.0,
    min_magnitude: float = 0.05,
) -> list[SpectrumPeak]:
    """The most significant periods of ``series``.

    Returns up to ``count`` peaks sorted by magnitude, ignoring periods
    shorter than ``min_period`` samples worth of time and peaks weaker than
    ``min_magnitude`` (relative to the strongest peak).
    """
    spectrum = compute_spectrum(series, sample_spacing)
    peaks = spectrum.top_peaks(count=count * 4, min_period=min_period)
    selected: list[SpectrumPeak] = []
    for peak in peaks:
        if peak.magnitude < min_magnitude:
            continue
        # Collapse near-duplicate periods (within 20 %) onto the stronger one.
        if any(abs(peak.period - s.period) <= 0.2 * s.period for s in selected):
            continue
        selected.append(peak)
        if len(selected) >= count:
            break
    return selected

