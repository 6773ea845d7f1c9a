"""Seasonality analysis (Section VI): FFT periodogram, à-trous wavelet
multi-resolution analysis, and the combined analyzer that parameterizes the
Holt-Winters forecasting model.
"""

from repro.seasonality.analyzer import SeasonalityAnalyzer, SeasonalityProfile
from repro.seasonality.fft import (
    Spectrum,
    SpectrumPeak,
    compute_spectrum,
    dominant_periods,
)
from repro.seasonality.wavelet import (
    B3_SPLINE_FILTER,
    WaveletDecomposition,
    atrous_decompose,
    detail_energy_profile,
)

__all__ = [
    "SeasonalityAnalyzer",
    "SeasonalityProfile",
    "Spectrum",
    "SpectrumPeak",
    "compute_spectrum",
    "dominant_periods",
    "B3_SPLINE_FILTER",
    "WaveletDecomposition",
    "atrous_decompose",
    "detail_energy_profile",
]
