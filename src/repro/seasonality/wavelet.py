"""À-trous wavelet multi-resolution analysis (Section VI).

The paper validates the FFT-derived periodicities with the à-trous
(with-holes) wavelet transform: the series is repeatedly smoothed with an
up-sampled low-pass B3-spline filter ``(1/16, 1/4, 3/8, 1/4, 1/16)``; the
detail signal at scale ``j`` is the difference between successive smoothed
approximations, and the energy of each detail signal indicates how strong the
fluctuations at that timescale are.  A peak in detail energy near the scale of
a day (or week) confirms the corresponding seasonal period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: The low-pass B3-spline filter used by the paper (and by Papagiannaki et al.
#: for long-term traffic forecasting) to avoid phase shifting.
B3_SPLINE_FILTER: tuple[float, ...] = (1 / 16, 1 / 4, 3 / 8, 1 / 4, 1 / 16)


@dataclass(frozen=True)
class WaveletDecomposition:
    """Result of the à-trous multi-resolution analysis.

    Attributes
    ----------
    approximations:
        ``approximations[j]`` is the smoothed series c_j; index 0 is the
        original series c_0.
    details:
        ``details[j]`` is d_{j+1} = c_j - c_{j+1}, the fluctuations captured
        between scales j and j+1.
    energies:
        Sum of squared detail values per scale, normalized by the maximum so
        the strongest scale has energy 1.
    scales:
        Effective timescale (in timeunits) of each detail level: 2^(j+1).
    """

    approximations: list[np.ndarray]
    details: list[np.ndarray]
    energies: np.ndarray
    scales: np.ndarray


def _atrous_smooth(series: np.ndarray, level: int) -> np.ndarray:
    """One à-trous smoothing pass at ``level`` (filter holes of 2**level)."""
    spacing = 2 ** level
    kernel_offsets = [(-2 * spacing, B3_SPLINE_FILTER[0]),
                      (-spacing, B3_SPLINE_FILTER[1]),
                      (0, B3_SPLINE_FILTER[2]),
                      (spacing, B3_SPLINE_FILTER[3]),
                      (2 * spacing, B3_SPLINE_FILTER[4])]
    n = series.size
    smoothed = np.zeros(n, dtype=float)
    indices = np.arange(n)
    for offset, weight in kernel_offsets:
        # Symmetric (mirror) boundary handling keeps the transform unbiased at
        # the edges of the trace.
        idx = indices + offset
        idx = np.abs(idx)
        idx = np.where(idx >= n, 2 * (n - 1) - idx, idx)
        smoothed += weight * series[idx]
    return smoothed


def atrous_decompose(series: Sequence[float], num_scales: int | None = None) -> WaveletDecomposition:
    """Decompose ``series`` into à-trous approximations and details.

    Parameters
    ----------
    series:
        Count series, one value per timeunit.
    num_scales:
        Number of detail levels; defaults to ``floor(log2(len(series))) - 2``
        so the coarsest scale still spans a reasonable fraction of the trace.
    """
    values = np.asarray(list(series), dtype=float)
    if values.size < 8:
        raise ConfigurationError("the series is too short for wavelet analysis")
    if num_scales is None:
        num_scales = max(1, int(np.floor(np.log2(values.size))) - 2)
    if num_scales < 1:
        raise ConfigurationError(f"num_scales must be >= 1, got {num_scales}")

    approximations = [values]
    details: list[np.ndarray] = []
    current = values
    for level in range(num_scales):
        smoothed = _atrous_smooth(current, level)
        details.append(current - smoothed)
        approximations.append(smoothed)
        current = smoothed

    energies = np.array([float(np.sum(d ** 2)) for d in details])
    peak = energies.max()
    if peak > 0:
        energies = energies / peak
    scales = np.array([2.0 ** (j + 1) for j in range(num_scales)])
    return WaveletDecomposition(
        approximations=approximations,
        details=details,
        energies=energies,
        scales=scales,
    )


def detail_energy_profile(
    series: Sequence[float], sample_spacing: float = 1.0, num_scales: int | None = None
) -> list[tuple[float, float]]:
    """(timescale, normalized energy) pairs for each detail level.

    ``sample_spacing`` converts timeunits into the caller's preferred unit
    (e.g. hours), matching how the FFT results are reported.
    """
    decomposition = atrous_decompose(series, num_scales=num_scales)
    return [
        (float(scale * sample_spacing), float(energy))
        for scale, energy in zip(decomposition.scales, decomposition.energies)
    ]
