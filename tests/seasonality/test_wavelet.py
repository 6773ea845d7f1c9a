"""Unit tests for :mod:`repro.seasonality.wavelet`."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.seasonality.wavelet import (
    B3_SPLINE_FILTER,
    atrous_decompose,
    detail_energy_profile,
)


def periodic_series(length: int, period: int, amplitude: float = 10.0, base: float = 50.0):
    return [base + amplitude * math.sin(2 * math.pi * t / period) for t in range(length)]


class TestFilter:
    def test_b3_filter_matches_paper(self):
        assert B3_SPLINE_FILTER == (1 / 16, 1 / 4, 3 / 8, 1 / 4, 1 / 16)
        assert sum(B3_SPLINE_FILTER) == pytest.approx(1.0)


class TestDecomposition:
    def test_requires_minimum_length(self):
        with pytest.raises(ConfigurationError):
            atrous_decompose([1.0] * 4)

    def test_invalid_scale_count(self):
        with pytest.raises(ConfigurationError):
            atrous_decompose([1.0] * 32, num_scales=0)

    def test_reconstruction_identity(self):
        """The original series equals the coarsest approximation plus all details."""
        series = periodic_series(256, period=16)
        decomposition = atrous_decompose(series, num_scales=4)
        reconstructed = decomposition.approximations[-1].copy()
        for detail in decomposition.details:
            reconstructed = reconstructed + detail
        assert np.allclose(reconstructed, np.asarray(series), atol=1e-9)

    def test_number_of_levels(self):
        decomposition = atrous_decompose([1.0] * 64, num_scales=3)
        assert len(decomposition.details) == 3
        assert len(decomposition.approximations) == 4
        assert list(decomposition.scales) == [2.0, 4.0, 8.0]

    def test_constant_series_has_zero_detail_energy(self):
        decomposition = atrous_decompose([5.0] * 64, num_scales=3)
        assert np.allclose(decomposition.energies, 0.0)

    def test_dominant_scale_tracks_period(self):
        """A longer period must shift the energy peak to a coarser scale."""
        short = atrous_decompose(periodic_series(512, period=4), num_scales=6)
        long = atrous_decompose(periodic_series(512, period=64), num_scales=6)
        def peak(decomposition):
            return decomposition.scales[np.argmax(decomposition.energies)]

        assert peak(long) > peak(short)


class TestDetailEnergyProfile:
    def test_profile_uses_sample_spacing(self):
        series = periodic_series(256, period=8)
        profile = detail_energy_profile(series, sample_spacing=0.25, num_scales=4)
        scales = [scale for scale, _ in profile]
        assert scales == [0.5, 1.0, 2.0, 4.0]

    def test_energies_normalized(self):
        profile = detail_energy_profile(periodic_series(256, period=8), num_scales=4)
        energies = [energy for _, energy in profile]
        assert max(energies) == pytest.approx(1.0)
        assert all(0.0 <= e <= 1.0 for e in energies)
