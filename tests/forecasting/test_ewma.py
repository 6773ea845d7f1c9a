"""Unit tests for :mod:`repro.forecasting.ewma`."""

import pytest

from repro.exceptions import ConfigurationError
from repro.forecasting.ewma import split_bias_relative_error


class TestSplitBiasRelativeError:
    """Fig. 9: the split-induced forecast error decays exponentially."""

    def test_monotone_decay(self):
        errors = split_bias_relative_error(alpha=0.5, bias=1.0, horizon=10)
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_decay_rate_matches_one_minus_alpha(self):
        errors = split_bias_relative_error(alpha=0.5, bias=1.0, horizon=6)
        for k in range(1, len(errors)):
            assert errors[k] == pytest.approx(errors[0] * 0.5 ** k)

    def test_bias_scales_initial_error(self):
        small = split_bias_relative_error(alpha=0.5, bias=0.5, horizon=3)
        large = split_bias_relative_error(alpha=0.5, bias=2.0, horizon=3)
        assert large[0] == pytest.approx(4 * small[0])

    def test_horizon_validation(self):
        with pytest.raises(ConfigurationError):
            split_bias_relative_error(alpha=0.5, bias=1.0, horizon=0)

    def test_short_actual_series_rejected(self):
        with pytest.raises(ConfigurationError):
            split_bias_relative_error(alpha=0.5, bias=1.0, horizon=5, actual=[1.0, 1.0])
