"""Forecasting models used by Tiresias (Section VI).

Provides the additive Holt-Winters seasonal model (single and
multi-seasonal) with the linearity properties ADA relies on, the
:class:`ForecasterBank` that holds every heavy hitter's forecast state as one
matrix row, and the EWMA split-error analysis of Fig. 9.
"""

from repro.forecasting.bank import ForecasterBank
from repro.forecasting.base import Forecaster
from repro.forecasting.ewma import split_bias_relative_error
from repro.forecasting.holt_winters import HoltWintersForecaster, MultiSeasonalHoltWinters

__all__ = [
    "Forecaster",
    "ForecasterBank",
    "split_bias_relative_error",
    "HoltWintersForecaster",
    "MultiSeasonalHoltWinters",
]
