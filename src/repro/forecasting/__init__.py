"""Forecasting models used by Tiresias (Section VI).

Provides the EWMA baseline, the additive Holt-Winters seasonal model (single
and multi-seasonal) with the linearity properties ADA relies on, and the
offline error metrics / parameter selection used in the evaluation.
"""

from repro.forecasting.bank import ForecasterBank
from repro.forecasting.base import Forecaster
from repro.forecasting.errors import (
    GridSearchResult,
    grid_search_parameters,
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
)
from repro.forecasting.ewma import EWMAForecaster, ewma_series, split_bias_relative_error
from repro.forecasting.holt_winters import HoltWintersForecaster, MultiSeasonalHoltWinters

__all__ = [
    "Forecaster",
    "ForecasterBank",
    "EWMAForecaster",
    "ewma_series",
    "split_bias_relative_error",
    "HoltWintersForecaster",
    "MultiSeasonalHoltWinters",
    "mean_squared_error",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "grid_search_parameters",
    "GridSearchResult",
]
