"""Forecaster interface shared by the time-series models.

Every model in :mod:`repro.forecasting` follows the same contract, which is
what the ADA/STA algorithms rely on to keep the per-heavy-hitter forecast
state updatable in constant time:

* ``initialize(history)`` -- fit the starting state from a history series;
* ``forecast()`` -- the one-step-ahead prediction for the next observation;
* ``update(value)`` -- fold in the next actual observation and return the
  forecast that had been made for it.
"""

from __future__ import annotations

import abc
from typing import Sequence


class Forecaster(abc.ABC):
    """One-step-ahead forecaster with online constant-time updates."""

    @abc.abstractmethod
    def initialize(self, history: Sequence[float]) -> None:
        """Fit the model's starting state from ``history`` (oldest first)."""

    @abc.abstractmethod
    def forecast(self) -> float:
        """Forecast for the next (not yet observed) value."""

    @abc.abstractmethod
    def update(self, value: float) -> float:
        """Observe ``value``; return the forecast that was made for it."""

    @property
    @abc.abstractmethod
    def min_history(self) -> int:
        """Minimum history length required by :meth:`initialize`."""
