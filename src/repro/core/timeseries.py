"""The multi-time-scale series of Fig. 10.

A heavy hitter's own series (Definition 3, Fig. 5 lines 26-29) — its actual
and forecast windows of length at most ℓ and its Holt-Winters / EWMA
forecaster — is one row of the
:class:`~repro.forecasting.bank.ForecasterBank` matrix, written by bank row
operations and read as the canonical snapshot
:meth:`ADAAlgorithm.series_state <repro.core.ada.ADAAlgorithm.series_state>`
returns.  What is left here is the geometric-scale extension.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


class MultiScaleTimeSeries:
    """Time series maintained at several geometric time scales (Fig. 10).

    The i-th scale aggregates ``lam**i`` base timeunits (0-indexed; the
    paper's scale ``i`` is ``lam**(i-1) * delta``).  Appending a value to the
    base scale cascades: whenever a scale has accumulated ``lam`` new values
    they are summed and appended to the next coarser scale.  Each scale keeps
    at most ``length`` values plus the ``lam - 1`` values awaiting promotion,
    matching the paper's bounded-memory claim, and carries an EWMA forecast
    series exactly as in the pseudocode.
    """

    def __init__(self, length: int, num_scales: int, lam: int, alpha: float = 0.3):
        if length < 1:
            raise ConfigurationError("length must be >= 1")
        if num_scales < 1:
            raise ConfigurationError("num_scales (eta) must be >= 1")
        if lam < 2:
            raise ConfigurationError("lam (lambda) must be >= 2")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        self.length = length
        self.num_scales = num_scales
        self.lam = lam
        self.alpha = alpha
        self.actual: list[list[float]] = [[] for _ in range(num_scales)]
        self.forecast: list[list[float]] = [[] for _ in range(num_scales)]
        self._update_calls = 0

    @property
    def update_calls(self) -> int:
        """Total number of per-scale updates performed (for the Θ(1) amortized check)."""
        return self._update_calls

    def append(self, value: float) -> None:
        """Append one base-timeunit value, cascading to coarser scales."""
        self._update(float(value), 0)

    def _update(self, value: float, scale: int) -> None:
        self._update_calls += 1
        forecasts = self.forecast[scale]
        previous = forecasts[-1] if forecasts else value
        forecasts.append(self.alpha * value + (1 - self.alpha) * previous)
        actuals = self.actual[scale]
        actuals.append(value)
        size = len(actuals)
        if scale + 1 < self.num_scales and size % self.lam == 0:
            promoted = sum(actuals[-self.lam :])
            self._update(promoted, scale + 1)
        limit = self.length + self.lam
        if size >= limit:
            del actuals[: self.lam]
            del forecasts[: self.lam]

    def series_at_scale(self, scale: int) -> list[float]:
        """The retained actual series at ``scale`` (0 = base timeunits)."""
        if not 0 <= scale < self.num_scales:
            raise ConfigurationError(
                f"scale must be in [0, {self.num_scales}), got {scale}"
            )
        return list(self.actual[scale])

    def forecast_at_scale(self, scale: int) -> list[float]:
        if not 0 <= scale < self.num_scales:
            raise ConfigurationError(
                f"scale must be in [0, {self.num_scales}), got {scale}"
            )
        return list(self.forecast[scale])
