"""Additive Holt-Winters seasonal forecasting (Section VI of the paper).

The paper forecasts each heavy hitter's time series with the additive
Holt-Winters model, decomposing the series into level ``L``, trend ``B`` and
seasonal ``S`` components::

    L[t] = alpha * (T[t] - S[t - p]) + (1 - alpha) * (L[t-1] + B[t-1])
    B[t] = beta  * (L[t] - L[t-1])   + (1 - beta)  * B[t-1]
    S[t] = gamma * (T[t] - L[t])     + (1 - gamma) * S[t - p]
    G[t] = L[t-1] + B[t-1] + S[t - p]

Two properties matter for Tiresias:

* the update is constant time per observation, so online detection stays
  cheap even with a 12-week history; and
* the model is *linear* in the series (the paper's Lemma 2), so the forecast
  of a sum of series is the sum of forecasts.  ADA exploits this when it
  splits or merges heavy-hitter time series: the component state can be
  scaled/added directly instead of being refit.

For CCD the paper combines a daily and a weekly seasonal factor linearly
(``S = xi * S_day + (1 - xi) * S_week``); :class:`MultiSeasonalHoltWinters`
implements that combination.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._vector import left_sum
from repro.exceptions import ConfigurationError, NotEnoughHistoryError
from repro.forecasting.base import Forecaster


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


class HoltWintersForecaster(Forecaster):
    """Additive Holt-Winters model with a single seasonal period.

    Parameters
    ----------
    alpha, beta, gamma:
        Smoothing rates for level, trend and seasonality.
    season_length:
        The seasonal period υ in timeunits (e.g. 96 for a daily season with
        15-minute timeunits).
    """

    def __init__(
        self,
        alpha: float = 0.2,
        beta: float = 0.05,
        gamma: float = 0.2,
        season_length: int = 96,
    ):
        _check_rate("alpha", alpha)
        _check_rate("beta", beta)
        _check_rate("gamma", gamma)
        if season_length < 1:
            raise ConfigurationError(f"season_length must be >= 1, got {season_length}")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_length = season_length
        self.level: float | None = None
        self.trend: float = 0.0
        #: Circular buffer of seasonal components; ``seasonals[t % p]`` is the
        #: most recent estimate of the seasonal factor for phase ``t % p``.
        self.seasonals: list[float] = []
        #: Index into ``seasonals`` of the next timeunit's seasonal factor.
        self.phase = 0

    # ------------------------------------------------------------------
    # Forecaster interface
    # ------------------------------------------------------------------
    @property
    def min_history(self) -> int:
        """At least two full seasonal cycles, as in the paper's initialization."""
        return 2 * self.season_length

    def initialize(self, history: Sequence[float]) -> None:
        """Initialize level, trend and seasonals from ``history`` (oldest first).

        Follows the paper's scheme: the starting level is the mean of the last
        two seasonal cycles, the starting trend is the per-period difference
        between the two cycle means, and the starting seasonal factors are the
        deviations of the last ``2 * season_length`` observations from the
        starting level (later observations overwrite earlier ones for the same
        phase).
        """
        p = self.season_length
        if len(history) < 2 * p:
            raise NotEnoughHistoryError(2 * p, len(history))
        window = np.asarray(history[-2 * p :], dtype=np.float64)
        values = window.tolist()
        self.level = left_sum(values) / (2 * p)
        self.trend = (left_sum(values[p:]) - left_sum(values[:p])) / (p * p)
        # Later observations overwrite earlier ones for the same phase, so
        # the surviving factors are the second cycle's deviations.
        self.seasonals = (window[p:] - self.level).tolist()
        self.phase = 0

    def forecast(self) -> float:
        if self.level is None:
            raise NotEnoughHistoryError(self.min_history, 0)
        return self.level + self.trend + self.seasonals[self.phase]

    def update(self, value: float) -> float:
        if self.level is None:
            raise NotEnoughHistoryError(self.min_history, 0)
        predicted = self.forecast()
        value = float(value)
        seasonal = self.seasonals[self.phase]
        previous_level = self.level
        self.level = self.alpha * (value - seasonal) + (1 - self.alpha) * (
            previous_level + self.trend
        )
        self.trend = self.beta * (self.level - previous_level) + (1 - self.beta) * self.trend
        self.seasonals[self.phase] = (
            self.gamma * (value - self.level) + (1 - self.gamma) * seasonal
        )
        self.phase = (self.phase + 1) % self.season_length
        return predicted

    # ------------------------------------------------------------------
    # Linearity (Lemma 2) support for ADA split / merge
    # ------------------------------------------------------------------
    def _require_compatible(self, other: "HoltWintersForecaster") -> None:
        if (
            self.season_length != other.season_length
            or self.alpha != other.alpha
            or self.beta != other.beta
            or self.gamma != other.gamma
        ):
            raise ConfigurationError(
                "cannot combine Holt-Winters states with different parameters"
            )

    def _aligned_seasonals(self, other: "HoltWintersForecaster") -> list[float]:
        """Other's seasonal buffer re-indexed to this model's phase origin.

        Two models tracking series over the same wall-clock timeunits may have
        initialized their circular seasonal buffers at different offsets; what
        must line up when adding states is the seasonal factor of the *next*
        timeunit (``seasonals[phase]``), the one after it, and so on.
        """
        p = self.season_length
        shift = (other.phase - self.phase) % p
        return [other.seasonals[(i + shift) % p] for i in range(p)]

    def scaled(self, factor: float) -> "HoltWintersForecaster":
        """A copy of this model whose state is scaled by ``factor``.

        By Lemma 2 this is the exact state the model would have reached on the
        series ``factor * T``; ADA uses it when splitting a parent's time
        series into children.
        """
        clone = HoltWintersForecaster(self.alpha, self.beta, self.gamma, self.season_length)
        if self.level is not None:
            clone.level = self.level * factor
            clone.trend = self.trend * factor
            clone.seasonals = [s * factor for s in self.seasonals]
            clone.phase = self.phase
        return clone

    def add_state(self, other: "HoltWintersForecaster") -> None:
        """Fold ``other``'s state into this model (in place).

        By Lemma 2 the result is the state the model would have reached on the
        summed series; ADA uses it when merging children into their parent.
        """
        if other.level is None:
            return
        if self.level is None:
            self.level = other.level
            self.trend = other.trend
            self.seasonals = list(other.seasonals)
            self.phase = other.phase
            return
        self._require_compatible(other)
        self.level += other.level
        self.trend += other.trend
        self.seasonals = [
            a + b for a, b in zip(self.seasonals, self._aligned_seasonals(other))
        ]

    def copy(self) -> "HoltWintersForecaster":
        return self.scaled(1.0)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of parameters and smoothing state."""
        return {
            "kind": "holt-winters",
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "season_length": self.season_length,
            "level": self.level,
            "trend": self.trend,
            "seasonals": list(self.seasonals),
            "phase": self.phase,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "HoltWintersForecaster":
        """Rebuild a model from :meth:`state_dict` output."""
        model = cls(
            alpha=float(state["alpha"]),
            beta=float(state["beta"]),
            gamma=float(state["gamma"]),
            season_length=int(state["season_length"]),
        )
        model.level = None if state["level"] is None else float(state["level"])
        model.trend = float(state["trend"])
        model.seasonals = [float(v) for v in state["seasonals"]]
        model.phase = int(state["phase"])
        return model


class MultiSeasonalHoltWinters(Forecaster):
    """Holt-Winters with two (or more) linearly combined seasonal factors.

    The paper models CCD with ``S = xi * S_day + (1 - xi) * S_week`` where the
    weight ``xi`` is derived from the relative FFT magnitudes of the daily and
    weekly periods.  This class keeps one level/trend pair and one seasonal
    buffer per period; the combined seasonal factor enters the level update
    and the forecast.

    Parameters
    ----------
    season_lengths:
        Seasonal periods in timeunits, e.g. ``(96, 672)`` for daily and weekly
        seasons with 15-minute units.
    season_weights:
        Convex combination weights (must sum to 1).
    """

    def __init__(
        self,
        alpha: float = 0.2,
        beta: float = 0.05,
        gamma: float = 0.2,
        season_lengths: Sequence[int] = (96, 672),
        season_weights: Sequence[float] | None = None,
    ):
        _check_rate("alpha", alpha)
        _check_rate("beta", beta)
        _check_rate("gamma", gamma)
        if not season_lengths:
            raise ConfigurationError("need at least one seasonal period")
        lengths = [int(p) for p in season_lengths]
        if any(p < 1 for p in lengths):
            raise ConfigurationError("seasonal periods must be >= 1")
        if season_weights is None:
            weights = [1.0 / len(lengths)] * len(lengths)
        else:
            weights = [float(w) for w in season_weights]
        if len(weights) != len(lengths):
            raise ConfigurationError("season_weights must match season_lengths")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigurationError("season_weights must be non-negative and sum to 1")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_lengths = tuple(lengths)
        self.season_weights = tuple(weights)
        self.level: float | None = None
        self.trend: float = 0.0
        self.seasonals: list[list[float]] = [[0.0] * p for p in lengths]
        #: Per seasonal period, the index of the next timeunit's factor.
        self.phases: list[int] = [0] * len(lengths)

    @property
    def min_history(self) -> int:
        return 2 * max(self.season_lengths)

    def _combined_seasonal(self) -> float:
        return left_sum(
            w * buf[phase]
            for w, buf, phase in zip(self.season_weights, self.seasonals, self.phases)
        )

    def initialize(self, history: Sequence[float]) -> None:
        longest = max(self.season_lengths)
        if len(history) < 2 * longest:
            raise NotEnoughHistoryError(2 * longest, len(history))
        window = np.asarray(history[-2 * longest :], dtype=np.float64)
        values = window.tolist()
        self.level = left_sum(values) / (2 * longest)
        self.trend = (
            left_sum(values[longest:]) - left_sum(values[:longest])
        ) / (longest * longest)
        # As in the single-season case: the last cycle's deviations win.
        self.seasonals = [
            (window[-p:] - self.level).tolist() for p in self.season_lengths
        ]
        self.phases = [0] * len(self.season_lengths)

    def forecast(self) -> float:
        if self.level is None:
            raise NotEnoughHistoryError(self.min_history, 0)
        return self.level + self.trend + self._combined_seasonal()

    def update(self, value: float) -> float:
        if self.level is None:
            raise NotEnoughHistoryError(self.min_history, 0)
        predicted = self.forecast()
        value = float(value)
        seasonal = self._combined_seasonal()
        previous_level = self.level
        self.level = self.alpha * (value - seasonal) + (1 - self.alpha) * (
            previous_level + self.trend
        )
        self.trend = self.beta * (self.level - previous_level) + (1 - self.beta) * self.trend
        residual = value - self.level
        for buf, phase in zip(self.seasonals, self.phases):
            buf[phase] = self.gamma * residual + (1 - self.gamma) * buf[phase]
        self.phases = [
            (phase + 1) % p for phase, p in zip(self.phases, self.season_lengths)
        ]
        return predicted

    # ------------------------------------------------------------------
    # Linearity support (mirrors HoltWintersForecaster)
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "MultiSeasonalHoltWinters":
        clone = MultiSeasonalHoltWinters(
            self.alpha,
            self.beta,
            self.gamma,
            self.season_lengths,
            self.season_weights,
        )
        if self.level is not None:
            clone.level = self.level * factor
            clone.trend = self.trend * factor
            clone.seasonals = [[s * factor for s in buf] for buf in self.seasonals]
            clone.phases = list(self.phases)
        return clone

    def add_state(self, other: "MultiSeasonalHoltWinters") -> None:
        if other.level is None:
            return
        if self.level is None:
            self.level = other.level
            self.trend = other.trend
            self.seasonals = [list(buf) for buf in other.seasonals]
            self.phases = list(other.phases)
            return
        if (
            self.season_lengths != other.season_lengths
            or self.season_weights != other.season_weights
        ):
            raise ConfigurationError(
                "cannot combine multi-seasonal states with different structure"
            )
        self.level += other.level
        self.trend += other.trend
        merged: list[list[float]] = []
        for mine, theirs, p, my_phase, their_phase in zip(
            self.seasonals, other.seasonals, self.season_lengths, self.phases, other.phases
        ):
            shift = (their_phase - my_phase) % p
            aligned = [theirs[(i + shift) % p] for i in range(p)]
            merged.append([a + b for a, b in zip(mine, aligned)])
        self.seasonals = merged

    def copy(self) -> "MultiSeasonalHoltWinters":
        return self.scaled(1.0)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of parameters and smoothing state."""
        return {
            "kind": "multi-seasonal-holt-winters",
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "season_lengths": list(self.season_lengths),
            "season_weights": list(self.season_weights),
            "level": self.level,
            "trend": self.trend,
            "seasonals": [list(buf) for buf in self.seasonals],
            "phases": list(self.phases),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MultiSeasonalHoltWinters":
        """Rebuild a model from :meth:`state_dict` output."""
        model = cls(
            alpha=float(state["alpha"]),
            beta=float(state["beta"]),
            gamma=float(state["gamma"]),
            season_lengths=[int(p) for p in state["season_lengths"]],
            season_weights=[float(w) for w in state["season_weights"]],
        )
        model.level = None if state["level"] is None else float(state["level"])
        model.trend = float(state["trend"])
        model.seasonals = [[float(v) for v in buf] for buf in state["seasonals"]]
        model.phases = [int(p) for p in state["phases"]]
        return model
