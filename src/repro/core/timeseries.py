"""Per-heavy-hitter time series state (Definition 3, Fig. 5 lines 26-29,
and the multi-time-scale extension of Fig. 10).

Each heavy hitter carries two aligned series of length at most ℓ: the actual
(modified) weights ``n.actual`` and the one-step-ahead forecasts
``n.forecast``.  The forecast state must support the two operations ADA's
adaptation needs:

* **scale** by a ratio (used by SPLIT), and
* **add** another node's state (used by MERGE),

which the additive Holt-Winters model supports exactly thanks to its
linearity (Lemma 2).  Before a node has accumulated enough history for the
seasonal model, an EWMA fallback provides the forecast; the EWMA level is
linear as well, so scaling/merging remains exact throughout.

The classes here are the public, per-series face of that state.  A
:class:`NodeTimeSeries` is a ``(bank, row)`` handle: forecaster components,
warm-up history *and both windows* are one row of the
:class:`~repro.forecasting.bank.ForecasterBank` matrix, whatever forecasting
model the config names.  SPLIT, MERGE and the reference correction are the
bank's whole-row operations; ``series.actual`` / ``series.forecast`` are read
views (:class:`FloatRing`) that look the row up on every access, so neither a
row reallocation nor a release can leave one dangling.

A standalone ``SeriesForecaster(config)`` / ``NodeTimeSeries(length, config)``
transparently owns a private single-row bank, so the scalar API keeps
working.  A released handle is inert: a second ``release()`` does nothing
and any other use raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank
from repro.forecasting.bank import load_seasonal_state  # noqa: F401  (re-export)
from repro.core.config import ForecastConfig


class FloatRing:
    """Read view of one window of a bank row, oldest first.

    Holds the series' forecaster handle, not an array: every read resolves
    ``(bank, row)`` afresh, so the view survives matrix reallocation and
    turns inert with the handle.  Writes go through the series
    (:meth:`NodeTimeSeries.record` and friends).
    """

    __slots__ = ("_handle", "_which")

    def __init__(self, handle: "SeriesForecaster", which: int):
        self._handle = handle
        self._which = which

    def __len__(self) -> int:
        return self._handle.bank.window_len(self._handle.row, self._which)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: int) -> float:
        return float(self.values()[index])

    def __iter__(self) -> Iterator[float]:
        return iter(self.tolist())

    def values(self, newest: "int | None" = None):
        """The newest ``newest`` (default: all) elements, oldest first, for
        reading only: a slice of the bank matrix unless the live range wraps."""
        handle = self._handle
        return handle.bank.window_values(handle.row, self._which, newest)

    def tolist(self) -> list[float]:
        return self.values().tolist()


class _ReleasedBank:
    """The bank of a released handle: whatever is asked of it raises."""

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        raise ConfigurationError(
            "the series was released and its bank row recycled; "
            "a released handle cannot be used"
        )

    def __reduce__(self) -> str:
        return "_RELEASED"  # pickles (and deep-copies) as the singleton


_RELEASED = _ReleasedBank()


class SeriesForecaster:
    """Linear, online forecaster attached to one heavy hitter's series.

    A thin view over one :class:`~repro.forecasting.bank.ForecasterBank` row:
    an EWMA level (always available) and an additive Holt-Winters model
    (activated once ``config.min_history`` observations have been seen).  All
    state is linear in the observed series, so :meth:`scaled` and
    :meth:`add_state` produce exactly the state that would have resulted from
    observing the scaled / summed series.

    Without an explicit ``bank`` the view owns a private single-row bank, so
    standalone use keeps the historical scalar behaviour; algorithms pass a
    shared bank so that all their nodes update in one vectorized call.
    """

    __slots__ = ("config", "bank", "row")

    def __init__(
        self,
        config: ForecastConfig,
        bank: ForecasterBank | None = None,
        row: int | None = None,
    ):
        self.config = config
        self.bank = ForecasterBank(config) if bank is None else bank
        self.row = self.bank.new_row() if row is None else row

    # ------------------------------------------------------------------
    # Forecaster protocol
    # ------------------------------------------------------------------
    @property
    def is_seasonal(self) -> bool:
        """Whether the Holt-Winters state is active (vs. the EWMA fallback)."""
        return self.bank.is_seasonal(self.row)

    @property
    def observations(self) -> int:
        return self.bank.observations(self.row)

    @property
    def seasonal_model(self):
        """The active seasonal model, materialized from the bank row.

        ``None`` until activation.  This is a read-only introspection *copy*:
        the live state is a bank row, so mutating the returned object never
        affects the forecaster.
        """
        state = self.bank.row_state_dict(self.row)["seasonal"]
        return None if state is None else load_seasonal_state(state)

    def forecast(self) -> float:
        """One-step-ahead forecast for the next timeunit."""
        return self.bank.forecast(self.row)

    def observe(self, value: float) -> float:
        """Fold in the next actual value; return the forecast made for it."""
        return self.bank.observe(self.row, value)

    def seed_history(self, history: Sequence[float]) -> None:
        """Initialize from a full history series (oldest first)."""
        self.bank.seed_history(self.row, history)

    @classmethod
    def from_history_fast(
        cls,
        history: Sequence[float],
        config: ForecastConfig,
        bank: ForecasterBank | None = None,
    ) -> "SeriesForecaster":
        """Build a forecaster state from ``history`` without replaying it.

        The seasonal model is initialized directly from the last
        ``config.min_history`` values (its normal initialization path) and the
        EWMA fallback level from an exponential smoothing of the recent tail.
        This is what the reference-series correction uses after a split: it
        costs O(seasonal period) instead of O(window) Holt-Winters updates and
        yields the same forecasts going forward up to initialization
        transients.
        """
        forecaster = cls(config, bank=bank)
        forecaster.bank.seed_fast(forecaster.row, history)
        return forecaster

    # ------------------------------------------------------------------
    # Linearity operations used by SPLIT / MERGE
    # ------------------------------------------------------------------
    def scaled(self, ratio: float) -> "SeriesForecaster":
        """State of a forecaster that would have observed ``ratio * series``.

        The clone lives in the same bank (a new row)."""
        return SeriesForecaster(
            self.config, self.bank, self.bank.clone_row(self.row, ratio)
        )

    def add_state(self, other: "SeriesForecaster") -> None:
        """Fold ``other``'s state into this forecaster (series addition)."""
        self.bank.add_state(self.row, other.bank, other.row)

    def copy(self) -> "SeriesForecaster":
        return self.scaled(1.0)

    def release(self) -> None:
        """Return the row to the bank.  The handle is inert afterwards:
        releasing it again does nothing, anything else raises."""
        if self.bank is _RELEASED:
            return
        self.bank.free_row(self.row)
        self.detach()

    def detach(self) -> None:
        """Turn the handle inert without touching the row — for the owner of
        the row, which has already returned it to the bank."""
        self.bank = _RELEASED
        self.row = -1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot (the shared :class:`ForecastConfig` is stored
        once at the session level, not per forecaster)."""
        return self.bank.row_state_dict(self.row)

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        config: ForecastConfig,
        bank: ForecasterBank | None = None,
    ) -> "SeriesForecaster":
        """Rebuild a forecaster from :meth:`state_dict` output."""
        forecaster = cls(config, bank=bank)
        forecaster.bank.load_row_state(forecaster.row, state)
        return forecaster


class NodeTimeSeries:
    """Aligned actual / forecast series for one heavy hitter node.

    Parameters
    ----------
    length:
        ℓ, the maximum number of timeunits retained.
    forecast_config:
        Parameters of the forecasting model attached to the series.
    bank:
        Shared :class:`~repro.forecasting.bank.ForecasterBank` the node's
        row should live in; omitted for standalone use.  One bank holds
        windows of one length.
    forecaster:
        Pre-built forecaster view to adopt instead of allocating a fresh row
        (used internally by :meth:`scaled`).
    """

    def __init__(
        self,
        length: int,
        forecast_config: ForecastConfig,
        bank: ForecasterBank | None = None,
        forecaster: SeriesForecaster | None = None,
    ):
        if length < 1:
            raise ConfigurationError(f"series length must be >= 1, got {length}")
        self.length = length
        self.forecast_config = forecast_config
        # The window is reserved before a row is allocated: a bank that
        # holds another length refuses without leaking a row.
        if forecaster is not None:
            forecaster.bank.reserve_window(length)
        else:
            if bank is None:
                bank = ForecasterBank(forecast_config, window=length)
            else:
                bank.reserve_window(length)
            forecaster = SeriesForecaster(forecast_config, bank=bank)
        self.forecaster = forecaster

    @classmethod
    def _adopt(
        cls, template: "NodeTimeSeries", forecaster: SeriesForecaster
    ) -> "NodeTimeSeries":
        """A series over an existing row."""
        series = cls.__new__(cls)
        series.length = template.length
        series.forecast_config = template.forecast_config
        series.forecaster = forecaster
        return series

    @property
    def actual(self) -> FloatRing:
        """The actual (modified-weight) window, oldest first."""
        return FloatRing(self.forecaster, 0)

    @property
    def forecast(self) -> FloatRing:
        """The one-step-ahead forecasts made for the values of :attr:`actual`."""
        return FloatRing(self.forecaster, 1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_history(
        cls, history: Sequence[float], length: int, forecast_config: ForecastConfig
    ) -> "NodeTimeSeries":
        """Build a series by replaying ``history`` (oldest first)."""
        series = cls(length, forecast_config)
        series.extend(history)
        return series

    # ------------------------------------------------------------------
    # Online updates
    # ------------------------------------------------------------------
    def append(self, value: float) -> float:
        """Append the newest actual value; returns the forecast made for it."""
        predicted = self.forecaster.observe(value)
        self.record(float(value), predicted)
        return predicted

    def record(self, value: float, predicted: float) -> None:
        """Push an (actual, forecast) pair whose forecaster update already ran.

        The per-series form of :meth:`ForecasterBank.record_rows`, which the
        batched close uses after one :meth:`ForecasterBank.observe_rows_arrays`
        call has advanced every forecaster.
        """
        self.forecaster.bank.record(self.forecaster.row, value, predicted)

    def extend(self, values: Sequence[float]) -> list[float]:
        """Append several timeunit values at once (oldest first).

        This is the series-level entry point of the batch ingestion path: a
        columnar batch reduces to one aggregated count per (node, timeunit),
        so a node series absorbs a whole batch with one call instead of one
        per record.  The forecaster update is inherently sequential (each
        forecast conditions on the previous observation), so the values are
        folded in order; returns the forecast made for each value.
        """
        return [self.append(value) for value in values]

    @property
    def latest_actual(self) -> float:
        actual = self.actual
        if not actual:
            raise ConfigurationError("the series has no observations yet")
        return actual[-1]

    @property
    def latest_forecast(self) -> float:
        forecast = self.forecast
        if not forecast:
            raise ConfigurationError("the series has no observations yet")
        return forecast[-1]

    def next_forecast(self) -> float:
        """Forecast for the not-yet-observed next timeunit."""
        return self.forecaster.forecast()

    def __len__(self) -> int:
        return len(self.actual)

    # ------------------------------------------------------------------
    # SPLIT / MERGE support
    # ------------------------------------------------------------------
    def scaled(self, ratio: float) -> "NodeTimeSeries":
        """A copy whose actual/forecast series and state are scaled by ``ratio``."""
        return NodeTimeSeries._adopt(self, self.forecaster.scaled(ratio))

    def split_inplace(self, ratio: float) -> "NodeTimeSeries":
        """SPLIT this series in place: a new series takes the ``ratio`` share,
        this one keeps ``1 - ratio``.

        Bit-identical to the ``scaled(ratio)`` / ``scaled(1 - ratio)`` /
        ``release()`` triple of a per-object split cascade, with this object
        (and its row) surviving in place: :meth:`ForecasterBank.split_row`,
        two multiplies over the row.
        """
        forecaster = self.forecaster
        child_row = forecaster.bank.split_row(forecaster.row, ratio)
        return NodeTimeSeries._adopt(
            self, SeriesForecaster(self.forecast_config, forecaster.bank, child_row)
        )

    def merge_from(self, other: "NodeTimeSeries") -> None:
        """Add ``other``'s series into this one element-wise (newest aligned);
        ``other`` is left intact for its owner to release."""
        mine = self.forecaster
        if other.forecaster.bank is mine.bank:
            mine.bank.fold_row(mine.row, other.forecaster.row)
        else:
            # A series of another bank (standalone use): bring its newest ℓ
            # timeunits over as a guest row, fold, and let the guest go.
            guest = NodeTimeSeries(self.length, self.forecast_config, bank=mine.bank)
            guest._load(other.state_dict())
            mine.bank.fold_row(mine.row, guest.forecaster.row)
            guest.release()

    def replace_actual(self, values: Sequence[float]) -> None:
        """Overwrite the actual series (used by the reference-series correction).

        The forecaster state is rebuilt from the corrected history (via the
        fast initialization path) so that future forecasts reflect the
        corrected series.  The historical forecast column is reset to the
        corrected actuals themselves -- only the forecast for the upcoming
        timeunits matters for detection, and past forecasts of a re-derived
        series are not well defined anyway.
        """
        if isinstance(values, np.ndarray):
            trimmed = values[-self.length :]
        else:
            trimmed = list(values)[-self.length :]
        forecaster = self.forecaster
        forecaster.bank.reseed(forecaster.row, trimmed)

    def release(self) -> None:
        """Return the row to its bank when dropping the series (idempotent;
        a released series cannot be used)."""
        self.forecaster.release()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the series buffers and forecaster state."""
        return {
            "length": self.length,
            "actual": self.actual.tolist(),
            "forecast": self.forecast.tolist(),
            "forecaster": self.forecaster.state_dict(),
        }

    def _load(self, state: dict) -> None:
        """Fill this *fresh* series from :meth:`state_dict` output (windows
        longer than ``self.length`` keep their newest values)."""
        forecaster = self.forecaster
        forecaster.bank.load_row_state(forecaster.row, state["forecaster"])
        actual = [float(v) for v in state["actual"]]
        forecast = [float(v) for v in state["forecast"]]
        forecaster.bank.load_windows(forecaster.row, actual, forecast)

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        forecast_config: ForecastConfig,
        bank: ForecasterBank | None = None,
    ) -> "NodeTimeSeries":
        """Rebuild a node series from :meth:`state_dict` output."""
        series = cls(int(state["length"]), forecast_config, bank=bank)
        series._load(state)
        return series


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
