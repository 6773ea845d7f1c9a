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

All of that state — forecaster components, warm-up history and both
windows — is one row of the :class:`~repro.forecasting.bank.ForecasterBank`
matrix, and every write (observe, record, SPLIT, MERGE, the reference
correction) is a bank operation on a row number.  The classes here are read
views of one row: a :class:`NodeTimeSeries` is a ``(bank, row)`` handle whose
``actual`` / ``forecast`` windows (:class:`FloatRing`) look the row up on
every access, so a row reallocation cannot leave one dangling.  A handle
whose row went back to the bank (:meth:`SeriesForecaster.detach`) is inert:
any use raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from typing import Iterator

from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank
from repro.forecasting.bank import load_seasonal_state  # noqa: F401  (re-export)
from repro.core.config import ForecastConfig


class FloatRing:
    """Read view of one window of a bank row, oldest first.

    Holds the series' forecaster handle, not an array: every read resolves
    ``(bank, row)`` afresh, so the view survives matrix reallocation and
    turns inert with the handle.
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
    """The bank of a detached handle: whatever is asked of it raises."""

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
    """Read view of one :class:`~repro.forecasting.bank.ForecasterBank` row's
    forecasting state: an EWMA level (always available) and an additive
    Holt-Winters model (active once ``config.min_history`` observations have
    been seen).
    """

    __slots__ = ("config", "bank", "row")

    def __init__(self, config: ForecastConfig, bank: ForecasterBank, row: int):
        self.config = config
        self.bank = bank
        self.row = row

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


class NodeTimeSeries:
    """Aligned actual / forecast series for one heavy hitter node: a read
    view of the bank row ``forecaster`` names.

    Parameters
    ----------
    length:
        ℓ, the maximum number of timeunits retained — the bank's window
        length (one bank holds windows of one length).
    forecast_config:
        Parameters of the forecasting model attached to the series.
    forecaster:
        The view of the row's forecasting state.
    """

    def __init__(
        self, length: int, forecast_config: ForecastConfig, forecaster: SeriesForecaster
    ):
        if length < 1:
            raise ConfigurationError(f"series length must be >= 1, got {length}")
        forecaster.bank.reserve_window(length)
        self.length = length
        self.forecast_config = forecast_config
        self.forecaster = forecaster

    @property
    def actual(self) -> FloatRing:
        """The actual (modified-weight) window, oldest first."""
        return FloatRing(self.forecaster, 0)

    @property
    def forecast(self) -> FloatRing:
        """The one-step-ahead forecasts made for the values of :attr:`actual`."""
        return FloatRing(self.forecaster, 1)

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
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the series buffers and forecaster state."""
        forecaster = self.forecaster
        return forecaster.bank.series_state_dict(forecaster.row)

    @classmethod
    def from_state_dict(cls, state: dict, forecast_config: ForecastConfig) -> "NodeTimeSeries":
        """A view of :meth:`state_dict` output restored into a bank of its own."""
        length = int(state["length"])
        bank = ForecasterBank(forecast_config, window=length)
        row = bank.load_series_state(state)
        return cls(length, forecast_config, SeriesForecaster(forecast_config, bank, row))


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
