"""Columnar forecaster bank: one vectorized update for every tracked node.

The scalar pipeline attaches one forecaster object per heavy hitter and
updates them one at a time inside the per-timeunit close loop — after the
columnar ingestion work of the batch path, that loop is the hot path.  A
:class:`ForecasterBank` instead holds the forecasting state of *all* tracked
node paths in parallel arrays:

* the EWMA fallback level and observation count per row,
* the pre-seasonal warm-up history per row (ragged, Python lists), and
* the additive Holt-Winters state — level, trend, one seasonal buffer per
  seasonal period, and the per-row seasonal phase — as 2-D arrays.

:meth:`observe_rows` folds one timeunit of values into any subset of rows
with a handful of NumPy kernels instead of N Python-object updates.  Every
per-row operation ADA's adaptation needs — :meth:`clone_row` (SPLIT),
:meth:`add_state` (MERGE), :meth:`seed_fast` (reference-series correction) —
is implemented with exactly the scalar arithmetic of the historical
per-object forecasters, so results stay bit-for-bit identical and the
split/merge linearity of the paper's Lemma 2 keeps holding.

Fallbacks mirror :class:`~repro.streaming.batch.RecordBatch`: without NumPy
(or with ``REPRO_DISABLE_NUMPY`` set, or with a custom ``ForecastConfig.model``
whose internals the bank cannot vectorize) each row degrades to a private
scalar state object with the same public row API — functional, just slower.

Checkpoint compatibility: :meth:`row_state_dict` / :meth:`load_row_state`
speak the *canonical per-path forecaster format* that predates the bank
(``{"ewma_level", "seen", "history", "seasonal"}``), so bank-backed sessions
read and write the same checkpoints as scalar and sharded sessions.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro._vector import load_kernels, load_numpy
from repro.core.config import ForecastConfig
from repro.exceptions import ConfigurationError
from repro.forecasting.holt_winters import (
    HoltWintersForecaster,
    MultiSeasonalHoltWinters,
)

_np = load_numpy()

#: Whether the vectorized (NumPy) kernels are active for ``model="auto"``.
HAS_VECTOR_BACKEND = _np is not None

#: Row-count crossover at which a vectorized bank beats per-row Python
#: arithmetic for repeated full-bank updates (measured ≈ 48 on CPython 3.11).
#: Callers that create a *throwaway* bank sized to a known row count (e.g.
#: STA's per-timeunit refit) should pass ``force_scalar=True`` below this;
#: the two backends are bit-identical, so the choice is purely speed.
VECTOR_MIN_ROWS = 48

#: Batch-size crossover below which one :meth:`ForecasterBank.observe_rows`
#: call routes through the per-row scalar observe loop (measured ≈ 6 rows on
#: this container: NumPy gather/scatter overhead beats Python floats only
#: from about that many rows).  The two paths are bit-identical.
OBSERVE_VECTOR_MIN_ROWS = 6


def _build_seasonal_model(config: ForecastConfig):
    """The seasonal model ``config`` selects (single / multi / registry)."""
    if config.model != "auto":
        from repro.core.registry import create_forecaster

        return create_forecaster(config.model, config)
    if len(config.season_lengths) == 1:
        return HoltWintersForecaster(
            alpha=config.alpha,
            beta=config.beta,
            gamma=config.gamma,
            season_length=config.season_lengths[0],
        )
    return MultiSeasonalHoltWinters(
        alpha=config.alpha,
        beta=config.beta,
        gamma=config.gamma,
        season_lengths=config.season_lengths,
        season_weights=config.season_weights,
    )


def load_seasonal_state(state: dict):
    """Rebuild a seasonal model from its ``state_dict`` snapshot (by kind)."""
    from repro.core.registry import forecaster_state_loader

    return forecaster_state_loader(str(state.get("kind")))(state)


class _ScalarRow:
    """One row's forecasting state as plain Python objects.

    This is the historical per-node forecaster implementation, kept verbatim
    as the bank's fallback row type: it is used when NumPy is unavailable and
    when the configured seasonal model is a registry plug-in whose internals
    the vector kernels cannot see.
    """

    __slots__ = ("config", "ewma_level", "seen", "history", "seasonal")

    def __init__(self, config: ForecastConfig):
        self.config = config
        self.ewma_level: float | None = None
        self.seen = 0
        self.history: list[float] = []
        self.seasonal: Any = None

    def _maybe_activate(self) -> None:
        if self.seasonal is None and len(self.history) >= self.config.min_history:
            model = _build_seasonal_model(self.config)
            model.initialize(self.history)
            self.seasonal = model
            self.history = []

    def forecast(self) -> float:
        if self.seasonal is not None:
            return self.seasonal.forecast()
        if self.ewma_level is None:
            return 0.0
        return self.ewma_level

    def observe(self, value: float) -> float:
        value = float(value)
        predicted = self.forecast()
        alpha = self.config.fallback_alpha
        if self.ewma_level is None:
            self.ewma_level = value
        else:
            self.ewma_level = alpha * value + (1 - alpha) * self.ewma_level
        if self.seasonal is not None:
            self.seasonal.update(value)
        else:
            self.history.append(value)
            self._maybe_activate()
        self.seen += 1
        return predicted

    def seed_fast(self, history: Sequence[float]) -> None:
        n = len(history)
        self.seen = n
        if not n:
            return
        alpha = self.config.fallback_alpha
        # Only the tail is ever read, so the historical whole-series float
        # conversion is applied lazily (identical values: float is idempotent
        # and the seasonal initialization converts internally).
        tail = [float(v) for v in history[-min(n, 64):]]
        level = tail[0]
        rest = 1 - alpha
        for value in tail:
            level = alpha * value + rest * level
        self.ewma_level = level
        if n >= self.config.min_history:
            model = _build_seasonal_model(self.config)
            model.initialize(history[-self.config.min_history:])
            self.seasonal = model
        else:
            self.history = [float(v) for v in history]

    def scaled(self, ratio: float) -> "_ScalarRow":
        clone = _ScalarRow(self.config)
        clone.seen = self.seen
        clone.ewma_level = None if self.ewma_level is None else self.ewma_level * ratio
        clone.history = [v * ratio for v in self.history]
        clone.seasonal = None if self.seasonal is None else self.seasonal.scaled(ratio)
        return clone

    def add_state(self, other: "_ScalarRow") -> None:
        if other.ewma_level is not None:
            if self.ewma_level is None:
                self.ewma_level = other.ewma_level
            else:
                self.ewma_level += other.ewma_level
        self.seen = max(self.seen, other.seen)
        if other.seasonal is not None:
            if self.seasonal is None:
                self.seasonal = other.seasonal.scaled(1.0)
            else:
                self.seasonal.add_state(other.seasonal)
        if other.history:
            if not self.history:
                self.history = list(other.history)
            else:
                length = max(len(self.history), len(other.history))
                mine = [0.0] * (length - len(self.history)) + self.history
                theirs = [0.0] * (length - len(other.history)) + list(other.history)
                self.history = [a + b for a, b in zip(mine, theirs)]
        self._maybe_activate()

    def state_dict(self) -> dict:
        return {
            "ewma_level": self.ewma_level,
            "seen": self.seen,
            "history": list(self.history),
            "seasonal": None if self.seasonal is None else self.seasonal.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        level = state["ewma_level"]
        self.ewma_level = None if level is None else float(level)
        self.seen = int(state["seen"])
        self.history = [float(v) for v in state["history"]]
        self.seasonal = (
            None if state["seasonal"] is None else load_seasonal_state(state["seasonal"])
        )


class ForecasterBank:
    """Forecasting state for many node paths, held columnar.

    Rows are integer handles obtained from :meth:`new_row` and returned to
    the bank with :meth:`free_row` (freed rows are recycled).  All rows share
    one :class:`~repro.core.config.ForecastConfig`.

    The bank runs **vectorized** when NumPy is importable and the config's
    seasonal model is the built-in ``"auto"`` choice; otherwise every row is
    a scalar fallback object with identical behaviour.  ``force_scalar=True``
    pins the fallback explicitly (STA does, below its vector break-even).
    """

    def __init__(self, config: ForecastConfig, *, force_scalar: bool = False):
        self.config = config
        self.vectorized = (
            _np is not None and config.model == "auto" and not force_scalar
        )
        self._free: list[int] = []
        self._size = 0  # high-water row count
        if not self.vectorized:
            self._rows: list[_ScalarRow | None] = []
            return
        lengths = config.season_lengths
        self._single = len(lengths) == 1
        if config.season_weights is None:
            self._weights = tuple(1.0 / len(lengths) for _ in lengths)
        else:
            self._weights = tuple(float(w) for w in config.season_weights)
        self._min_history = config.min_history
        cap = 8
        self._ewma = _np.full(cap, _np.nan)
        self._seen = _np.zeros(cap, dtype=_np.int64)
        self._active = _np.zeros(cap, dtype=bool)
        self._level = _np.zeros(cap)
        self._trend = _np.zeros(cap)
        self._seasonals = [_np.zeros((cap, p)) for p in lengths]
        self._phases = _np.zeros((cap, len(lengths)), dtype=_np.int64)
        self._hist: list[list[float] | None] = [None] * cap
        #: Seasonal model *objects* for rows restored from a snapshot whose
        #: layout does not match this bank's (foreign parameters or kinds);
        #: such rows bypass the vector kernels but behave identically.
        self._obj: dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live (allocated, not freed) rows."""
        return self._size - len(self._free)

    def _grow(self, cap: int) -> None:
        np_ = _np
        old = self._ewma.shape[0]
        if cap <= old:
            return
        self._ewma = np_.concatenate([self._ewma, np_.full(cap - old, np_.nan)])
        self._seen = np_.concatenate([self._seen, np_.zeros(cap - old, dtype=np_.int64)])
        self._active = np_.concatenate([self._active, np_.zeros(cap - old, dtype=bool)])
        self._level = np_.concatenate([self._level, np_.zeros(cap - old)])
        self._trend = np_.concatenate([self._trend, np_.zeros(cap - old)])
        self._seasonals = [
            np_.concatenate([buf, np_.zeros((cap - old, buf.shape[1]))])
            for buf in self._seasonals
        ]
        self._phases = np_.concatenate(
            [self._phases, np_.zeros((cap - old, self._phases.shape[1]), dtype=np_.int64)]
        )
        self._hist.extend([None] * (cap - old))

    def _alloc_row(self) -> int:
        """A recycled or brand-new row id, state NOT reset (internal)."""
        if self._free:
            return self._free.pop()
        row = self._size
        self._size += 1
        if not self.vectorized:
            self._rows.append(None)
        elif row >= self._ewma.shape[0]:
            self._grow(max(8, 2 * self._ewma.shape[0]))
        return row

    def new_row(self) -> int:
        """Allocate a fresh row in the initial (no observations) state."""
        row = self._alloc_row()
        if not self.vectorized:
            self._rows[row] = _ScalarRow(self.config)
            return row
        self._ewma[row] = _np.nan
        self._seen[row] = 0
        self._active[row] = False
        self._level[row] = 0.0
        self._trend[row] = 0.0
        for buf in self._seasonals:
            buf[row, :] = 0.0
        self._phases[row, :] = 0
        self._hist[row] = []
        self._obj.pop(row, None)
        return row

    def free_row(self, row: int) -> None:
        """Return ``row`` to the bank for reuse; its state becomes invalid."""
        if not self.vectorized:
            self._rows[row] = None
        else:
            self._hist[row] = None
            self._obj.pop(row, None)
        self._free.append(row)

    # ------------------------------------------------------------------
    # Observation (scalar and vectorized)
    # ------------------------------------------------------------------
    def forecast(self, row: int) -> float:
        """One-step-ahead forecast for ``row``'s next timeunit."""
        if not self.vectorized:
            return self._rows[row].forecast()
        obj = self._obj.get(row)
        if obj is not None:
            return obj.forecast()
        if self._active[row]:
            return self._forecast_scalar(row)
        ewma = self._ewma[row]
        return 0.0 if _np.isnan(ewma) else float(ewma)

    def _combined_seasonal_scalar(self, row: int) -> float:
        if self._single:
            return float(self._seasonals[0][row, self._phases[row, 0]])
        return sum(
            w * float(buf[row, self._phases[row, k]])
            for k, (w, buf) in enumerate(zip(self._weights, self._seasonals))
        )

    def _forecast_scalar(self, row: int) -> float:
        return (
            float(self._level[row])
            + float(self._trend[row])
            + self._combined_seasonal_scalar(row)
        )

    def observe(self, row: int, value: float) -> float:
        """Fold in ``row``'s next actual value; returns the forecast made for it.

        Scalar counterpart of :meth:`observe_rows` — the arithmetic is the
        same expression evaluated on Python floats, so the two are
        bit-for-bit interchangeable (property-tested).
        """
        if not self.vectorized:
            return self._rows[row].observe(value)
        value = float(value)
        predicted = self.forecast(row)
        alpha = self.config.fallback_alpha
        ewma = self._ewma[row]
        if _np.isnan(ewma):
            self._ewma[row] = value
        else:
            self._ewma[row] = alpha * value + (1 - alpha) * float(ewma)
        obj = self._obj.get(row)
        if obj is not None:
            obj.update(value)
        elif self._active[row]:
            self._update_seasonal_scalar(row, value)
        else:
            hist = self._hist[row]
            hist.append(value)
            if len(hist) >= self._min_history:
                self._activate(row)
        self._seen[row] += 1
        return predicted

    def _update_seasonal_scalar(self, row: int, value: float) -> None:
        alpha, beta, gamma = self.config.alpha, self.config.beta, self.config.gamma
        level = float(self._level[row])
        trend = float(self._trend[row])
        seasonal = self._combined_seasonal_scalar(row)
        new_level = alpha * (value - seasonal) + (1 - alpha) * (level + trend)
        self._level[row] = new_level
        self._trend[row] = beta * (new_level - level) + (1 - beta) * trend
        for k, (buf, p) in enumerate(zip(self._seasonals, self.config.season_lengths)):
            phase = int(self._phases[row, k])
            buf[row, phase] = gamma * (value - new_level) + (1 - gamma) * float(
                buf[row, phase]
            )
            self._phases[row, k] = (phase + 1) % p

    def observe_rows(self, rows: Sequence[int], values: Sequence[float]) -> list[float]:
        """Vectorized :meth:`observe` over distinct ``rows``; returns forecasts.

        This is the per-timeunit hot path: one call updates the EWMA levels,
        Holt-Winters components and warm-up histories of every tracked node.
        ``rows`` must not contain duplicates (each tracked node appears once
        per timeunit).
        """
        if not self.vectorized or len(rows) < OBSERVE_VECTOR_MIN_ROWS:
            return [self.observe(row, value) for row, value in zip(rows, values)]
        if self._obj:
            # Object-overflow rows (foreign-layout restores) update scalar;
            # the rest of the batch keeps the vector kernels so one foreign
            # row does not de-vectorize the whole bank.
            obj_positions = [
                pos for pos, row in enumerate(rows) if row in self._obj
            ]
            if obj_positions:
                obj_set = set(obj_positions)
                vec_positions = [
                    pos for pos in range(len(rows)) if pos not in obj_set
                ]
                forecasts = [0.0] * len(rows)
                for pos in obj_positions:
                    forecasts[pos] = self.observe(rows[pos], values[pos])
                vec_forecasts = self.observe_rows(
                    [rows[pos] for pos in vec_positions],
                    [values[pos] for pos in vec_positions],
                )
                for pos, forecast in zip(vec_positions, vec_forecasts):
                    forecasts[pos] = forecast
                return forecasts
        np_ = _np
        idx = np_.asarray(rows, dtype=np_.intp)
        v = np_.asarray(values, dtype=np_.float64)
        return self._observe_vector(idx, v).tolist()

    def observe_rows_arrays(self, idx, v):
        """Array-native :meth:`observe_rows`: ndarrays in, float64 ndarray out.

        ADA's vector-tier close already holds its row indices and values as
        arrays; this entry point skips the list round-trips.  Semantics are
        identical — small batches and object-overflow rows take the exact
        scalar/list path of :meth:`observe_rows`.
        """
        np_ = _np
        if not self.vectorized or idx.size < OBSERVE_VECTOR_MIN_ROWS or self._obj:
            forecasts = self.observe_rows(idx.tolist(), v.tolist())
            return np_.asarray(forecasts, dtype=np_.float64)
        return self._observe_vector(idx, v)

    def _observe_vector(self, idx, v):
        """Shared vector kernel behind :meth:`observe_rows` (no ``_obj`` rows)."""
        np_ = _np
        ewma = self._ewma[idx]
        active = self._active[idx]
        fallback_alpha = self.config.fallback_alpha
        alpha, beta, gamma = self.config.alpha, self.config.beta, self.config.gamma
        if active.all() and not np_.isnan(ewma).any():
            # Steady state (every row warm): no masks, no history bookkeeping.
            kernels = load_kernels() if self._single else None
            if kernels is not None:
                # Compiled tier: same arithmetic, same operation order (see
                # _implmodule.c); rows are unique so in-place per-row updates
                # match the gather/scatter NumPy expressions bit for bit.
                out = np_.empty(idx.size, dtype=np_.float64)
                idx_c = np_.ascontiguousarray(idx, dtype=np_.intp)
                v_c = np_.ascontiguousarray(v, dtype=np_.float64)
                kernels.observe_steady(
                    idx_c,
                    v_c,
                    self._level,
                    self._trend,
                    self._seasonals[0],
                    self._phases,
                    self._phases.shape[1],
                    self._ewma,
                    self._seen,
                    alpha,
                    beta,
                    gamma,
                    fallback_alpha,
                    self.config.season_lengths[0],
                    out,
                )
                return out
            level = self._level[idx]
            trend = self._trend[idx]
            if self._single:
                phase0 = self._phases[idx, 0]
                seasonal = self._seasonals[0][idx, phase0]
            else:
                seasonal = np_.zeros(idx.size)
                for k, (w, buf) in enumerate(zip(self._weights, self._seasonals)):
                    seasonal = seasonal + w * buf[idx, self._phases[idx, k]]
            forecasts = level + trend + seasonal
            self._ewma[idx] = fallback_alpha * v + (1 - fallback_alpha) * ewma
            self._seen[idx] += 1
            new_level = alpha * (v - seasonal) + (1 - alpha) * (level + trend)
            self._level[idx] = new_level
            self._trend[idx] = beta * (new_level - level) + (1 - beta) * trend
            for k, (buf, p) in enumerate(
                zip(self._seasonals, self.config.season_lengths)
            ):
                phase = self._phases[idx, k]
                buf[idx, phase] = gamma * (v - new_level) + (1 - gamma) * buf[
                    idx, phase
                ]
                self._phases[idx, k] = (phase + 1) % p
            return forecasts
        has_ewma = ~np_.isnan(ewma)
        forecasts = np_.where(has_ewma, ewma, 0.0)
        active_pos = np_.flatnonzero(active)
        if active_pos.size:
            a_idx = idx[active_pos]
            level = self._level[a_idx]
            trend = self._trend[a_idx]
            if self._single:
                phase0 = self._phases[a_idx, 0]
                seasonal = self._seasonals[0][a_idx, phase0]
            else:
                seasonal = np_.zeros(a_idx.size)
                for k, (w, buf) in enumerate(zip(self._weights, self._seasonals)):
                    seasonal = seasonal + w * buf[a_idx, self._phases[a_idx, k]]
            forecasts[active_pos] = level + trend + seasonal
        self._ewma[idx] = np_.where(
            has_ewma, fallback_alpha * v + (1 - fallback_alpha) * ewma, v
        )
        self._seen[idx] += 1
        if active_pos.size:
            va = v[active_pos]
            new_level = alpha * (va - seasonal) + (1 - alpha) * (level + trend)
            self._level[a_idx] = new_level
            self._trend[a_idx] = beta * (new_level - level) + (1 - beta) * trend
            for k, (buf, p) in enumerate(
                zip(self._seasonals, self.config.season_lengths)
            ):
                phase = self._phases[a_idx, k]
                buf[a_idx, phase] = gamma * (va - new_level) + (1 - gamma) * buf[
                    a_idx, phase
                ]
                self._phases[a_idx, k] = (phase + 1) % p
        inactive_pos = np_.flatnonzero(~active)
        for pos in inactive_pos.tolist():
            row = int(idx[pos])
            hist = self._hist[row]
            hist.append(float(v[pos]))
            if len(hist) >= self._min_history:
                self._activate(row)
        return forecasts

    def _activate(self, row: int) -> None:
        """Initialize the seasonal components from ``row``'s warm-up history."""
        model = _build_seasonal_model(self.config)
        model.initialize(self._hist[row])
        self._adopt_model(row, model)
        self._hist[row] = []

    def _adopt_model(self, row: int, model: Any) -> None:
        """Copy a built-in seasonal model's state into the row's arrays."""
        self._active[row] = True
        self._level[row] = model.level
        self._trend[row] = model.trend
        if self._single:
            self._seasonals[0][row, :] = model.seasonals
            self._phases[row, 0] = model._phase
        else:
            for k, buf in enumerate(model.seasonals):
                self._seasonals[k][row, :] = buf
            self._phases[row, :] = model._phases

    # ------------------------------------------------------------------
    # Warm-start
    # ------------------------------------------------------------------
    def seed_history(self, row: int, history: Sequence[float]) -> None:
        """Replay a full history series into a fresh row (oldest first)."""
        for value in history:
            self.observe(row, value)

    def seed_fast(self, row: int, history: Sequence[float]) -> None:
        """Warm-start a *fresh* row from ``history`` without replaying it.

        The seasonal state initializes from the last ``min_history`` values
        and the EWMA fallback from a smoothing of the recent tail — the
        reference-series correction path (O(seasonal period) instead of
        O(window) updates).
        """
        if not self.vectorized:
            self._rows[row].seed_fast(history)
            return
        n = len(history)
        self._seen[row] = n
        if not n:
            return
        alpha = self.config.fallback_alpha
        if (
            self._single
            and n >= self._min_history
            and isinstance(history, _np.ndarray)
            and history.dtype == _np.float64
            and history.flags.c_contiguous
        ):
            p = self.config.season_lengths[0]
            if self._min_history >= 2 * p:
                kernels = load_kernels()
                if kernels is not None:
                    # Compiled tier: the EWMA tail fold and the sequential
                    # cumsum window sums below, same operation order (see
                    # _implmodule.c), straight off the history array.
                    kernels.seed_steady(
                        history,
                        row,
                        alpha,
                        p,
                        self._ewma,
                        self._level,
                        self._trend,
                        self._seasonals[0],
                        self._phases,
                        self._phases.shape[1],
                        self._active,
                    )
                    return
        # Lazy tail-only float conversion (see _ScalarRow.seed_fast): the
        # whole-series conversion of the historical code is skipped because
        # only the EWMA tail, the seasonal window and (short histories) the
        # warm-up list are ever read — values are bit-identical.
        tail_src = history[-min(n, 64):]
        if isinstance(tail_src, list):
            tail = [float(v) for v in tail_src]
        else:
            tail = _np.asarray(tail_src, dtype=_np.float64).tolist()
        level = tail[0]
        rest = 1 - alpha
        for value in tail:
            level = alpha * value + rest * level
        self._ewma[row] = level
        if n >= self._min_history:
            if self._single:
                # Built-in single-season Holt-Winters (the only model a
                # vectorized bank can hold): initialize straight into the
                # row's arrays — the same ``_left_fold_sum`` cumsum
                # arithmetic as HoltWintersForecaster.initialize, minus the
                # model object and its list round trips.
                p = self.config.season_lengths[0]
                window_src = history[-self._min_history:]
                if len(window_src) >= 2 * p:
                    window = _np.asarray(window_src[-2 * p :], dtype=_np.float64)
                    hw_level = float(_np.cumsum(window)[-1]) / (2 * p)
                    first = float(_np.cumsum(window[:p])[-1])
                    second = float(_np.cumsum(window[p:])[-1])
                    self._active[row] = True
                    self._level[row] = hw_level
                    self._trend[row] = (second - first) / (p * p)
                    self._seasonals[0][row, :] = window[p:] - hw_level
                    self._phases[row, 0] = 0
                    return
            model = _build_seasonal_model(self.config)
            model.initialize(history[-self._min_history:])
            self._adopt_model(row, model)
        elif isinstance(history, list):
            self._hist[row] = [float(v) for v in history]
        else:
            self._hist[row] = _np.asarray(history, dtype=_np.float64).tolist()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_seasonal(self, row: int) -> bool:
        if not self.vectorized:
            return self._rows[row].seasonal is not None
        return bool(self._active[row]) or row in self._obj

    def observations(self, row: int) -> int:
        if not self.vectorized:
            return self._rows[row].seen
        return int(self._seen[row])

    # ------------------------------------------------------------------
    # Linearity operations (SPLIT / MERGE, Lemma 2)
    # ------------------------------------------------------------------
    def clone_row(self, row: int, ratio: float) -> int:
        """A new row holding the state of ``ratio *`` the row's series."""
        if not self.vectorized:
            dst = self._alloc_row()
            self._rows[dst] = self._rows[row].scaled(ratio)
            return dst
        # The allocation is not reset: every field a reader can observe is
        # written below (seasonal components only become readable once
        # ``_active`` is set, and activation overwrites them wholesale).
        dst = self._alloc_row()
        self._obj.pop(dst, None)
        self._seen[dst] = self._seen[row]
        ewma = self._ewma[row]
        self._ewma[dst] = _np.nan if _np.isnan(ewma) else float(ewma) * ratio
        hist = self._hist[row]
        self._hist[dst] = [v * ratio for v in hist] if hist else []
        obj = self._obj.get(row)
        self._active[dst] = False
        if obj is not None:
            self._obj[dst] = obj.scaled(ratio)
        elif self._active[row]:
            self._active[dst] = True
            self._level[dst] = float(self._level[row]) * ratio
            self._trend[dst] = float(self._trend[row]) * ratio
            for buf in self._seasonals:
                buf[dst, :] = buf[row, :] * ratio
            self._phases[dst, :] = self._phases[row, :]
        return dst

    def add_state(self, row: int, other_bank: "ForecasterBank", other_row: int) -> None:
        """Fold another row's state into ``row`` (series addition).

        The source row may live in this bank or another one (standalone
        series merge across banks), vectorized or fallback.
        """
        if not self.vectorized and not other_bank.vectorized:
            self._rows[row].add_state(other_bank._rows[other_row])
            return
        snapshot = other_bank.row_state_dict(other_row)
        if not self.vectorized:
            other = _ScalarRow(self.config)
            other.load_state_dict(snapshot)
            self._rows[row].add_state(other)
            return
        self._fold_snapshot(row, snapshot)

    def _fold_snapshot(self, row: int, snapshot: dict) -> None:
        """Vector-mode :meth:`add_state` against a canonical row snapshot."""
        other_ewma = snapshot["ewma_level"]
        if other_ewma is not None:
            ewma = self._ewma[row]
            if _np.isnan(ewma):
                self._ewma[row] = float(other_ewma)
            else:
                self._ewma[row] = float(ewma) + float(other_ewma)
        self._seen[row] = max(int(self._seen[row]), int(snapshot["seen"]))
        seasonal = snapshot["seasonal"]
        if seasonal is not None:
            self._fold_seasonal(row, seasonal)
        other_hist = snapshot["history"]
        if other_hist:
            mine = self._hist[row]
            theirs = [float(v) for v in other_hist]
            if not mine:
                self._hist[row] = theirs
            else:
                length = max(len(mine), len(theirs))
                padded_mine = [0.0] * (length - len(mine)) + mine
                padded_theirs = [0.0] * (length - len(theirs)) + theirs
                self._hist[row] = [a + b for a, b in zip(padded_mine, padded_theirs)]
        if (
            not self._active[row]
            and row not in self._obj
            and len(self._hist[row]) >= self._min_history
        ):
            self._activate(row)

    def _matches_layout(self, seasonal: dict) -> bool:
        """Whether a seasonal snapshot fits this bank's vector layout exactly."""
        config = self.config
        kind = seasonal.get("kind")
        if self._single:
            return (
                kind == "holt-winters"
                and int(seasonal["season_length"]) == config.season_lengths[0]
                and float(seasonal["alpha"]) == config.alpha
                and float(seasonal["beta"]) == config.beta
                and float(seasonal["gamma"]) == config.gamma
            )
        return (
            kind == "multi-seasonal-holt-winters"
            and tuple(int(p) for p in seasonal["season_lengths"])
            == config.season_lengths
            and tuple(float(w) for w in seasonal["season_weights"]) == self._weights
            and float(seasonal["alpha"]) == config.alpha
            and float(seasonal["beta"]) == config.beta
            and float(seasonal["gamma"]) == config.gamma
        )

    def _fold_seasonal(self, row: int, seasonal: dict) -> None:
        if seasonal.get("level") is None:
            return  # an uninitialized model adds nothing (scalar parity)
        obj = self._obj.get(row)
        if obj is not None:
            obj.add_state(load_seasonal_state(seasonal))
            return
        if not self._matches_layout(seasonal):
            if self._active[row]:
                raise ConfigurationError(
                    "cannot combine forecaster states with different seasonal "
                    "parameters"
                )
            self._obj[row] = load_seasonal_state(seasonal).scaled(1.0)
            return
        np_ = _np
        if not self._active[row]:
            self._active[row] = True
            self._level[row] = float(seasonal["level"])
            self._trend[row] = float(seasonal["trend"])
            if self._single:
                self._seasonals[0][row, :] = seasonal["seasonals"]
                self._phases[row, 0] = int(seasonal["phase"])
            else:
                for k, buf in enumerate(seasonal["seasonals"]):
                    self._seasonals[k][row, :] = buf
                self._phases[row, :] = [int(p) for p in seasonal["phases"]]
            return
        self._level[row] = float(self._level[row]) + float(seasonal["level"])
        self._trend[row] = float(self._trend[row]) + float(seasonal["trend"])
        if self._single:
            buffers = [seasonal["seasonals"]]
            phases = [int(seasonal["phase"])]
        else:
            buffers = seasonal["seasonals"]
            phases = [int(p) for p in seasonal["phases"]]
        for k, (buf, other_phase) in enumerate(zip(buffers, phases)):
            p = self.config.season_lengths[k]
            shift = (other_phase - int(self._phases[row, k])) % p
            aligned = np_.roll(np_.asarray(buf, dtype=np_.float64), -shift)
            self._seasonals[k][row, :] = self._seasonals[k][row, :] + aligned

    def split_row(self, row: int, ratio: float) -> int:
        """SPLIT ``row`` in place: a new row takes ``ratio`` of its state and
        ``row`` keeps the complementary ``1 - ratio`` share.

        Arithmetic is exactly ``clone_row(row, ratio)`` followed by replacing
        ``row`` with ``clone_row(row, 1 - ratio)`` — the historical two-clone
        sequence of ADA's split cascade — without the extra allocation and
        copy, so results are bit-for-bit identical.
        """
        if not self.vectorized:
            dst = self._alloc_row()
            source = self._rows[row]
            self._rows[dst] = source.scaled(ratio)
            self._rows[row] = source.scaled(1.0 - ratio)
            return dst
        dst = self._alloc_row()
        self._obj.pop(dst, None)
        if self._single and row not in self._obj:
            kernels = load_kernels()
            if kernels is not None:
                # Compiled tier: the array side of the split in one call
                # (same arithmetic, see _implmodule.c); warm-up history
                # lists are scaled here either way.
                hist = self._hist[row]
                if hist:
                    krest = 1.0 - ratio
                    self._hist[dst] = [v * ratio for v in hist]
                    self._hist[row] = [v * krest for v in hist]
                else:
                    self._hist[dst] = []
                kernels.split_row_state(
                    row,
                    dst,
                    ratio,
                    self._ewma,
                    self._seen,
                    self._active,
                    self._level,
                    self._trend,
                    self._seasonals[0],
                    self._phases,
                    self._phases.shape[1],
                )
                return dst
        seen = self._seen
        ewma_col = self._ewma
        seen[dst] = seen[row]
        ewma = float(ewma_col[row])
        rest = 1.0 - ratio
        if ewma != ewma:  # nan: no observations yet
            ewma_col[dst] = _np.nan
        else:
            ewma_col[dst] = ewma * ratio
            ewma_col[row] = ewma * rest
        hist = self._hist[row]
        if hist:
            self._hist[dst] = [v * ratio for v in hist]
            self._hist[row] = [v * rest for v in hist]
        else:
            self._hist[dst] = []
        obj = self._obj.get(row)
        active = self._active
        active[dst] = False
        if obj is not None:
            self._obj[dst] = obj.scaled(ratio)
            self._obj[row] = obj.scaled(rest)
        elif active[row]:
            active[dst] = True
            level_col = self._level
            trend_col = self._trend
            level = float(level_col[row])
            trend = float(trend_col[row])
            level_col[dst] = level * ratio
            level_col[row] = level * rest
            trend_col[dst] = trend * ratio
            trend_col[row] = trend * rest
            for buf in self._seasonals:
                src_row = buf[row, :]
                buf[dst, :] = src_row * ratio
                buf[row, :] = src_row * rest
            self._phases[dst, :] = self._phases[row, :]
        return dst

    def split_rows_many(
        self, rows: Sequence[int], ratios: Sequence[float]
    ) -> list[int]:
        """Batched :meth:`split_row` over *distinct* donor ``rows``.

        Returns the new rows (one per donor, each holding its ``ratio``
        share) with the donors scaled in place to the complementary shares.
        Donors must be unique within one call; rows with warm-up history or
        object-overflow state fall back to the scalar :meth:`split_row`
        (identical values, per-row speed).
        """
        if not self.vectorized or len(rows) < 2:
            return [self.split_row(row, ratio) for row, ratio in zip(rows, ratios)]
        dsts: list[int] = [-1] * len(rows)
        vec_pos: list[int] = []
        for pos, row in enumerate(rows):
            if self._hist[row] or row in self._obj:
                dsts[pos] = self.split_row(row, ratios[pos])
            else:
                vec_pos.append(pos)
        if not vec_pos:
            return dsts
        if len(vec_pos) < 4 or (self._single and load_kernels() is not None):
            # Below the gather/scatter crossover the per-row op is faster —
            # and on the compiled tier the split kernel wins at any size.
            # Canonical row states are identical either way (the batched
            # route differs only in unreadable stale-slot writes).
            for pos in vec_pos:
                dsts[pos] = self.split_row(rows[pos], ratios[pos])
            return dsts
        np_ = _np
        for pos in vec_pos:
            dst = self._alloc_row()
            self._obj.pop(dst, None)
            self._hist[dst] = []
            dsts[pos] = dst
        src_idx = np_.array([rows[pos] for pos in vec_pos], dtype=np_.intp)
        dst_idx = np_.array([dsts[pos] for pos in vec_pos], dtype=np_.intp)
        r = np_.array([ratios[pos] for pos in vec_pos], dtype=np_.float64)
        r_rest = 1.0 - r
        self._seen[dst_idx] = self._seen[src_idx]
        ewma = self._ewma[src_idx]
        # nan (no observations) propagates through the multiply, matching the
        # explicit nan branch of the scalar op.
        self._ewma[dst_idx] = ewma * r
        self._ewma[src_idx] = np_.where(np_.isnan(ewma), ewma, ewma * r_rest)
        active = self._active[src_idx]
        self._active[dst_idx] = active
        # Inactive donors carry stale values in the seasonal arrays; scaling
        # them is harmless (they are unreadable until activation overwrites
        # them) and keeps the kernel mask-free.
        level = self._level[src_idx]
        trend = self._trend[src_idx]
        self._level[dst_idx] = level * r
        self._level[src_idx] = level * r_rest
        self._trend[dst_idx] = trend * r
        self._trend[src_idx] = trend * r_rest
        rc = r[:, None]
        rc_rest = r_rest[:, None]
        for buf in self._seasonals:
            block = buf[src_idx, :]
            buf[dst_idx, :] = block * rc
            buf[src_idx, :] = block * rc_rest
        self._phases[dst_idx, :] = self._phases[src_idx, :]
        return dsts

    def _fold_direct(self, dst: int, src: int) -> None:
        """Scalar same-bank fold of ``src`` into ``dst`` (vector layout only).

        Exactly the arithmetic of :meth:`_fold_snapshot` against ``src``'s
        canonical snapshot, evaluated straight off the arrays (warm-up
        histories included) — callers guarantee neither row has
        object-overflow state.
        """
        if self._single and not self._hist[src]:
            kernels = load_kernels()
            if kernels is not None:
                # Compiled tier: EWMA sum, seen max and the phase-aligned
                # component fold (same arithmetic, see _implmodule.c); the
                # source carries no warm-up history, so only the activation
                # check on the destination remains.
                kernels.fold_row_steady(
                    dst,
                    src,
                    self.config.season_lengths[0],
                    self._ewma,
                    self._seen,
                    self._active,
                    self._level,
                    self._trend,
                    self._seasonals[0],
                    self._phases,
                    self._phases.shape[1],
                )
                if (
                    not self._active[dst]
                    and dst not in self._obj
                    and len(self._hist[dst]) >= self._min_history
                ):
                    self._activate(dst)
                return
        np_ = _np
        s_ewma = self._ewma[src]
        if not np_.isnan(s_ewma):
            d_ewma = self._ewma[dst]
            if np_.isnan(d_ewma):
                self._ewma[dst] = float(s_ewma)
            else:
                self._ewma[dst] = float(d_ewma) + float(s_ewma)
        if self._seen[src] > self._seen[dst]:
            self._seen[dst] = self._seen[src]
        if self._active[src]:
            if not self._active[dst]:
                self._active[dst] = True
                self._level[dst] = self._level[src]
                self._trend[dst] = self._trend[src]
                for buf in self._seasonals:
                    buf[dst, :] = buf[src, :]
                self._phases[dst, :] = self._phases[src, :]
            else:
                self._level[dst] = float(self._level[dst]) + float(self._level[src])
                self._trend[dst] = float(self._trend[dst]) + float(self._trend[src])
                for k, (buf, p) in enumerate(
                    zip(self._seasonals, self.config.season_lengths)
                ):
                    shift = (int(self._phases[src, k]) - int(self._phases[dst, k])) % p
                    if shift == 0:
                        buf[dst, :] += buf[src, :]
                    else:
                        # roll(src, -shift)[j] == src[(j + shift) % p], added
                        # as two contiguous slices (same element-wise sums).
                        split_at = p - shift
                        buf[dst, :split_at] += buf[src, shift:]
                        buf[dst, split_at:] += buf[src, :shift]
        theirs = self._hist[src]
        if theirs:
            mine = self._hist[dst]
            if not mine:
                self._hist[dst] = list(theirs)
            else:
                length = max(len(mine), len(theirs))
                padded_mine = [0.0] * (length - len(mine)) + mine
                padded_theirs = [0.0] * (length - len(theirs)) + list(theirs)
                self._hist[dst] = [
                    a + b for a, b in zip(padded_mine, padded_theirs)
                ]
        if (
            not self._active[dst]
            and dst not in self._obj
            and len(self._hist[dst]) >= self._min_history
        ):
            self._activate(dst)

    def fold_row(self, dst: int, src: int) -> None:
        """Fold ``src`` into ``dst`` and free ``src`` (one MERGE pair).

        The single-pair form of :meth:`merge_rows_many`: ADA's apply loop
        uses it inline because real cascades rarely accumulate enough
        same-phase folds to amortize the batched gather/scatter kernels.
        """
        if not self.vectorized or src in self._obj or dst in self._obj:
            self.add_state(dst, self, src)
        else:
            self._fold_direct(dst, src)
        self.free_row(src)

    def merge_rows_many(
        self, dst_rows: Sequence[int], src_rows: Sequence[int]
    ) -> None:
        """Batched MERGE: fold each ``src`` row into its ``dst`` row and free
        the sources.

        ``dst_rows`` must be unique within one call (the caller batches folds
        so that no destination repeats — repeated destinations must be folded
        in cascade order across calls).  Pairs whose source carries warm-up
        history or object-overflow state fall back to the scalar
        :meth:`add_state`; values are bit-identical either way.
        """
        if not self.vectorized:
            for dst, src in zip(dst_rows, src_rows):
                self.add_state(dst, self, src)
                self.free_row(src)
            return
        vec_pos: list[int] = []
        for pos, (dst, src) in enumerate(zip(dst_rows, src_rows)):
            if src in self._obj or dst in self._obj:
                self.add_state(dst, self, src)
                self.free_row(src)
            elif self._hist[src]:
                # Warm-up histories are Python lists either way; the direct
                # fold handles them without the snapshot round trip.
                self._fold_direct(dst, src)
                self.free_row(src)
            else:
                vec_pos.append(pos)
        if not vec_pos:
            return
        if len(vec_pos) < 4 or (self._single and load_kernels() is not None):
            # Below the gather/scatter crossover — or on the compiled tier,
            # where the per-pair fold kernel beats the batched fancy
            # indexing at any size: fold the pairs directly on scalar reads
            # (no canonical-snapshot round trip), same values.
            for pos in vec_pos:
                self._fold_direct(dst_rows[pos], src_rows[pos])
                self.free_row(src_rows[pos])
            return
        np_ = _np
        dst_idx = np_.array([dst_rows[pos] for pos in vec_pos], dtype=np_.intp)
        src_idx = np_.array([src_rows[pos] for pos in vec_pos], dtype=np_.intp)
        d_ewma = self._ewma[dst_idx]
        s_ewma = self._ewma[src_idx]
        self._ewma[dst_idx] = np_.where(
            np_.isnan(s_ewma),
            d_ewma,
            np_.where(np_.isnan(d_ewma), s_ewma, d_ewma + s_ewma),
        )
        self._seen[dst_idx] = np_.maximum(self._seen[dst_idx], self._seen[src_idx])
        s_active = self._active[src_idx]
        d_active = self._active[dst_idx]
        adopt = s_active & ~d_active
        if adopt.any():
            a_d = dst_idx[adopt]
            a_s = src_idx[adopt]
            self._level[a_d] = self._level[a_s]
            self._trend[a_d] = self._trend[a_s]
            for buf in self._seasonals:
                buf[a_d, :] = buf[a_s, :]
            self._phases[a_d, :] = self._phases[a_s, :]
            self._active[a_d] = True
        both = s_active & d_active
        if both.any():
            b_d = dst_idx[both]
            b_s = src_idx[both]
            self._level[b_d] = self._level[b_d] + self._level[b_s]
            self._trend[b_d] = self._trend[b_d] + self._trend[b_s]
            for k, (buf, p) in enumerate(
                zip(self._seasonals, self.config.season_lengths)
            ):
                shift = (self._phases[b_s, k] - self._phases[b_d, k]) % p
                cols = (np_.arange(p)[None, :] + shift[:, None]) % p
                aligned = buf[b_s[:, None], cols]
                buf[b_d, :] = buf[b_d, :] + aligned
        for pos in vec_pos:
            self.free_row(src_rows[pos])

    # ------------------------------------------------------------------
    # Canonical (pre-bank) checkpoint format
    # ------------------------------------------------------------------
    def row_state_dict(self, row: int) -> dict:
        """The row's state in the canonical per-path forecaster format."""
        if not self.vectorized:
            return self._rows[row].state_dict()
        obj = self._obj.get(row)
        if obj is not None:
            seasonal = obj.state_dict()
        elif self._active[row]:
            config = self.config
            if self._single:
                seasonal = {
                    "kind": "holt-winters",
                    "alpha": config.alpha,
                    "beta": config.beta,
                    "gamma": config.gamma,
                    "season_length": config.season_lengths[0],
                    "level": float(self._level[row]),
                    "trend": float(self._trend[row]),
                    "seasonals": self._seasonals[0][row, :].tolist(),
                    "phase": int(self._phases[row, 0]),
                }
            else:
                seasonal = {
                    "kind": "multi-seasonal-holt-winters",
                    "alpha": config.alpha,
                    "beta": config.beta,
                    "gamma": config.gamma,
                    "season_lengths": list(config.season_lengths),
                    "season_weights": list(self._weights),
                    "level": float(self._level[row]),
                    "trend": float(self._trend[row]),
                    "seasonals": [buf[row, :].tolist() for buf in self._seasonals],
                    "phases": self._phases[row, :].tolist(),
                }
        else:
            seasonal = None
        ewma = self._ewma[row]
        hist = self._hist[row]
        return {
            "ewma_level": None if _np.isnan(ewma) else float(ewma),
            "seen": int(self._seen[row]),
            "history": list(hist) if hist else [],
            "seasonal": seasonal,
        }

    def load_row_state(self, row: int, state: dict) -> None:
        """Restore a *fresh* row from :meth:`row_state_dict` output."""
        if not self.vectorized:
            self._rows[row].load_state_dict(state)
            return
        level = state["ewma_level"]
        if level is not None:
            self._ewma[row] = float(level)
        self._seen[row] = int(state["seen"])
        self._hist[row] = [float(v) for v in state["history"]]
        seasonal = state["seasonal"]
        if seasonal is None:
            return
        if not self._matches_layout(seasonal):
            self._obj[row] = load_seasonal_state(seasonal)
            return
        if seasonal["level"] is None:
            # A stored-but-uninitialized model cannot arise from this bank's
            # own snapshots; hold it as an object to preserve it faithfully.
            self._obj[row] = load_seasonal_state(seasonal)
            return
        model = load_seasonal_state(seasonal)
        self._adopt_model(row, model)


__all__ = [
    "ForecasterBank",
    "HAS_VECTOR_BACKEND",
    "OBSERVE_VECTOR_MIN_ROWS",
    "VECTOR_MIN_ROWS",
    "load_seasonal_state",
]
