"""Row-store forecaster bank: Lemma 2 as the data layout.

Everything Tiresias keeps per heavy hitter is *linear* in the node's series
(the paper's Lemma 2): the EWMA fallback level, the additive Holt-Winters
level / trend / seasonal components, the warm-up history that precedes
seasonal activation, and the actual and forecast windows.  A
:class:`ForecasterBank` therefore stores all of it as **one row of one
C-contiguous float64 matrix**::

    [ewma, level, trend | seasonal buffer(s) | warm-up history | actual ℓ | forecast ℓ]

next to one small integer row (``seen``, window lengths, ``active``, warm-up
length, window cursor, seasonal phase(s)).  Segments are slot-addressed and
hold ``+0.0`` outside their live range, so ADA's adaptation is array
arithmetic on whole rows:

* **SPLIT** (:meth:`~ForecasterBank.split_row`) — one multiply into the new
  row, one in place, one integer-row copy;
* **MERGE** (:meth:`~ForecasterBank.fold_row`) — one add plus integer maxima
  when the two rows are slot-aligned; per segment, with a rotation where
  cursors or seasonal phases differ and a *copy* where the destination holds
  nothing yet (``0.0 + -0.0`` is ``+0.0``: an add would drop the sign of
  the zeros a ratio-0 split leaves);
* **reference correction** (:meth:`~ForecasterBank.reseed`) — windows and
  forecaster state rewritten in place from the corrected series;
* **close** — :meth:`~ForecasterBank.observe_rows_arrays` advances every
  tracked forecaster (the warm-up append is one indexed store) and
  :meth:`~ForecasterBank.record_rows` appends every window with one
  indexed store each.

Every float operation is, element for element, the scalar arithmetic of the
per-object forecaster (:class:`_ScalarRow`), so a row behaves exactly as that
object would; :mod:`repro.testing.reference` builds the test oracle on it.

The built-in Holt-Winters models get matrix rows whatever selects them —
``ForecastConfig.model`` ``"auto"`` or the registry name of a built-in
model.  A plug-in model registered with
:func:`~repro.core.registry.register_forecaster` is opaque to the kernels: each
of its rows holds its forecaster state as a :class:`_ScalarRow` beside the
matrix (``_obj``) for the row's whole life, while its windows stay in the
matrix, so every SPLIT, MERGE, correction and close runs the same row
operations.  A restored snapshot that does not fit the layout (foreign
seasonal parameters) is held the same way until a correction reseeds it.

Checkpoint compatibility: :meth:`row_state_dict` / :meth:`load_row_state`
speak the *canonical per-path forecaster format* that predates the bank
(``{"ewma_level", "seen", "history", "seasonal"}``), so bank-backed sessions
read and write the same checkpoints as sharded sessions;
:meth:`series_state_dict` / :meth:`load_series_state` add the windows.
Window slots are not part of either — only oldest-first contents are.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.config import ForecastConfig
from repro.core.registry import (
    builtin_forecaster_kind,
    create_forecaster,
    forecaster_state_loader,
)
from repro.exceptions import ConfigurationError
from repro.forecasting.holt_winters import (
    HoltWintersForecaster,
    MultiSeasonalHoltWinters,
)

#: Batch-size crossover below which one :meth:`ForecasterBank.observe_rows`
#: call routes through the per-row observe loop (measured ≈ 6 rows: NumPy
#: gather/scatter overhead beats Python floats only from about that many
#: rows).  The two paths are bit-identical.
OBSERVE_BATCH_MIN_ROWS = 6


def _build_seasonal_model(config: ForecastConfig):
    """The seasonal model ``config`` selects (single / multi / registry)."""
    if config.model != "auto":
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
    return forecaster_state_loader(str(state.get("kind")))(state)


class _ScalarRow:
    """One row's forecasting state as plain Python objects.

    The historical per-node forecaster: the bank holds a plug-in model's
    rows (and snapshots that do not fit its layout) as these, and the test
    oracle's series are made of them.
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


#: Columns of the per-row integer matrix.  ``_ACTIVE`` onwards is the row's
#: *alignment*: two rows whose alignment is equal hold every float segment
#: slot for slot, so a MERGE is one whole-row add.
_SEEN, _ALEN, _FLEN, _ACTIVE, _HLEN, _WPOS, _PHASE = range(7)


def _keeps_zeros(ratio: float) -> bool:
    """Whether ``0.0 * ratio`` is ``+0.0``: finite, not NaN, and positive in
    sign (``-0.0 >= 0.0`` holds, so the sign is asked for explicitly)."""
    return 0.0 <= ratio < math.inf and math.copysign(1.0, ratio) > 0.0


def _store_ending_at(segment, end: int, values) -> None:
    """Write ``values`` into the ring ``segment`` so the last lands at slot
    ``end - 1`` (wrapping)."""
    start = end - len(values)
    if start >= 0:
        segment[start:end] = values
    else:
        segment[start:] = values[:-start]
        segment[:end] = values[-start:]


def _rotated_add(dst, src, shift: int) -> None:
    """``dst[j] += src[(j + shift) % n]`` as (at most) two slice adds."""
    if shift == 0:
        dst += src
    else:
        split_at = dst.shape[0] - shift
        dst[:split_at] += src[shift:]
        dst[split_at:] += src[:shift]


class ForecasterBank:
    """The linear state of many node series, one matrix row each.

    Rows are integer handles obtained from :meth:`new_row` and returned to
    the bank with :meth:`free_row` (freed rows are recycled).  All rows share
    one :class:`~repro.core.config.ForecastConfig` and, when the bank was
    given (or later reserved) a ``window`` length, one window length ℓ.

    The layout is that of the built-in model the config selects: ``"auto"``
    is single-season Holt-Winters for one seasonal period and the
    multi-seasonal model otherwise; a registry name of a built-in model
    selects that model.  Any other model is a plug-in, whose rows keep their
    forecaster state in ``_obj`` (see the module docstring).
    """

    def __init__(self, config: ForecastConfig, *, window: int | None = None):
        self.config = config
        self._free: list[int] = []
        self._live = bytearray()  # 1 per allocated, not freed row
        self._size = 0  # high-water row count
        if config.model == "auto":
            single = len(config.season_lengths) == 1
            kind = "holt-winters" if single else "multi-seasonal-holt-winters"
        else:
            kind = builtin_forecaster_kind(config.model)
        #: Whether every row is a ``_ScalarRow`` of a plug-in model.
        self._plugin = kind is None
        self._single = kind == "holt-winters"
        lengths = config.season_lengths[:1] if self._single else config.season_lengths
        #: Seasonal periods of the laid-out model (the named single-season
        #: model uses the first of the config's periods).
        self._lengths = lengths
        if config.season_weights is None:
            self._weights = tuple(1.0 / len(lengths) for _ in lengths)
        else:
            self._weights = tuple(float(w) for w in config.season_weights)
        self._min_history = config.min_history
        #: Float row layout: ``[ewma, level, trend | seasonal buffer(s) |
        #: warm-up history | actual window | forecast window]``.
        offsets = [3]
        for p in lengths:
            offsets.append(offsets[-1] + p)
        self._seasonal_off = tuple(offsets[:-1])
        self._hist_off = offsets[-1]
        self._actual_off = self._hist_off + self._min_history
        self._icols = _PHASE + len(lengths)
        self._state = np.zeros((8, self._actual_off))
        self._ints = np.zeros((8, self._icols), dtype=np.int64)
        self.window: int | None = None
        self._forecast_off = self._width = self._actual_off
        #: Cursor handed to fresh rows.  Window slots are not canonical (only
        #: the oldest-first contents are), so a row created between two
        #: closes starts on the cursor the batch close last wrote: rows that
        #: are then recorded together stay slot-aligned.  A hint — nothing
        #: depends on it but the share of folds that are a single add.
        self._wpos_hint = 0
        #: Whole scalar rows for forecaster state the layout does not hold:
        #: every row of a plug-in model, and snapshots with foreign seasonal
        #: parameters (or a warm-up history that fills the history segment).
        #: Such rows bypass the vector kernels but behave identically; their
        #: windows stay in the matrix.
        self._obj: dict[int, _ScalarRow] = {}
        if window is not None:
            self.reserve_window(window)

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live (allocated, not freed) rows."""
        return self._size - len(self._free)

    def reserve_window(self, length: int) -> None:
        """Give every row an actual and a forecast window of ``length`` slots.

        A bank built without a window (standalone forecasters, STA's refit
        banks) carries none; the first node series attached to it widens the
        matrix.  One bank has one window length.
        """
        if self.window == length:
            return
        if self.window is not None:
            raise ConfigurationError(
                f"the bank holds windows of {self.window} timeunits, "
                f"cannot attach a series of length {length}"
            )
        if length < 1:
            raise ConfigurationError(f"window length must be >= 1, got {length}")
        self.window = length
        self._forecast_off = self._actual_off + length
        self._width = self._forecast_off + length
        self._resize(self._state.shape[0])

    def _resize(self, cap: int) -> None:
        """Reallocate both matrices at ``cap`` rows and the current width.

        Handles and read views hold ``(bank, row)``, never an array, so
        nothing dangles across a reallocation.
        """
        state = np.zeros((cap, self._width))
        old = self._state
        state[: old.shape[0], : old.shape[1]] = old
        self._state = state
        ints = np.zeros((cap, self._icols), dtype=np.int64)
        ints[: self._ints.shape[0]] = self._ints
        self._ints = ints

    def _alloc_row(self) -> int:
        """A recycled or brand-new row id, state NOT reset (internal)."""
        if self._free:
            row = self._free.pop()
            self._live[row] = 1
            return row
        row = self._size
        self._size += 1
        self._live.append(1)
        if row >= self._state.shape[0]:
            self._resize(2 * self._state.shape[0])
        return row

    def new_row(self) -> int:
        """Allocate a fresh row in the initial (no observations) state."""
        row = self._alloc_row()
        self._state[row] = 0.0
        self._state[row, 0] = np.nan
        ints = self._ints[row]
        ints[:] = 0
        ints[_WPOS] = self._wpos_hint
        if self._plugin:
            self._obj[row] = _ScalarRow(self.config)
        return row

    def free_row(self, row: int) -> None:
        """Return ``row`` to the bank for reuse; its state becomes invalid."""
        if not 0 <= row < self._size or not self._live[row]:
            raise ConfigurationError(f"bank row {row} is not live")
        self._live[row] = 0
        if self._obj:
            self._obj.pop(row, None)
        self._free.append(row)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def forecast(self, row: int) -> float:
        """One-step-ahead forecast for ``row``'s next timeunit."""
        obj = self._obj.get(row)
        if obj is not None:
            return obj.forecast()
        state = self._state[row]
        if self._ints[row, _ACTIVE]:
            return (
                float(state[1]) + float(state[2]) + self._combined_seasonal(row)
            )
        ewma = state[0]
        return 0.0 if ewma != ewma else float(ewma)

    def _combined_seasonal(self, row: int) -> float:
        state = self._state[row]
        ints = self._ints[row]
        if self._single:
            return float(state[3 + ints[_PHASE]])
        return sum(
            w * float(state[off + ints[_PHASE + k]])
            for k, (w, off) in enumerate(zip(self._weights, self._seasonal_off))
        )

    def observe(self, row: int, value: float) -> float:
        """Fold in ``row``'s next actual value; returns the forecast made for it.

        Scalar counterpart of :meth:`observe_rows` — the arithmetic is the
        same expression evaluated on Python floats, so the two are
        bit-for-bit interchangeable (property-tested).
        """
        obj = self._obj.get(row)
        if obj is not None:
            return obj.observe(value)
        value = float(value)
        predicted = self.forecast(row)
        state = self._state[row]
        ints = self._ints[row]
        alpha = self.config.fallback_alpha
        ewma = state[0]
        if ewma != ewma:
            state[0] = value
        else:
            state[0] = alpha * value + (1 - alpha) * float(ewma)
        if ints[_ACTIVE]:
            self._update_seasonal_scalar(row, value)
        else:
            hlen = int(ints[_HLEN])
            state[self._hist_off + hlen] = value
            ints[_HLEN] = hlen + 1
            if hlen + 1 >= self._min_history:
                self._activate(row)
        ints[_SEEN] += 1
        return predicted

    def _update_seasonal_scalar(self, row: int, value: float) -> None:
        alpha, beta, gamma = self.config.alpha, self.config.beta, self.config.gamma
        state = self._state[row]
        ints = self._ints[row]
        level = float(state[1])
        trend = float(state[2])
        seasonal = self._combined_seasonal(row)
        new_level = alpha * (value - seasonal) + (1 - alpha) * (level + trend)
        state[1] = new_level
        state[2] = beta * (new_level - level) + (1 - beta) * trend
        for k, (off, p) in enumerate(zip(self._seasonal_off, self._lengths)):
            phase = int(ints[_PHASE + k])
            state[off + phase] = gamma * (value - new_level) + (1 - gamma) * float(
                state[off + phase]
            )
            ints[_PHASE + k] = (phase + 1) % p

    def observe_rows(self, rows: Sequence[int], values: Sequence[float]) -> list[float]:
        """Vectorized :meth:`observe` over distinct ``rows``; returns forecasts.

        This is the per-timeunit hot path: one call updates the EWMA levels,
        Holt-Winters components and warm-up histories of every tracked node.
        ``rows`` must not contain duplicates (each tracked node appears once
        per timeunit).
        """
        if len(rows) < OBSERVE_BATCH_MIN_ROWS or self._plugin:
            return [self.observe(row, value) for row, value in zip(rows, values)]
        if self._obj:
            # Object rows (foreign-layout restores) update scalar;
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
        idx = np.asarray(rows, dtype=np.intp)
        v = np.asarray(values, dtype=np.float64)
        return self._observe_vector(idx, v).tolist()

    def observe_rows_arrays(self, idx, v):
        """Array-native :meth:`observe_rows`: ndarrays in, float64 ndarray out.

        ADA's close already holds its row indices and values as arrays; this
        entry point skips the list round-trips.  Semantics are identical —
        small batches and object rows take the exact scalar/list path of
        :meth:`observe_rows`.
        """
        if idx.size < OBSERVE_BATCH_MIN_ROWS or self._obj:
            forecasts = self.observe_rows(idx.tolist(), v.tolist())
            return np.asarray(forecasts, dtype=np.float64)
        return self._observe_vector(idx, v)

    def _observe_vector(self, idx, v):
        """Shared vector kernel behind :meth:`observe_rows` (no ``_obj`` rows).

        Every gather and scatter is a 1-d take on the flattened matrices at
        ``row * width + column``.
        """
        flat = self._state.reshape(-1)
        iflat = self._ints.reshape(-1)
        base = idx * self._width
        ibase = idx * self._icols
        ewma = flat[base]
        active = iflat[ibase + _ACTIVE]
        fallback_alpha = self.config.fallback_alpha
        if active.all() and not np.isnan(ewma).any():
            # Steady state (every row warm): no masks, no history bookkeeping.
            level, trend, seasonal = self._components(flat, iflat, base, ibase)
            flat[base] = fallback_alpha * v + (1 - fallback_alpha) * ewma
            iflat[ibase + _SEEN] += 1
            self._update_components(flat, iflat, base, ibase, v, level, trend, seasonal)
            return level + trend + seasonal
        has_ewma = ~np.isnan(ewma)
        forecasts = np.where(has_ewma, ewma, 0.0)
        active_pos = np.flatnonzero(active)
        if active_pos.size:
            a_base = base[active_pos]
            a_ibase = ibase[active_pos]
            level, trend, seasonal = self._components(flat, iflat, a_base, a_ibase)
            forecasts[active_pos] = level + trend + seasonal
            self._update_components(
                flat, iflat, a_base, a_ibase, v[active_pos], level, trend, seasonal
            )
        flat[base] = np.where(
            has_ewma, fallback_alpha * v + (1 - fallback_alpha) * ewma, v
        )
        iflat[ibase + _SEEN] += 1
        inactive_pos = np.flatnonzero(active == 0)
        if inactive_pos.size:
            # Warm-up append: one indexed store for every row still warming.
            hlen_at = ibase[inactive_pos] + _HLEN
            hlen = iflat[hlen_at]
            flat[base[inactive_pos] + (self._hist_off + hlen)] = v[inactive_pos]
            hlen += 1
            iflat[hlen_at] = hlen
            for pos in inactive_pos[hlen >= self._min_history].tolist():
                self._activate(int(idx[pos]))
        return forecasts

    def _components(self, flat, iflat, base, ibase):
        """``(level, trend, combined seasonal)`` of the active rows at
        ``base`` / ``ibase`` (flat offsets of their float / integer rows)."""
        if self._single:
            seasonal = flat[base + (3 + iflat[ibase + _PHASE])]
        else:
            seasonal = np.zeros(base.size)
            for k, (w, off) in enumerate(zip(self._weights, self._seasonal_off)):
                seasonal = seasonal + w * flat[base + (off + iflat[ibase + (_PHASE + k)])]
        return flat[base + 1], flat[base + 2], seasonal

    def _update_components(self, flat, iflat, base, ibase, v, level, trend, seasonal):
        """The Holt-Winters update of those rows with the values ``v``."""
        alpha, beta, gamma = self.config.alpha, self.config.beta, self.config.gamma
        new_level = alpha * (v - seasonal) + (1 - alpha) * (level + trend)
        flat[base + 1] = new_level
        flat[base + 2] = beta * (new_level - level) + (1 - beta) * trend
        for k, (off, p) in enumerate(zip(self._seasonal_off, self._lengths)):
            phase_at = ibase + (_PHASE + k)
            phase = iflat[phase_at]
            slot = base + (off + phase)
            flat[slot] = gamma * (v - new_level) + (1 - gamma) * flat[slot]
            iflat[phase_at] = (phase + 1) % p

    def _activate(self, row: int) -> None:
        """Initialize the seasonal components from ``row``'s warm-up history."""
        state = self._state[row]
        hist_off = self._hist_off
        hlen = int(self._ints[row, _HLEN])
        model = _build_seasonal_model(self.config)
        model.initialize(state[hist_off : hist_off + hlen])
        self._adopt_model(row, model)
        state[hist_off : hist_off + hlen] = 0.0
        self._ints[row, _HLEN] = 0

    def _adopt_model(self, row: int, model: Any) -> None:
        """Copy a built-in seasonal model's state into the row."""
        state = self._state[row]
        ints = self._ints[row]
        ints[_ACTIVE] = 1
        state[1] = model.level
        state[2] = model.trend
        if self._single:
            state[3 : self._hist_off] = model.seasonals
            ints[_PHASE] = model._phase
        else:
            for off, buf in zip(self._seasonal_off, model.seasonals):
                state[off : off + len(buf)] = buf
            ints[_PHASE:] = model._phases

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def record(self, row: int, value: float, predicted: float) -> None:
        """Append one ``(actual, forecast)`` pair to ``row``'s windows."""
        state = self._state[row]
        ints = self._ints[row]
        length = self.window
        pos = int(ints[_WPOS])
        state[self._actual_off + pos] = value
        state[self._forecast_off + pos] = predicted
        ints[_WPOS] = 0 if pos + 1 == length else pos + 1
        np.minimum(ints[_ALEN : _FLEN + 1] + 1, length, out=ints[_ALEN : _FLEN + 1])

    def record_rows(self, idx, values, forecasts) -> None:
        """:meth:`record` for every row of one close: one indexed store per
        window, one cursor update."""
        if not idx.size:
            return
        flat = self._state.reshape(-1)
        iflat = self._ints.reshape(-1)
        length = self.window
        ibase = idx * self._icols
        pos = iflat[ibase + _WPOS]
        slot = idx * self._width + pos
        flat[slot + self._actual_off] = values
        flat[slot + self._forecast_off] = forecasts
        pos += 1
        pos[pos == length] = 0
        iflat[ibase + _WPOS] = pos
        self._wpos_hint = int(pos[0])
        for col in (_ALEN, _FLEN):
            iflat[ibase + col] = np.minimum(iflat[ibase + col] + 1, length)

    def window_len(self, row: int, which: int) -> int:
        """Live length of the actual (``which == 0``) or forecast window."""
        return int(self._ints[row, _ALEN + which])

    def window_values(self, row: int, which: int, newest: "int | None" = None):
        """The window's newest ``newest`` (default: all) values, oldest first.

        A zero-copy slice of the matrix row when the live range does not
        wrap, a fresh array when it does — read it, do not keep it.
        """
        ints = self._ints[row].tolist()
        size = ints[_ALEN + which]
        if newest is not None and newest < size:
            size = newest
        end = ints[_WPOS]
        start = end - size
        off = self._forecast_off if which else self._actual_off
        if start >= 0:
            return self._state[row, off + start : off + end]
        return np.concatenate(
            [
                self._state[row, off + start + self.window : off + self.window],
                self._state[row, off : off + end],
            ]
        )

    def load_windows(self, row: int, actual, forecast) -> None:
        """Set a *fresh* row's windows from oldest-first value sequences
        (the newest ℓ of each are kept, as a bounded deque would)."""
        for which, values in enumerate((actual, forecast)):
            self._write_window(row, which, values)

    def _write_window(self, row: int, which: int, values) -> None:
        """Overwrite one window: ``values`` end at the row's cursor, every
        other slot is zero."""
        values = values[-self.window :]
        ints = self._ints[row]
        off = self._forecast_off if which else self._actual_off
        segment = self._state[row, off : off + self.window]
        segment[:] = 0.0
        _store_ending_at(segment, int(ints[_WPOS]), values)
        ints[_ALEN + which] = len(values)

    def reseed(self, row: int, values) -> None:
        """The reference-series correction, in place: both windows become
        ``values`` (oldest first, the newest ℓ of them) and the forecaster
        state is rebuilt from them by :meth:`seed_fast`.  The window cursor
        stays where it is, so the row remains slot-aligned with its peers.
        A plug-in model's row restarts from a fresh scalar row; a foreign
        snapshot's row rejoins the layout."""
        values = values[-self.window :]
        state = self._state[row]
        ints = self._ints[row]
        end = int(ints[_WPOS])
        state[:] = 0.0
        state[0] = np.nan
        ints[:] = 0
        ints[_WPOS] = end
        ints[_ALEN : _FLEN + 1] = len(values)
        actual = state[self._actual_off : self._forecast_off]
        _store_ending_at(actual, end, values)
        state[self._forecast_off :] = actual
        if self._plugin:
            self._obj[row] = _ScalarRow(self.config)
        elif self._obj:
            self._obj.pop(row, None)
        self.seed_fast(row, values)

    # ------------------------------------------------------------------
    # Warm-start
    # ------------------------------------------------------------------
    def seed_fast(self, row: int, history: Sequence[float]) -> None:
        """Warm-start a *fresh* row from ``history`` without replaying it.

        The seasonal state initializes from the last ``min_history`` values
        and the EWMA fallback from a smoothing of the recent tail — the
        reference-series correction path (O(seasonal period) instead of
        O(window) updates).
        """
        obj = self._obj.get(row)
        if obj is not None:
            obj.seed_fast(history)
            return
        n = len(history)
        state = self._state[row]
        ints = self._ints[row]
        ints[_SEEN] = n
        if not n:
            return
        alpha = self.config.fallback_alpha
        # Lazy tail-only float conversion (see _ScalarRow.seed_fast): only
        # the EWMA tail, the seasonal window and (short histories) the
        # warm-up segment are ever read — values are bit-identical.
        tail_src = history[-min(n, 64):]
        if isinstance(tail_src, list):
            tail = [float(v) for v in tail_src]
        else:
            tail = np.asarray(tail_src, dtype=np.float64).tolist()
        level = tail[0]
        rest = 1 - alpha
        for value in tail:
            level = alpha * value + rest * level
        state[0] = level
        if n >= self._min_history:
            if self._single:
                # Built-in single-season Holt-Winters: initialize straight
                # into the row — the same ``_left_fold_sum`` cumsum
                # arithmetic as HoltWintersForecaster.initialize, minus the
                # model object and its list round trips.
                p = self._lengths[0]
                window = np.asarray(history[-2 * p :], dtype=np.float64)
                # add.accumulate is cumsum (a left-to-right fold) without
                # the wrapper; one pass yields both the first cycle's sum
                # and the two-cycle total.
                running = np.add.accumulate(window)
                hw_level = float(running[-1]) / (2 * p)
                first = float(running[p - 1])
                second = float(np.add.accumulate(window[p:])[-1])
                ints[_ACTIVE] = 1
                state[1] = hw_level
                state[2] = (second - first) / (p * p)
                np.subtract(window[p:], hw_level, out=state[3 : 3 + p])
                ints[_PHASE] = 0
                return
            model = _build_seasonal_model(self.config)
            model.initialize(history[-self._min_history:])
            self._adopt_model(row, model)
        else:
            state[self._hist_off : self._hist_off + n] = history
            ints[_HLEN] = n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_seasonal(self, row: int) -> bool:
        obj = self._obj.get(row)
        if obj is not None:
            return obj.seasonal is not None
        return bool(self._ints[row, _ACTIVE])

    def observations(self, row: int) -> int:
        obj = self._obj.get(row)
        return obj.seen if obj is not None else int(self._ints[row, _SEEN])

    # ------------------------------------------------------------------
    # Linearity operations (SPLIT / MERGE, Lemma 2)
    # ------------------------------------------------------------------
    def split_row(self, row: int, ratio: float) -> int:
        """SPLIT ``row`` in place: a new row takes ``ratio`` of its state —
        forecaster components, warm-up history and both windows — and ``row``
        keeps the complementary ``1 - ratio`` share.

        One multiply into the new row, one in place, one integer-row copy:
        element for element the ``scaled(ratio)`` / ``scaled(1 - ratio)``
        pair of the per-object split cascade.
        """
        dst = self._alloc_row()
        rest = 1.0 - ratio
        donor = self._state[row]
        np.multiply(donor, ratio, out=self._state[dst])
        donor *= rest
        self._ints[dst] = self._ints[row]
        if self._obj and row in self._obj:
            source = self._obj[row]
            self._obj[dst] = source.scaled(ratio)
            self._obj[row] = source.scaled(rest)
        if not 0.0 < ratio < 1.0 and not (_keeps_zeros(ratio) and _keeps_zeros(rest)):
            self._rezero(dst)
            self._rezero(row)
        return dst

    def _rezero(self, row: int) -> None:
        """Restore ``+0.0`` in every slot outside the row's live ranges.

        Dead slots survive a multiply only for ratios in ``[+0.0, 1]``; a
        negative (``-0.0`` included), infinite or NaN ratio — public API
        only — leaves ``-0.0`` or NaN there, which a later whole-row add
        would fold into live values.
        """
        state = self._state[row]
        ints = self._ints[row]
        if not ints[_ACTIVE]:
            state[1 : self._hist_off] = 0.0
        state[self._hist_off + int(ints[_HLEN]) : self._actual_off] = 0.0
        if self.window is not None:
            for which in (0, 1):
                self._write_window(row, which, self.window_values(row, which).copy())

    def fold_row(self, dst: int, src: int) -> None:
        """MERGE: add ``src``'s whole linear state into ``dst`` (``src`` is
        left allocated; the caller releases it).

        When the two rows agree on activity, warm-up length, window cursor
        and seasonal phases, every segment lines up slot for slot — zeros
        outside the live ranges — and the fold is one add over the row plus
        integer maxima.  Otherwise each segment folds on its own, rotated
        into ``dst``'s frame where phases or cursors differ and *copied*
        where ``dst`` has nothing yet: ``0.0 + -0.0`` is ``+0.0``, so adding
        into an empty destination would lose the sign a ratio-0 split leaves
        behind.
        """
        src_ints = self._ints[src]
        dst_ints = self._ints[dst]
        theirs = src_ints.tolist()
        mine = dst_ints.tolist()
        if theirs[_ACTIVE:_PHASE] == mine[_ACTIVE:_PHASE] and not (
            self._obj and (src in self._obj or dst in self._obj)
        ):
            src_state = self._state[src]
            dst_state = self._state[dst]
            src_ewma = src_state[0]
            dst_ewma = dst_state[0]
            if theirs[_PHASE:] == mine[_PHASE:]:
                dst_state += src_state
            else:
                # Same frame but for the seasonal phases (a reference
                # correction restarts them): only the buffers rotate.
                dst_state[:3] += src_state[:3]
                for k, (off, p) in enumerate(zip(self._seasonal_off, self._lengths)):
                    _rotated_add(
                        dst_state[off : off + p],
                        src_state[off : off + p],
                        (theirs[_PHASE + k] - mine[_PHASE + k]) % p,
                    )
                dst_state[self._hist_off :] += src_state[self._hist_off :]
            if src_ewma != src_ewma:
                dst_state[0] = dst_ewma
            elif dst_ewma != dst_ewma:
                dst_state[0] = src_ewma
            counts = dst_ints[:_ACTIVE]
            np.maximum(counts, src_ints[:_ACTIVE], out=counts)
            return
        self._fold_state(dst, src)
        if self.window is not None:
            shift = (theirs[_WPOS] - mine[_WPOS]) % self.window
            state = self._state
            if shift == 0:
                state[dst, self._actual_off :] += state[src, self._actual_off :]
            else:
                for off in (self._actual_off, self._forecast_off):
                    _rotated_add(
                        state[dst, off : off + self.window],
                        state[src, off : off + self.window],
                        shift,
                    )
            lens = dst_ints[_ALEN : _FLEN + 1]
            np.maximum(lens, src_ints[_ALEN : _FLEN + 1], out=lens)

    def _fold_state(self, dst: int, src: int) -> None:
        """The forecaster part of a fold, segment by segment (same bank).

        Exactly :meth:`_ScalarRow.add_state`: sum where both sides hold
        something, copy where only the source does, nothing where the source
        is empty.
        """
        if self._obj and (src in self._obj or dst in self._obj):
            other = self._obj.get(src)
            if other is None:
                other = self._as_scalar_row(src)
            mine = self._obj.get(dst)
            if mine is None:
                mine = self._obj[dst] = self._as_scalar_row(dst)
                self._state[dst, : self._actual_off] = 0.0
            mine.add_state(other)
            return
        src_state = self._state[src]
        dst_state = self._state[dst]
        src_ints = self._ints[src]
        dst_ints = self._ints[dst]
        src_ewma = src_state[0]
        if src_ewma == src_ewma:
            dst_ewma = dst_state[0]
            dst_state[0] = src_ewma if dst_ewma != dst_ewma else dst_ewma + src_ewma
        if src_ints[_SEEN] > dst_ints[_SEEN]:
            dst_ints[_SEEN] = src_ints[_SEEN]
        hist_off = self._hist_off
        if src_ints[_ACTIVE]:
            if not dst_ints[_ACTIVE]:
                dst_ints[_ACTIVE] = 1
                dst_state[1:hist_off] = src_state[1:hist_off]
                dst_ints[_PHASE:] = src_ints[_PHASE:]
            else:
                dst_state[1:3] += src_state[1:3]
                for k, (off, p) in enumerate(zip(self._seasonal_off, self._lengths)):
                    _rotated_add(
                        dst_state[off : off + p],
                        src_state[off : off + p],
                        int(src_ints[_PHASE + k] - dst_ints[_PHASE + k]) % p,
                    )
        theirs = int(src_ints[_HLEN])
        if theirs:
            mine = int(dst_ints[_HLEN])
            if not mine or mine == theirs:
                target = dst_state[hist_off : hist_off + theirs]
                if mine:
                    target += src_state[hist_off : hist_off + theirs]
                else:
                    target[:] = src_state[hist_off : hist_off + theirs]
            else:
                # Newest-aligned sum of unequal histories, both padded with
                # +0.0 to the longer one (the scalar row's list arithmetic).
                length = max(mine, theirs)
                padded = np.zeros((2, length))
                padded[0, length - mine :] = dst_state[hist_off : hist_off + mine]
                padded[1, length - theirs :] = src_state[hist_off : hist_off + theirs]
                np.add(padded[0], padded[1], out=dst_state[hist_off : hist_off + length])
            dst_ints[_HLEN] = max(mine, theirs)
        # No activation check: a vector row's history is always shorter than
        # ``min_history`` (longer ones live in ``_obj``), so is their fold.

    def _as_scalar_row(self, row: int) -> _ScalarRow:
        """A scalar-row copy of a vector row's forecaster state."""
        scalar = _ScalarRow(self.config)
        scalar.load_state_dict(self.row_state_dict(row))
        return scalar

    # ------------------------------------------------------------------
    # Canonical (pre-bank) checkpoint format
    # ------------------------------------------------------------------
    def _matches_layout(self, seasonal: dict) -> bool:
        """Whether a seasonal snapshot fits this bank's vector layout exactly."""
        config = self.config
        kind = seasonal.get("kind")
        if self._single:
            return (
                kind == "holt-winters"
                and int(seasonal["season_length"]) == self._lengths[0]
                and float(seasonal["alpha"]) == config.alpha
                and float(seasonal["beta"]) == config.beta
                and float(seasonal["gamma"]) == config.gamma
            )
        return (
            kind == "multi-seasonal-holt-winters"
            and tuple(int(p) for p in seasonal["season_lengths"]) == self._lengths
            and tuple(float(w) for w in seasonal["season_weights"]) == self._weights
            and float(seasonal["alpha"]) == config.alpha
            and float(seasonal["beta"]) == config.beta
            and float(seasonal["gamma"]) == config.gamma
        )

    def row_state_dict(self, row: int) -> dict:
        """The row's state in the canonical per-path forecaster format."""
        obj = self._obj.get(row)
        if obj is not None:
            return obj.state_dict()
        ints = self._ints[row].tolist()
        values = self._state[row, : self._hist_off + ints[_HLEN]].tolist()
        config = self.config
        if not ints[_ACTIVE]:
            seasonal = None
        elif self._single:
            seasonal = {
                "kind": "holt-winters",
                "alpha": config.alpha,
                "beta": config.beta,
                "gamma": config.gamma,
                "season_length": self._lengths[0],
                "level": values[1],
                "trend": values[2],
                "seasonals": values[3 : self._hist_off],
                "phase": ints[_PHASE],
            }
        else:
            seasonal = {
                "kind": "multi-seasonal-holt-winters",
                "alpha": config.alpha,
                "beta": config.beta,
                "gamma": config.gamma,
                "season_lengths": list(self._lengths),
                "season_weights": list(self._weights),
                "level": values[1],
                "trend": values[2],
                "seasonals": [
                    values[off : off + p]
                    for off, p in zip(self._seasonal_off, self._lengths)
                ],
                "phases": ints[_PHASE:],
            }
        ewma = values[0]
        return {
            "ewma_level": None if ewma != ewma else ewma,
            "seen": ints[_SEEN],
            "history": values[self._hist_off :],
            "seasonal": seasonal,
        }

    def load_row_state(self, row: int, state: dict) -> None:
        """Restore a *fresh* row from :meth:`row_state_dict` output."""
        seasonal = state["seasonal"]
        history = state["history"]
        if (
            self._plugin
            or len(history) >= self._min_history
            or (
                seasonal is not None
                and (seasonal["level"] is None or not self._matches_layout(seasonal))
            )
        ):
            # A plug-in model's row, or state that does not fit the layout (a
            # foreign config's snapshot, or a stored-but-uninitialized model):
            # hold it faithfully as a scalar row.
            scalar = self._obj[row] = _ScalarRow(self.config)
            scalar.load_state_dict(state)
            return
        values = self._state[row]
        ints = self._ints[row]
        level = state["ewma_level"]
        if level is not None:
            values[0] = float(level)
        ints[_SEEN] = int(state["seen"])
        values[self._hist_off : self._hist_off + len(history)] = history
        ints[_HLEN] = len(history)
        if seasonal is None:
            return
        ints[_ACTIVE] = 1
        values[1] = float(seasonal["level"])
        values[2] = float(seasonal["trend"])
        if self._single:
            values[3 : self._hist_off] = seasonal["seasonals"]
            ints[_PHASE] = int(seasonal["phase"])
        else:
            for off, buf in zip(self._seasonal_off, seasonal["seasonals"]):
                values[off : off + len(buf)] = buf
            ints[_PHASE:] = [int(p) for p in seasonal["phases"]]

    def series_state_dict(self, row: int) -> dict:
        """One node series' canonical snapshot: the window length, both
        windows oldest first, and :meth:`row_state_dict`."""
        return {
            "length": self.window,
            "actual": self.window_values(row, 0).tolist(),
            "forecast": self.window_values(row, 1).tolist(),
            "forecaster": self.row_state_dict(row),
        }

    def load_series_state(self, state: dict) -> int:
        """A new row restored from :meth:`series_state_dict` output (windows
        longer than the bank's keep their newest values).  A snapshot of
        another window length is refused before a row is taken."""
        self.reserve_window(int(state["length"]))
        row = self.new_row()
        self.load_row_state(row, state["forecaster"])
        self.load_windows(
            row,
            [float(v) for v in state["actual"]],
            [float(v) for v in state["forecast"]],
        )
        return row


__all__ = [
    "ForecasterBank",
    "OBSERVE_BATCH_MIN_ROWS",
    "load_seasonal_state",
]
