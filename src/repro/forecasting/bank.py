"""Row-store forecaster bank: Lemma 2 as the data layout.

Everything Tiresias keeps per heavy hitter is *linear* in the node's series
(the paper's Lemma 2): the EWMA fallback level, the additive Holt-Winters
level / trend / seasonal components, the warm-up history that precedes
seasonal activation, and the actual and forecast windows.  A
:class:`ForecasterBank` therefore stores all of it as **one row of one
C-contiguous float64 matrix**::

    [ewma, level, trend | seasonal buffer(s) | warm-up history | actual ℓ | forecast ℓ]

next to one small integer row (``seen``, window lengths, ``active``, warm-up
length, window cursor, seasonal slot(s) and rotation(s)).  Segments are
slot-addressed and hold ``+0.0`` outside their live range, so ADA's
adaptation is array arithmetic on whole rows:

* **SPLIT** (:meth:`~ForecasterBank.split_row`) — one multiply into the new
  row, one in place, one integer-row copy;
* **MERGE** (:meth:`~ForecasterBank.fold_row`) — one add plus integer maxima
  when the two rows are slot-aligned; per segment, with a rotation where
  cursors or seasonal slots differ and a *copy* where the destination holds
  nothing yet (``0.0 + -0.0`` is ``+0.0``: an add would drop the sign of
  the zeros a ratio-0 split leaves).  Seasonal buffers are stored rotated
  against the bank's clock (its count of :meth:`~ForecasterBank.observe_rows`
  calls), so warm rows observed in lockstep read the same physical slot
  whatever their canonical phase: ADA's folds of warm rows are one add;
* **reference correction** (:meth:`~ForecasterBank.reseed`) — windows and
  forecaster state rewritten in place from the corrected series; a SPLIT
  whose child is corrected at once scales only its donor
  (``split_row(row, ratio, values)``);
* **close** — :meth:`~ForecasterBank.observe_rows` advances every tracked
  forecaster with one kernel, whatever the number of rows (the warm-up
  append is one indexed store), and :meth:`~ForecasterBank.record_rows`
  appends every window with one indexed store each.

Every float operation is, element for element, the scalar arithmetic of the
per-object forecaster (:class:`~repro.testing.reference.ScalarRow`), so a row
behaves exactly as that object would; :mod:`repro.testing.reference` builds
the test oracle on it.

The model is additive Holt-Winters, whose linearity (Lemma 2) is what
makes a row a matrix row: single-season for one seasonal period and
multi-seasonal for more, by ``len(ForecastConfig.season_lengths)``.  A row
initializes its seasonal state in place (:meth:`~ForecasterBank._initialize`);
no model object is built.  A restored snapshot that does not fit the layout
(foreign seasonal parameters, an uninitialized model, a warm-up history of
``min_history`` or more values) is refused with
:class:`~repro.exceptions.CheckpointError`.

Checkpoint compatibility: :meth:`row_state_dict` / :meth:`load_row_state`
speak the *canonical per-path forecaster format* that predates the bank
(``{"ewma_level", "seen", "history", "seasonal"}``), so bank-backed sessions
read and write the same checkpoints as sharded sessions;
:meth:`series_state_dict` / :meth:`load_series_state` add the windows.
Window slots and seasonal rotations are not part of either — only
oldest-first windows and canonical (phase-relative) seasonal buffers are.
:meth:`series_state_dict` is also the one way a tracked series is read
(:meth:`ADAAlgorithm.series_state <repro.core.ada.ADAAlgorithm.series_state>`):
there are no per-series objects over the rows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.config import ForecastConfig
from repro.exceptions import CheckpointError, ConfigurationError
from repro.forecasting.holt_winters import (
    HoltWintersForecaster,
    MultiSeasonalHoltWinters,
)


#: Checkpoint loaders of the built-in seasonal models, by snapshot kind.
_STATE_LOADERS = {
    "holt-winters": HoltWintersForecaster.from_state_dict,
    "multi-seasonal-holt-winters": MultiSeasonalHoltWinters.from_state_dict,
}


def load_seasonal_state(state: dict):
    """Rebuild a seasonal model from its ``state_dict`` snapshot (by kind)."""
    kind = str(state.get("kind"))
    loader = _STATE_LOADERS.get(kind)
    if loader is None:
        raise CheckpointError(
            f"cannot restore seasonal model of kind {kind!r}; known kinds: "
            f"{sorted(_STATE_LOADERS)}"
        )
    return loader(state)


#: Columns of the per-row integer matrix, then one rotation column per
#: seasonal period after the phases.  ``_ACTIVE`` up to the rotations is the
#: row's *alignment*: two rows whose alignment is equal hold every float
#: segment slot for slot, so a MERGE is one whole-row add.  A phase is the
#: *physical* buffer slot the row reads next; the period's rotation ``r``
#: (constant between initializations) maps canonical slot ``c`` to physical
#: slot ``(c + r) % p``.
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

    The layout is single-season Holt-Winters for one seasonal period and
    multi-seasonal Holt-Winters for more.
    """

    def __init__(self, config: ForecastConfig, *, window: int | None = None):
        self.config = config
        self._free: list[int] = []
        self._live = bytearray()  # 1 per allocated, not freed row
        self._size = 0  # high-water row count
        lengths = self._lengths = config.season_lengths
        self._single = len(lengths) == 1
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
        self._rot = _PHASE + len(lengths)  # first rotation column
        self._icols = self._rot + len(lengths)
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
        #: The bank's clock: :meth:`observe_rows` calls so far.  A seasonal
        #: initialization puts phase 0 at physical slot ``_tick % p``, so
        #: rows observed in every call read one slot — a hint too, like the
        #: cursor above: folds of rows on other slots rotate.
        self._tick = 0
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
        banks) carries none; the first series snapshot loaded into it
        (:meth:`load_series_state`) widens the matrix.  One bank has one
        window length.
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

        Callers hold row numbers, never an array, so nothing dangles across
        a reallocation.
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
        return row

    def free_row(self, row: int) -> None:
        """Return ``row`` to the bank for reuse; its state becomes invalid."""
        if not 0 <= row < self._size or not self._live[row]:
            raise ConfigurationError(f"bank row {row} is not live")
        self._live[row] = 0
        self._free.append(row)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def forecast(self, row: int) -> float:
        """One-step-ahead forecast for ``row``'s next timeunit."""
        if self._ints[row, _ACTIVE]:
            forecast, *_ = self._components(
                self._state.reshape(-1),
                self._ints.reshape(-1),
                np.array([row * self._width]),
                np.array([row * self._icols]),
            )
            return float(forecast[0])
        ewma = float(self._state[row, 0])
        return 0.0 if ewma != ewma else ewma

    def observe_rows(self, idx, v):
        """Fold in one timeunit: ``v[i]`` (float64 array) is the next actual
        value of row ``idx[i]`` (integer array of distinct rows); returns
        the forecasts made for them, a float64 array.

        This is the per-timeunit hot path: one call updates the EWMA levels,
        Holt-Winters components and warm-up histories of every tracked node,
        whatever the number of rows.  Every gather and scatter is a 1-d take
        on the flattened matrices at ``row * width + column``.
        """
        self._tick += 1
        flat = self._state.reshape(-1)
        iflat = self._ints.reshape(-1)
        base = idx * self._width
        ibase = idx * self._icols
        ewma = flat[base]
        active = iflat[ibase + _ACTIVE]
        fallback_alpha = self.config.fallback_alpha
        if active.all() and not np.isnan(ewma).any():
            # Steady state (every row warm): no masks, no history bookkeeping.
            forecasts, *components = self._components(flat, iflat, base, ibase)
            flat[base] = fallback_alpha * v + (1 - fallback_alpha) * ewma
            iflat[ibase + _SEEN] += 1
            self._update_components(flat, iflat, base, ibase, v, *components)
            return forecasts
        has_ewma = ~np.isnan(ewma)
        forecasts = np.where(has_ewma, ewma, 0.0)
        active_pos = np.flatnonzero(active)
        if active_pos.size:
            a_base = base[active_pos]
            a_ibase = ibase[active_pos]
            forecasts[active_pos], *components = self._components(
                flat, iflat, a_base, a_ibase
            )
            self._update_components(
                flat, iflat, a_base, a_ibase, v[active_pos], *components
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
        """``(forecast, level, trend, combined seasonal)`` of the active rows
        at ``base`` / ``ibase`` (flat offsets of their float / integer rows):
        the forecast is level + trend + seasonal."""
        if self._single:
            seasonal = flat[base + (3 + iflat[ibase + _PHASE])]
        else:
            seasonal = np.zeros(base.size)
            for k, (w, off) in enumerate(zip(self._weights, self._seasonal_off)):
                seasonal = seasonal + w * flat[base + (off + iflat[ibase + (_PHASE + k)])]
        level = flat[base + 1]
        trend = flat[base + 2]
        return level + trend + seasonal, level, trend, seasonal

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
        self._initialize(row, state[hist_off : hist_off + hlen])
        state[hist_off : hist_off + hlen] = 0.0
        self._ints[row, _HLEN] = 0

    def _initialize(self, row: int, history) -> None:
        """Start ``row``'s Holt-Winters state from the last ``min_history``
        values of ``history`` (oldest first), the paper's scheme: the level
        is the mean of the last two cycles of the longest period ``p``, the
        trend the difference of the two cycles' sums over ``p * p``, and
        each period's factors are its last cycle's deviations from the
        level; every phase starts at 0, stored at physical slot
        ``_tick % p`` (the slot every row observed from now on in lockstep
        reads next).

        The sums are left folds starting at ``+0.0`` — bit for bit
        :func:`repro._vector.left_sum`, which the scalar models use —
        taken from one ``np.add.accumulate`` pass.
        """
        p = self._min_history // 2
        window = np.asarray(history[-2 * p :], dtype=np.float64)
        running = np.add.accumulate(window)
        # ``0.0 +``: a fold that starts at +0.0 sums an all -0.0 run to +0.0.
        level = (0.0 + float(running[-1])) / (2 * p)
        first = 0.0 + float(running[p - 1])
        second = 0.0 + float(np.add.accumulate(window[p:])[-1])
        state = self._state[row]
        state[1] = level
        state[2] = (second - first) / (p * p)
        ints = self._ints[row]
        ints[_ACTIVE] = 1
        for k, (off, q) in enumerate(zip(self._seasonal_off, self._lengths)):
            rot = self._tick % q
            _store_ending_at(state[off : off + q], rot, window[-q:] - level)
            ints[_PHASE + k] = ints[self._rot + k] = rot

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def record_rows(self, idx, values, forecasts) -> None:
        """Append one ``(actual, forecast)`` pair to the windows of each of
        the distinct rows ``idx`` (arrays, as :meth:`observe_rows`): one
        indexed store per window, one cursor update."""
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
        stays where it is, and the restarted seasonal phase 0 is stored at
        the bank clock's slot (:meth:`_initialize`), so the row remains
        slot-aligned with its lockstep peers."""
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
        n = len(history)
        state = self._state[row]
        ints = self._ints[row]
        ints[_SEEN] = n
        if not n:
            return
        alpha = self.config.fallback_alpha
        # Lazy tail-only float conversion (see the reference's
        # ScalarRow.seed_fast): only
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
            self._initialize(row, history)
        else:
            state[self._hist_off : self._hist_off + n] = history
            ints[_HLEN] = n

    # ------------------------------------------------------------------
    # Linearity operations (SPLIT / MERGE, Lemma 2)
    # ------------------------------------------------------------------
    def split_row(self, row: int, ratio: float, values=None) -> int:
        """SPLIT ``row`` in place: a new row takes ``ratio`` of its state —
        forecaster components, warm-up history and both windows — and ``row``
        keeps the complementary ``1 - ratio`` share.

        One multiply into the new row, one in place, one integer-row copy:
        element for element the ``scaled(ratio)`` / ``scaled(1 - ratio)``
        pair of the per-object split cascade.  With ``values`` (a non-empty
        oldest-first series: the reference correction of the new row) the
        new row is :meth:`reseed` from them instead — the reseed overwrites
        the whole row, so its ``ratio`` share is never computed.
        """
        dst = self._alloc_row()
        rest = 1.0 - ratio
        donor = self._state[row]
        self._ints[dst] = self._ints[row]
        if values is None:
            np.multiply(donor, ratio, out=self._state[dst])
        else:
            self.reseed(dst, values)
        donor *= rest
        if not 0.0 < ratio < 1.0 and not (_keeps_zeros(ratio) and _keeps_zeros(rest)):
            if values is None:
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
        and seasonal slots, every segment lines up slot for slot — zeros
        outside the live ranges — and the fold is one add over the row plus
        integer maxima.  Rotations are not compared: a buffer's slots pair
        by the next one read, so two buffers that read the same physical
        slot add slot for slot, and ``dst`` keeps its own rotation.  Rows
        observed in lockstep read the same slot (see :meth:`_initialize`).
        Otherwise each segment folds on its own, rotated into ``dst``'s
        frame where slots or cursors differ and *copied* where ``dst`` has
        nothing yet: ``0.0 + -0.0`` is ``+0.0``, so adding into an empty
        destination would lose the sign a ratio-0 split leaves behind.
        """
        src_ints = self._ints[src]
        dst_ints = self._ints[dst]
        theirs = src_ints.tolist()
        mine = dst_ints.tolist()
        if theirs[_ACTIVE:_PHASE] == mine[_ACTIVE:_PHASE]:
            src_state = self._state[src]
            dst_state = self._state[dst]
            src_ewma = src_state[0]
            dst_ewma = dst_state[0]
            rot = self._rot
            if theirs[_PHASE:rot] == mine[_PHASE:rot]:
                dst_state += src_state
            else:
                # Same frame but for the seasonal slots (rows not observed
                # in lockstep): only the buffers rotate.
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
            for col in range(_ACTIVE):  # seen and window lengths: maxima
                if theirs[col] > mine[col]:
                    dst_ints[col] = theirs[col]
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

        Exactly the reference's
        :meth:`~repro.testing.reference.ScalarRow.add_state`: sum where both sides hold
        something, copy where only the source does (rotations too), nothing
        where the source is empty.  Seasonal buffers pair by physical slot,
        as in :meth:`fold_row`.
        """
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
        # No activation check: a matrix row's history is always shorter than
        # ``min_history`` (a longer one is refused at load), so is their fold.

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
                and len(seasonal["seasonals"]) == self._lengths[0]
                and float(seasonal["alpha"]) == config.alpha
                and float(seasonal["beta"]) == config.beta
                and float(seasonal["gamma"]) == config.gamma
            )
        return (
            kind == "multi-seasonal-holt-winters"
            and tuple(int(p) for p in seasonal["season_lengths"]) == self._lengths
            and tuple(len(buf) for buf in seasonal["seasonals"]) == self._lengths
            and tuple(float(w) for w in seasonal["season_weights"]) == self._weights
            and float(seasonal["alpha"]) == config.alpha
            and float(seasonal["beta"]) == config.beta
            and float(seasonal["gamma"]) == config.gamma
        )

    def _canonical_seasonals(self, values: list, ints: list):
        """Each period's ``(buffer, phase)`` in the canonical frame: the
        stored buffer rolled back by the period's rotation."""
        for k, (off, p) in enumerate(zip(self._seasonal_off, self._lengths)):
            rot = ints[self._rot + k]
            yield (
                values[off + rot : off + p] + values[off : off + rot],
                (ints[_PHASE + k] - rot) % p,
            )

    def row_state_dict(self, row: int) -> dict:
        """The row's state in the canonical per-path forecaster format (the
        same whatever the bank's clock)."""
        ints = self._ints[row].tolist()
        values = self._state[row, : self._hist_off + ints[_HLEN]].tolist()
        config = self.config
        if not ints[_ACTIVE]:
            seasonal = None
        elif self._single:
            (buffer, phase), = self._canonical_seasonals(values, ints)
            seasonal = {
                "kind": "holt-winters",
                "alpha": config.alpha,
                "beta": config.beta,
                "gamma": config.gamma,
                "season_length": self._lengths[0],
                "level": values[1],
                "trend": values[2],
                "seasonals": buffer,
                "phase": phase,
            }
        else:
            buffers, phases = zip(*self._canonical_seasonals(values, ints))
            seasonal = {
                "kind": "multi-seasonal-holt-winters",
                "alpha": config.alpha,
                "beta": config.beta,
                "gamma": config.gamma,
                "season_lengths": list(self._lengths),
                "season_weights": list(self._weights),
                "level": values[1],
                "trend": values[2],
                "seasonals": list(buffers),
                "phases": list(phases),
            }
        ewma = values[0]
        return {
            "ewma_level": None if ewma != ewma else ewma,
            "seen": ints[_SEEN],
            "history": values[self._hist_off :],
            "seasonal": seasonal,
        }

    def load_row_state(self, row: int, state: dict) -> None:
        """Restore a *fresh* row from :meth:`row_state_dict` output.

        A built-in model's snapshot must fit the layout: raises
        :class:`~repro.exceptions.CheckpointError` for seasonal state of
        other parameters or an uninitialized model, and for a warm-up history
        of ``min_history`` or more values (the model activates before that).
        Each seasonal buffer is stored rotated so the row reads the bank
        clock's slot next.
        """
        seasonal = state["seasonal"]
        history = state["history"]
        if len(history) >= self._min_history:
            raise CheckpointError(
                f"forecaster snapshot holds a warm-up history of {len(history)} "
                f"values; the model activates at {self._min_history}"
            )
        if seasonal is not None and (
            seasonal["level"] is None or not self._matches_layout(seasonal)
        ):
            raise CheckpointError(
                "forecaster snapshot holds seasonal state that does not fit "
                "this session's forecasting model"
            )
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
            buffers, phases = [seasonal["seasonals"]], [seasonal["phase"]]
        else:
            buffers, phases = seasonal["seasonals"], seasonal["phases"]
        for k, (off, p) in enumerate(zip(self._seasonal_off, self._lengths)):
            slot = self._tick % p
            rot = (slot - int(phases[k])) % p
            _store_ending_at(values[off : off + p], rot, buffers[k])
            ints[_PHASE + k] = slot
            ints[self._rot + k] = rot

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
        longer than the bank's keep their newest values).  A refused snapshot
        (another window length, or one :meth:`load_row_state` refuses)
        leaves no row taken."""
        self.reserve_window(int(state["length"]))
        row = self.new_row()
        try:
            self.load_row_state(row, state["forecaster"])
            self.load_windows(
                row,
                [float(v) for v in state["actual"]],
                [float(v) for v in state["forecast"]],
            )
        except Exception:
            self.free_row(row)
            raise
        return row


__all__ = [
    "ForecasterBank",
    "load_seasonal_state",
]
