"""Array-native close tail for the vector tiers, plus the close histogram.

ADA's vector-tier close (:meth:`repro.core.ada.ADAAlgorithm._close_delta`)
keeps lex-ordered ``(ids, rows, series_list)`` arrays for the heavy set and
reuses them verbatim while the set is unchanged.  Every close — stable or
churning — then advances the forecasters with one
:meth:`~repro.forecasting.bank.ForecasterBank.observe_rows_arrays` call,
appends the window, and detects with one
:meth:`~repro.core.detector.ThresholdDetector.check_many`.  This module
supplies the window append and the latency bookkeeping:

* :func:`build_record_pack` / :func:`record_fused` push the per-series
  ``(value, forecast)`` pairs of a close into every ring buffer with one
  compiled call; ``record_fused`` returns False — and the caller runs the
  per-series :meth:`NodeTimeSeries.record` loop — whenever no compiled
  kernel is loaded (the NumPy tier), a series is not ring-backed, or the
  windows are misaligned;
* :class:`CloseHistogram` tracks per-timeunit close latencies for the
  service's ``/metrics`` endpoint and the perf ledger.

Everything here is an *execution strategy*, not an algorithm change: the
compiled append writes the same bytes as the ``record`` loop (the tier
suite compares raw checkpoint bytes between the NumPy and compiled tiers,
and both against the python-tier scalar walk).

Record-pack invariant: a pack is rebuilt whenever the cached ``series_list``
object changes identity.  Structural series mutations (split/merge/replace)
only happen on planned units, which rebuild the heavy-hitter cache and hence
the list object — so within one stable epoch the pack's base-array
references stay valid.  Ring offsets are *not* cached: they are re-read from
the rings on every close and written back after the kernel.
"""

from __future__ import annotations

from bisect import bisect_left

from repro._vector import load_numpy

_np = load_numpy()


# ----------------------------------------------------------------------
# Close-time histogram (service metrics / perf ledger)
# ----------------------------------------------------------------------

#: Log-spaced bucket upper bounds in seconds; the last bucket is open-ended.
CLOSE_BUCKET_UPPERS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)


class CloseHistogram:
    """Histogram of per-timeunit close wall times (cheap: one bisect each)."""

    __slots__ = ("counts", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(CLOSE_BUCKET_UPPERS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(CLOSE_BUCKET_UPPERS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def to_dict(self) -> dict:
        return {
            "bucket_upper_seconds": list(CLOSE_BUCKET_UPPERS),
            "counts": list(self.counts),
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
        }


# ----------------------------------------------------------------------
# Record pack: compiled ring-buffer append for a whole heavy-hitter set
# ----------------------------------------------------------------------


class RecordPack:
    """Per-epoch view of a cached ``series_list`` for the compiled recorder.

    ``ok`` is False when any series lacks fused ``(2, maxlen)`` base storage
    (pure-Python rings, foreign restores); callers then keep the per-series
    ``record`` loop.  See the module docstring for the rebuild invariant.
    """

    __slots__ = ("series_list", "bases", "rings", "maxlens", "ok")

    def __init__(self, series_list) -> None:
        self.series_list = series_list
        bases = []
        rings = []
        ok = _np is not None
        if ok:
            for series in series_list:
                base = series._base
                if base is None:
                    ok = False
                    break
                bases.append(base)
                rings.append((series.actual, series.forecast))
        self.ok = ok
        if ok:
            self.bases = bases
            self.rings = rings
            self.maxlens = _np.fromiter(
                (a.maxlen for a, _ in rings), dtype=_np.int64, count=len(rings)
            )
        else:
            self.bases = []
            self.rings = []
            self.maxlens = None


def build_record_pack(series_list) -> RecordPack:
    """A :class:`RecordPack` over the current cached heavy-hitter series."""
    return RecordPack(series_list)


def record_fused(pack: RecordPack, kernels, values_vec, forecasts_vec) -> bool:
    """Record one close's (value, forecast) pairs through the compiled kernel.

    Returns True when the kernel handled every series; False means the caller
    must run the per-series ``record`` loop (no kernels, non-ring series, or
    misaligned actual/forecast windows — the same guard ``record`` applies
    per series).  Offsets are read fresh from the rings and written back, so
    any out-of-band ring mutation is picked up rather than clobbered.
    """
    if kernels is None or not pack.ok:
        return False
    np_ = _np
    rings = pack.rings
    start_list = [a._start for a, _ in rings]
    size_list = [a._size for a, _ in rings]
    if start_list != [f._start for _, f in rings] or size_list != [
        f._size for _, f in rings
    ]:
        return False
    starts = np_.array(start_list, dtype=np_.int64)
    sizes = np_.array(size_list, dtype=np_.int64)
    kernels.fused_record(
        pack.bases, starts, sizes, pack.maxlens, values_vec, forecasts_vec
    )
    for (actual, forecast), start, size in zip(
        rings, starts.tolist(), sizes.tolist()
    ):
        actual._start = start
        actual._size = size
        forecast._start = start
        forecast._size = size
    return True


__all__ = [
    "CLOSE_BUCKET_UPPERS",
    "CloseHistogram",
    "RecordPack",
    "build_record_pack",
    "record_fused",
]
