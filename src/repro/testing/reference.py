"""The slow, cache-free oracle of ADA's close.

:class:`ReferenceADA` is ADA (§V-B) written the way the paper states it, one
path at a time: Definitions 1 and 2 by the scalar walks of
:mod:`repro.core.hhh`, every series as two bounded deques and a per-object
forecaster (:class:`ScalarRow`), the SPLIT/MERGE cascade walked per path
over path-keyed dicts, and the split-rule statistics and reference series
kept per path too.
Nothing is cached, vectorized or shared with the production close's row
store, planner or sweep: :class:`~repro.core.ada.ADAAlgorithm` must
reproduce its per-timeunit results, its counters and its checkpoint (up to
the row order of ``stats`` / ``stats_last_unit``) bit for bit.  It never
runs in production.

Its parts are oracles on their own: :class:`ScalarRow` of one bank row's
forecaster state, :class:`ReferenceSeries` of one bank row (the row-store
state machine drives both through the same calls), and
:class:`ReferenceStats` of the dense split-rule statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Mapping, Sequence

import numpy as np

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.detector import ThresholdDetector
from repro.core.hhh import accumulate_raw_weights, compute_shhh
from repro.core.results import TimeunitResult
from repro.core.split_rules import NodeUsageStats, make_split_rule
from repro.forecasting.bank import load_seasonal_state
from repro.forecasting.holt_winters import HoltWintersForecaster, MultiSeasonalHoltWinters
from repro.hierarchy.tree import HierarchyTree


def aligned_add(mine: Sequence[float], theirs: Sequence[float], maxlen: int) -> Deque[float]:
    """Element-wise sum aligned on the newest element: the shorter side is
    padded with ``0.0`` at the old end, and the newest ``maxlen`` kept."""
    length = max(len(mine), len(theirs))
    padded_mine = [0.0] * (length - len(mine)) + list(mine)
    padded_theirs = [0.0] * (length - len(theirs)) + list(theirs)
    return deque((a + b for a, b in zip(padded_mine, padded_theirs)), maxlen=maxlen)


def _seasonal_model(config: ForecastConfig):
    """The uninitialized Holt-Winters model ``config``'s periods pick:
    single-season for one period, multi-seasonal for more."""
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


class ScalarRow:
    """One row's forecasting state as plain Python objects.

    The historical per-node forecaster: the test oracle's series are made
    of them, and every :class:`~repro.forecasting.bank.ForecasterBank` row
    operation must equal its arithmetic bit for bit.
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
            model = _seasonal_model(self.config)
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
            model = _seasonal_model(self.config)
            model.initialize(history[-self.config.min_history:])
            self.seasonal = model
        else:
            self.history = [float(v) for v in history]

    def scaled(self, ratio: float) -> "ScalarRow":
        clone = ScalarRow(self.config)
        clone.seen = self.seen
        clone.ewma_level = None if self.ewma_level is None else self.ewma_level * ratio
        clone.history = [v * ratio for v in self.history]
        clone.seasonal = None if self.seasonal is None else self.seasonal.scaled(ratio)
        return clone

    def add_state(self, other: "ScalarRow") -> None:
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


class ReferenceSeries:
    """One node's series: bounded actual / forecast deques and a forecaster."""

    __slots__ = ("length", "config", "actual", "forecast", "forecaster")

    def __init__(
        self, length: int, config: ForecastConfig, forecaster: "ScalarRow | None" = None
    ):
        self.length = length
        self.config = config
        self.actual: Deque[float] = deque(maxlen=length)
        self.forecast: Deque[float] = deque(maxlen=length)
        self.forecaster = ScalarRow(config) if forecaster is None else forecaster

    def append(self, value: float) -> float:
        """Observe the newest actual value; returns the forecast made for it."""
        predicted = self.forecaster.observe(value)
        self.record(value, predicted)
        return predicted

    def record(self, value: float, predicted: float) -> None:
        self.actual.append(float(value))
        self.forecast.append(predicted)

    def scaled(self, ratio: float) -> "ReferenceSeries":
        """The series of ``ratio`` times this one (Lemma 2)."""
        clone = ReferenceSeries(self.length, self.config, self.forecaster.scaled(ratio))
        clone.actual.extend(v * ratio for v in self.actual)
        clone.forecast.extend(v * ratio for v in self.forecast)
        return clone

    def merge_from(self, other: "ReferenceSeries") -> None:
        """Add ``other``'s series into this one, newest aligned."""
        self.actual = aligned_add(self.actual, other.actual, self.length)
        self.forecast = aligned_add(self.forecast, other.forecast, self.length)
        self.forecaster.add_state(other.forecaster)

    def replace_actual(self, values: Sequence[float]) -> None:
        """The reference correction: both windows become ``values`` (the
        newest ℓ) and the forecaster restarts from them."""
        trimmed = [float(v) for v in values][-self.length :]
        self.actual = deque(trimmed, maxlen=self.length)
        self.forecast = deque(trimmed, maxlen=self.length)
        self.forecaster = ScalarRow(self.config)
        self.forecaster.seed_fast(trimmed)

    def state_dict(self) -> dict:
        return {
            "length": self.length,
            "actual": list(self.actual),
            "forecast": list(self.forecast),
            "forecaster": self.forecaster.state_dict(),
        }

    @classmethod
    def from_state_dict(cls, state: dict, config: ForecastConfig) -> "ReferenceSeries":
        series = cls(int(state["length"]), config)
        series.forecaster.load_state_dict(state["forecaster"])
        series.actual.extend(float(v) for v in state["actual"])
        series.forecast.extend(float(v) for v in state["forecast"])
        return series


class ReferenceStats:
    """Split-rule statistics per path (§V-B4), updated node by node."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.stats: dict[CategoryPath, NodeUsageStats] = {}
        self.last_unit: dict[CategoryPath, int] = {}

    def update(self, timeunit: int, raw: Mapping[CategoryPath, Weight]) -> None:
        """Fold one timeunit's positive raw weights in."""
        alpha = self.alpha
        for path, weight in raw.items():
            stats = self.stats.get(path)
            if stats is None:
                stats = self.stats[path] = NodeUsageStats()
            last = self.last_unit.get(path)
            if last is not None and timeunit - last > 1:
                # The silent (zero-weight) timeunits decay the EWMA.
                stats.ewma_weight *= (1 - alpha) ** (timeunit - last - 1)
                stats.last_weight = 0.0
            stats.update(weight, alpha)
            self.last_unit[path] = timeunit

    def view(self, path: CategoryPath, timeunit: int) -> NodeUsageStats:
        """``path``'s statistics as of ``timeunit``, silent units accounted."""
        stats = self.stats.get(path)
        if stats is None:
            return NodeUsageStats()
        gap = timeunit - self.last_unit.get(path, -1)
        if gap <= 0:
            return stats
        return NodeUsageStats(
            last_weight=0.0 if gap > 1 else stats.last_weight,
            cumulative_weight=stats.cumulative_weight,
            ewma_weight=stats.ewma_weight * (1 - self.alpha) ** (gap - 1),
            observations=stats.observations,
        )

    def emit(self) -> tuple[list, list]:
        """``(stats_rows, last_unit_rows)`` in the checkpoint format."""
        stats_rows = [
            [
                list(path),
                {
                    "last_weight": stats.last_weight,
                    "cumulative_weight": stats.cumulative_weight,
                    "ewma_weight": stats.ewma_weight,
                    "observations": stats.observations,
                },
            ]
            for path, stats in self.stats.items()
        ]
        return stats_rows, [[list(path), unit] for path, unit in self.last_unit.items()]

    def load(self, stats_rows, last_rows) -> None:
        self.stats = {
            tuple(path): NodeUsageStats(
                last_weight=float(row["last_weight"]),
                cumulative_weight=float(row["cumulative_weight"]),
                ewma_weight=float(row["ewma_weight"]),
                observations=int(row["observations"]),
            )
            for path, row in stats_rows
        }
        self.last_unit = {tuple(path): int(unit) for path, unit in last_rows}


class ReferenceADA:
    """ADA, one path at a time.  Same constructor, ``process_timeunit``,
    counters and checkpoint format as :class:`~repro.core.ada.ADAAlgorithm`."""

    name = "ADA"

    def __init__(self, tree: HierarchyTree, config: TiresiasConfig):
        self.tree = tree
        self.config = config
        self.detector = ThresholdDetector(config)
        self.split_rule = make_split_rule(config)
        #: Series of the tracked nodes, in tracking order.
        self.series: dict[CategoryPath, ReferenceSeries] = {}
        #: Unmodified-weight series of the top ``h`` levels.
        self.reference: dict[CategoryPath, Deque[float]] = {}
        self.stats = ReferenceStats(config.split_ewma_alpha)
        self.split_operations = 0
        self.merge_operations = 0
        self.timeunit: TimeunitIndex = -1
        self.last_result: "TimeunitResult | None" = None
        self._reference_nodes = tuple(
            path
            for depth in range(1, config.reference_levels + 1)
            for path in tree.paths_at_depth(depth)
        )

    # ------------------------------------------------------------------
    # One timeunit
    # ------------------------------------------------------------------
    def process_timeunit(
        self, leaf_counts: Mapping[CategoryPath, Weight], timeunit: "TimeunitIndex | None" = None
    ) -> TimeunitResult:
        config = self.config
        self.timeunit = self.timeunit + 1 if timeunit is None else timeunit
        raw = accumulate_raw_weights(self.tree, leaf_counts)
        shhh = compute_shhh(self.tree, leaf_counts, config.theta, raw=raw)
        root = ()
        heavy = set(shhh.shhh)
        if config.track_root:
            heavy.add(root)
        elif not config.allow_root_heavy:
            heavy.discard(root)
        self._adapt(heavy)
        for path in self._reference_nodes:
            buf = self.reference.setdefault(path, deque(maxlen=config.window_units))
            buf.append(float(raw.get(path, 0.0)))
        paths = sorted(heavy)
        actuals: list[float] = []
        forecasts: list[float] = []
        for path in paths:
            if path == root and path not in shhh.modified_weights:
                value = float(raw.get(path, 0.0))  # a tracked root's fallback
            else:
                value = float(shhh.modified_weights.get(path, 0.0))
            actuals.append(value)
            forecasts.append(self.series[path].append(value))
        self.stats.update(self.timeunit, raw)
        anomalies = []
        for path, actual, forecast in zip(paths, actuals, forecasts):
            anomaly = self.detector.check(
                path, self.timeunit, actual, forecast, depth=len(path), algorithm=self.name
            )
            if anomaly is not None:
                anomalies.append(anomaly)
        self.last_result = TimeunitResult(
            self.timeunit,
            paths,
            np.array(actuals, dtype=np.float64),
            np.array(forecasts, dtype=np.float64),
            tuple(anomalies),
        )
        return self.last_result

    # ------------------------------------------------------------------
    # The SPLIT / MERGE cascade (Figs. 7 and 8)
    # ------------------------------------------------------------------
    def _adapt(self, heavy: set[CategoryPath]) -> None:
        series = self.series
        # SPLIT, top-down in (depth, lex) order: a new heavy hitter derives
        # its series from its nearest ancestor holding one, level by level.
        for path in sorted((p for p in heavy if p not in series), key=lambda p: (len(p), p)):
            if path in series:
                continue  # an earlier cascade of this phase created it
            donor = _nearest(path, series)
            if donor is None:
                series[path] = ReferenceSeries(self.config.window_units, self.config.forecast)
                continue
            current = donor
            while current != path:
                child = path[: len(current) + 1]
                receivers = [
                    path for path in self.tree.children(current) if path not in series
                ]
                if child not in receivers:
                    receivers.append(child)
                ratios = self.split_rule.ratios(
                    {p: self.stats.view(p, self.timeunit) for p in receivers}
                )
                self.split(current, child, ratios.get(child, 1.0 / len(receivers)))
                self.split_operations += 1
                self.correct(child)
                current = child
        # MERGE, bottom-up: a series whose node stopped being heavy folds
        # into its nearest heavy ancestor, or is dropped without one.
        stale = sorted((p for p in series if p not in heavy), key=lambda p: (len(p), p))
        for path in reversed(stale):
            self.merge(path, _nearest(path, heavy))
            self.merge_operations += 1

    def split(self, donor: CategoryPath, child: CategoryPath, ratio: float) -> None:
        """``child`` takes the ``ratio`` share of ``donor``'s series and
        ``donor`` keeps ``1 - ratio``."""
        parent = self.series[donor]
        self.series[donor] = parent.scaled(1.0 - ratio)
        self.series[child] = parent.scaled(ratio)

    def correct(self, path: CategoryPath) -> None:
        """§V-B5: ``path``'s series becomes its reference series minus those
        of its tracked descendants, subtracted in tracking order and aligned
        on the newest element."""
        reference = self.reference.get(path)
        if not reference:
            return
        corrected = list(reference)
        depth = len(path)
        for other, series in self.series.items():
            if len(other) > depth and other[:depth] == path:
                descendant = list(series.actual)[-len(corrected) :]
                offset = len(corrected) - len(descendant)
                for position, value in enumerate(descendant):
                    corrected[offset + position] -= value
        self.series[path].replace_actual(corrected)

    def merge(self, path: CategoryPath, target: "CategoryPath | None") -> None:
        """``path``'s series folds into ``target``'s, becomes it when
        ``target`` holds none, or is dropped when ``target`` is None."""
        source = self.series.pop(path)
        if target is None:
            return
        existing = self.series.get(target)
        if existing is None:
            self.series[target] = source
        else:
            existing.merge_from(source)

    # ------------------------------------------------------------------
    # Checkpointing (the canonical per-path format)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        stats_rows, last_rows = self.stats.emit()
        return {
            "timeunit": self.timeunit,
            "split_operations": self.split_operations,
            "merge_operations": self.merge_operations,
            "stage_seconds": {
                "updating_hierarchies": 0.0,
                "creating_time_series": 0.0,
                "detecting_anomalies": 0.0,
            },
            "series": [[list(path), s.state_dict()] for path, s in self.series.items()],
            "reference": [[list(path), list(buf)] for path, buf in self.reference.items()],
            "stats": stats_rows,
            "stats_last_unit": last_rows,
        }

    def load_state_dict(self, state: dict) -> None:
        forecast = self.config.forecast
        self.timeunit = int(state["timeunit"])
        self.split_operations = int(state["split_operations"])
        self.merge_operations = int(state["merge_operations"])
        self.series = {
            tuple(path): ReferenceSeries.from_state_dict(series, forecast)
            for path, series in state["series"]
        }
        self.reference = {
            tuple(path): deque((float(v) for v in values), maxlen=self.config.window_units)
            for path, values in state["reference"]
        }
        self.stats.load(state["stats"], state["stats_last_unit"])
        self.last_result = None


def _nearest(path: CategoryPath, members) -> "CategoryPath | None":
    """The closest strict ancestor of ``path`` in ``members``."""
    for depth in range(len(path) - 1, -1, -1):
        if path[:depth] in members:
            return path[:depth]
    return None


__all__ = [
    "ReferenceADA",
    "ReferenceSeries",
    "ReferenceStats",
    "ScalarRow",
    "aligned_add",
]
