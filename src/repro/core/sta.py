"""STA: the strawman per-timeunit reconstruction algorithm (§V-A, Fig. 4).

STA keeps the raw per-node weights of every timeunit in the sliding window
(conceptually the ℓ trees of Fig. 4).  At each time instance it

1. computes the succinct heavy hitter set of the newest timeunit with a
   bottom-up traversal (Definition 2), and
2. reconstructs, for every heavy hitter, the full time series of Definition 3
   by traversing all ℓ stored timeunits, then refits the forecasting model on
   the history portion to obtain the forecast for the detection unit.

This is accurate by construction -- the paper (and our evaluation) uses STA as
the ground truth for ADA's time-series and detection accuracy -- but the time
series reconstruction cost grows with ℓ, which is exactly the bottleneck
Table III exposes.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Iterator, Mapping

import numpy as np

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.config import TiresiasConfig
from repro.core.detector import ThresholdDetector
from repro.core.hhh import accumulate_raw_weights
from repro.core.results import TimeunitResult
from repro.forecasting.bank import ForecasterBank
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree


class STAAlgorithm:
    """Strawman heavy hitter tracking with full per-instance reconstruction."""

    name = "STA"

    def __init__(self, tree: HierarchyTree, config: TiresiasConfig):
        self.tree = tree
        self.config = config
        self.detector = ThresholdDetector(config)
        #: Raw node weights for each retained timeunit (oldest first); this is
        #: the Python equivalent of keeping ℓ weighted trees alive.
        self._unit_weights: Deque[dict[CategoryPath, Weight]] = deque(
            maxlen=config.window_units
        )
        #: Dense id view shared with ADA's adaptation engine: the succinct
        #: heavy hitter pass runs as level sweeps over node ids (bit-exact,
        #: see :mod:`repro.hierarchy.index`) instead of the per-path scalar
        #: recursion.  The per-timeunit weight tables stay path-keyed dicts —
        #: they are the checkpoint format.
        self._index = HierarchyIndex(tree)
        self._timeunit: TimeunitIndex = -1
        self.stage_seconds: dict[str, float] = {
            "updating_hierarchies": 0.0,
            "creating_time_series": 0.0,
            "detecting_anomalies": 0.0,
        }
        self.last_result: TimeunitResult | None = None
        #: Band exclusion for ``min_heavy_depth > 1``: node ids at depths
        #: 1..m-1 never qualify as heavy.
        m = config.min_heavy_depth
        self._shallow_ids = None
        if m > 1:
            depths = self._index.depths
            self._shallow_ids = np.flatnonzero((depths >= 1) & (depths < m))

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------
    def process_timeunit(
        self, leaf_counts: Mapping[CategoryPath, Weight], timeunit: TimeunitIndex | None = None
    ) -> TimeunitResult:
        """Ingest the counts of one new timeunit and run detection on it."""
        self._timeunit = self._timeunit + 1 if timeunit is None else timeunit

        start = time.perf_counter()
        raw = accumulate_raw_weights(self.tree, leaf_counts)
        self._unit_weights.append(raw)
        index = self._index
        _raw, _modified, heavy = index.sweep(
            index.count_rows(leaf_counts), self.config.theta
        )
        heavy_mask = heavy[0]
        if self.config.track_root:
            heavy_mask[0] = True
        elif not self.config.allow_root_heavy:
            heavy_mask[0] = False
        if self._shallow_ids is not None:
            heavy_mask[self._shallow_ids] = False
        paths = index.paths
        heavy = {paths[i] for i in np.flatnonzero(heavy_mask).tolist()}
        self.stage_seconds["updating_hierarchies"] += time.perf_counter() - start

        start = time.perf_counter()
        series = self._reconstruct_series(heavy)
        forecasts = self._forecast(series)
        self.stage_seconds["creating_time_series"] += time.perf_counter() - start

        start = time.perf_counter()
        result = self._detect(heavy, series, forecasts)
        self.stage_seconds["detecting_anomalies"] += time.perf_counter() - start
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reconstruct_series(
        self, heavy: set[CategoryPath]
    ) -> dict[CategoryPath, list[float]]:
        """Definition 3 time series for every heavy hitter over the window."""
        return {path: self._exact_series(path, heavy) for path in sorted(heavy)}

    def _maximal_heavy_descendants(
        self, path: CategoryPath, heavy: "set[CategoryPath] | frozenset[CategoryPath]"
    ) -> Iterator[CategoryPath]:
        """The heavy descendants of ``path`` with no heavy node between: its
        subtree walked down to the first heavy node on every branch.  A heavy
        node carries weight in the newest retained unit, and so does every
        node above it, so the walk enters only the nodes that do."""
        newest = self._unit_weights[-1] if self._unit_weights else {}
        stack = [self.tree.node(path)]
        while stack:
            for child in stack.pop().children.values():
                if child.path in heavy:
                    yield child.path
                elif child.path in newest:
                    stack.append(child)

    def _exact_series(
        self, path: CategoryPath, heavy: "set[CategoryPath] | frozenset[CategoryPath]"
    ) -> list[float]:
        """``path``'s Definition-3 series over the retained window: its raw
        weight minus those of its maximal heavy descendants, unit by unit,
        against the current heavy set — SHHH's modified weight for the
        newest unit."""
        below = list(self._maximal_heavy_descendants(path, heavy))
        values: list[float] = []
        for unit_weights in self._unit_weights:
            value = unit_weights.get(path, 0.0)
            for other in below:
                value -= unit_weights.get(other, 0.0)
            values.append(value)
        return values

    def _forecast(
        self, series: dict[CategoryPath, list[float]]
    ) -> dict[CategoryPath, Weight]:
        """Refit a forecasting model on each heavy hitter's history.

        STA has no persistent forecaster state: the models are rebuilt from
        the reconstructed histories at every time instance, which is exactly
        why "Creating Time Series" dominates its running time (Table III).
        The refit drives all heavy hitters through one throwaway
        :class:`~repro.forecasting.bank.ForecasterBank` in lockstep — every
        reconstructed history spans the same retained window, so each
        timeunit is one ``observe_rows`` call (bit-identical to the per-node
        scalar replay).
        """
        if not series:
            return {}
        paths = list(series)
        histories = [series[path][:-1] for path in paths]
        steps = len(histories[0])
        if steps == 0:
            return {path: 0.0 for path in paths}
        bank = ForecasterBank(self.config.forecast)
        rows = np.array([bank.new_row() for _ in paths], dtype=np.intp)
        columns = np.array(histories, dtype=np.float64).T
        for column in columns:
            bank.observe_rows(rows, column)
        return {path: bank.forecast(row) for path, row in zip(paths, rows.tolist())}

    def _detect(
        self,
        heavy: set[CategoryPath],
        series: dict[CategoryPath, list[float]],
        forecasts: dict[CategoryPath, Weight],
    ) -> TimeunitResult:
        # Canonical (sorted) order so the anomaly sequence is identical across
        # processes regardless of hash randomization.
        paths = sorted(heavy)
        actual_values = np.array(
            [series[path][-1] if series[path] else 0.0 for path in paths],
            dtype=np.float64,
        )
        forecast_values = np.array(
            [forecasts.get(path, 0.0) for path in paths], dtype=np.float64
        )
        anomalies = self.detector.check_many(
            paths, self._timeunit, actual_values, forecast_values, algorithm=self.name
        )
        return TimeunitResult(
            self._timeunit, paths, actual_values, forecast_values, tuple(anomalies)
        )

    # ------------------------------------------------------------------
    # Introspection used by the evaluation harness
    # ------------------------------------------------------------------
    def series_for(self, path: CategoryPath) -> list[float]:
        """Current Definition-3 series for ``path`` (ground truth for ADA)."""
        heavy = self.last_result.heavy_hitters if self.last_result else frozenset()
        return self._exact_series(self.tree.node(tuple(path)).path, heavy)

    def memory_units(self) -> int:
        """Number of stored scalar weights (the Table IV cost proxy)."""
        return sum(len(unit) for unit in self._unit_weights)

    @property
    def current_timeunit(self) -> TimeunitIndex:
        return self._timeunit

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot: the retained per-timeunit weight tables."""
        return {
            "timeunit": self._timeunit,
            "stage_seconds": dict(self.stage_seconds),
            "unit_weights": [
                [[list(path), weight] for path, weight in unit.items()]
                for unit in self._unit_weights
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` (same tree/config)."""
        self._timeunit = int(state["timeunit"])
        self.stage_seconds = {k: float(v) for k, v in state["stage_seconds"].items()}
        self._unit_weights = deque(
            (
                {tuple(path): float(weight) for path, weight in unit}
                for unit in state["unit_weights"]
            ),
            maxlen=self.config.window_units,
        )
        self.last_result = None
