"""The hierarchy front end ADA and STA share.

Both algorithms compute the succinct heavy hitters of a timeunit
(Definition 2) with the same bottom-up pass and differ only in how they keep
series: ADA adapts one series per heavy hitter (§V-B), STA rebuilds them
from the ℓ retained weight tables (§V-A).  :class:`HierarchyTracker` holds
what comes before that difference — the tree, the config, the dense
:class:`~repro.hierarchy.index.HierarchyIndex` and the detector — and the
one hierarchy update, :meth:`~HierarchyTracker.sweep_timeunits`: raw
weights, modified weights and heavy masks of any number of timeunits from
one :meth:`HierarchyIndex.sweep <repro.hierarchy.index.HierarchyIndex.sweep>`,
under the config's root and ``min_heavy_depth`` rules.

A subclass implements ``_close(timeunit, raw, modified, heavy)``, the close
of one swept row.  The session closes every unit through
:meth:`~HierarchyTracker.close_swept`, each a row of a batch's count matrix or
a one-row matrix of its open unit's node ids;
:meth:`~HierarchyTracker.process_timeunit` is the same close for one
timeunit of per-path counts (:meth:`HierarchyIndex.count_rows
<repro.hierarchy.index.HierarchyIndex.count_rows>`, one row), which the
comparator, the paper benchmarks and the examples call.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.config import TiresiasConfig
from repro.core.detector import ThresholdDetector
from repro.core.results import TimeunitResult
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree


class HierarchyTracker:
    """Heavy hitter tracking over one hierarchy: the shared front end."""

    def __init__(self, tree: HierarchyTree, config: TiresiasConfig):
        self.tree = tree
        self.config = config
        self.detector = ThresholdDetector(config)
        #: The tree's shared dense view: the level sweeps run over its ids.
        self._index = HierarchyIndex.of(tree)
        self._timeunit: TimeunitIndex = -1
        self.stage_seconds: dict[str, float] = {
            "updating_hierarchies": 0.0,
            "creating_time_series": 0.0,
            "detecting_anomalies": 0.0,
        }
        self.last_result: TimeunitResult | None = None
        #: Band exclusion for ``min_heavy_depth > 1``: node ids at depths
        #: 1..m-1 never qualify as heavy (the root follows the
        #: track_root/allow_root_heavy flags).
        m = config.min_heavy_depth
        self._shallow_ids = None
        if m > 1:
            depths = self._index.depths
            self._shallow_ids = np.flatnonzero((depths >= 1) & (depths < m))

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------
    def process_timeunit(
        self, counts: Mapping[CategoryPath, Weight], timeunit: TimeunitIndex | None = None
    ) -> TimeunitResult:
        """Ingest one timeunit's per-path counts and close it."""
        (swept,) = self.sweep_timeunits(self._index.count_rows(counts))
        return self._close(timeunit, *swept)

    def close_swept(
        self, swept: tuple, timeunit: TimeunitIndex | None = None
    ) -> TimeunitResult:
        """Close one timeunit from its :meth:`sweep_timeunits` triple."""
        return self._close(timeunit, *swept)

    def _close(
        self, timeunit: TimeunitIndex | None, raw_vec, modified_vec, heavy_mask
    ) -> TimeunitResult:
        """The algorithm's close of one swept row: advance the unit counter
        to ``timeunit`` (the next unit when ``None``) and detect on it."""
        raise NotImplementedError

    @property
    def num_node_ids(self) -> int:
        """Width of a dense count row: one slot per node id."""
        return self._index.num_nodes

    def dictionary_node_ids(self, dictionary):
        """Node id per path of a batch string-dictionary (-1 for unknown)."""
        return self._index.dictionary_ids(dictionary)

    def node_paths(self, ids) -> list[CategoryPath]:
        """The path of every node id in ``ids``."""
        paths = self._index.paths
        return [paths[node_id] for node_id in ids.tolist()]

    def sweep_timeunits(self, counts) -> list[tuple]:
        """The hierarchy update of several timeunits at once.

        ``counts`` is a ``(units, num_node_ids)`` float64 matrix of direct
        per-node counts, one row per timeunit (consumed).  SHHH depends on a
        timeunit's own counts and nothing else, so every row's raw weights,
        modified weights and heavy mask come out of one
        :meth:`HierarchyIndex.sweep`; returns one ``(raw, modified, heavy)``
        triple of row views per timeunit, each to be handed to
        :meth:`close_swept` in order.
        """
        start = time.perf_counter()
        raw, modified, heavy = self._index.sweep(counts, self.config.theta)
        if self.config.track_root:
            heavy[:, 0] = True
        elif not self.config.allow_root_heavy:
            heavy[:, 0] = False
        if self._shallow_ids is not None:
            # The shared ancestor band above min_heavy_depth never qualifies.
            heavy[:, self._shallow_ids] = False
        self.stage_seconds["updating_hierarchies"] += time.perf_counter() - start
        return list(zip(raw, modified, heavy))


__all__ = ["HierarchyTracker"]
