"""CCDF utilities for the sparsity characterization (Fig. 1).

The paper plots, per hierarchy level, the complementary cumulative
distribution function of the normalized per-(node, timeunit) count of
appearances.  These helpers compute the same distributions from a record
batch so the Fig. 1 benchmark can print comparable curves, and expose the
"fraction of empty (node, timeunit) cells" sparsity statistic quoted in
§II-B (≈93 % empty CO-level cells for CCD).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro._types import CategoryPath
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord


@dataclass(frozen=True)
class LevelCCDF:
    """CCDF of normalized per-(node, timeunit) counts for one hierarchy level."""

    depth: int
    points: tuple[tuple[float, float], ...]
    """Sorted (normalized count, CCDF) pairs."""
    empty_fraction: float
    """Fraction of (node, timeunit) cells with zero count."""

    def ccdf_at(self, normalized_count: float) -> float:
        """Fraction of cells with normalized count >= ``normalized_count``."""
        value = 0.0
        for x, y in self.points:
            if x >= normalized_count:
                return y
            value = y
        return 0.0 if self.points else value


def per_level_counts(
    tree: HierarchyTree,
    records: Sequence[OperationalRecord],
    clock: SimulationClock,
    num_units: int,
) -> dict[int, dict[tuple[CategoryPath, int], int]]:
    """Per-(node, timeunit) aggregated counts, grouped by hierarchy depth."""
    counts: dict[int, dict[tuple[CategoryPath, int], int]] = {}
    for record in records:
        unit = clock.timeunit_of(record.timestamp)
        if not 0 <= unit < num_units:
            continue
        path = tuple(record.category)
        if path not in tree:
            continue
        # The node and its ancestors: every prefix of its path.
        for depth in range(len(path), -1, -1):
            level = counts.setdefault(depth, {})
            key = (path[:depth], unit)
            level[key] = level.get(key, 0) + 1
    return counts


def level_ccdf(
    tree: HierarchyTree,
    records: Sequence[OperationalRecord],
    clock: SimulationClock,
    num_units: int,
    depth: int,
) -> LevelCCDF:
    """The Fig. 1 curve for one hierarchy depth.

    Counts are normalized by the maximum per-cell count observed across the
    whole hierarchy and trace (the paper normalizes per dataset), and the
    CCDF is taken over all (node, timeunit) cells of the level, including
    empty ones.
    """
    return _level_curves(tree, records, clock, num_units, [depth])[depth]


def all_level_ccdfs(
    tree: HierarchyTree,
    records: Sequence[OperationalRecord],
    clock: SimulationClock,
    num_units: int,
) -> dict[int, LevelCCDF]:
    """Fig. 1 curves for every level of the hierarchy (depth 0 = root),
    from one pass over the records."""
    return _level_curves(tree, records, clock, num_units, range(tree.depth))


def _level_curves(
    tree: HierarchyTree,
    records: Sequence[OperationalRecord],
    clock: SimulationClock,
    num_units: int,
    depths: Sequence[int],
) -> dict[int, LevelCCDF]:
    """:func:`level_ccdf` of each of ``depths``, counting the records once."""
    all_counts = per_level_counts(tree, records, clock, num_units)
    global_max = max(
        (count for level in all_counts.values() for count in level.values()),
        default=1,
    )
    curves = {}
    for depth in depths:
        level = all_counts.get(depth, {})
        total_cells = max(len(tree.paths_at_depth(depth)) * num_units, 1)
        non_empty = Counter(level.values())
        empty_cells = total_cells - sum(non_empty.values())

        points: list[tuple[float, float]] = []
        # CCDF over the distinct observed counts, largest first.
        distinct = sorted(non_empty, reverse=True)
        cumulative = 0
        for count in distinct:
            cumulative += non_empty[count]
            points.append((count / global_max, cumulative / total_cells))
        points.reverse()
        curves[depth] = LevelCCDF(
            depth=depth,
            points=tuple(points),
            empty_fraction=empty_cells / total_cells,
        )
    return curves
