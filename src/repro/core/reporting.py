"""Anomaly report store and query interface (Steps 5-6 / Fig. 3(f)).

The paper reports anomalies to a text database queried from a small web front
end.  The reproduction provides the same capability as a programmatic store:
anomalies are appended as they are detected, can be persisted to / loaded from
JSON Lines, and can be queried by time range, hierarchy subtree, depth, and
magnitude -- the lookups a network administrator would issue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro._types import CategoryPath, TimeunitIndex
from repro.core.detector import Anomaly


@dataclass(frozen=True)
class AnomalyQuery:
    """Filter describing which anomalies to retrieve.

    All criteria are optional and combined with logical AND.
    """

    start_timeunit: TimeunitIndex | None = None
    end_timeunit: TimeunitIndex | None = None
    subtree: CategoryPath | None = None
    min_depth: int | None = None
    max_depth: int | None = None
    min_excess: float | None = None
    min_ratio: float | None = None

    def matches(self, anomaly: Anomaly) -> bool:
        if self.start_timeunit is not None and anomaly.timeunit < self.start_timeunit:
            return False
        if self.end_timeunit is not None and anomaly.timeunit > self.end_timeunit:
            return False
        if self.subtree is not None:
            prefix = tuple(self.subtree)
            if anomaly.node_path[: len(prefix)] != prefix:
                return False
        if self.min_depth is not None and anomaly.depth < self.min_depth:
            return False
        if self.max_depth is not None and anomaly.depth > self.max_depth:
            return False
        if self.min_excess is not None and anomaly.excess < self.min_excess:
            return False
        if self.min_ratio is not None and anomaly.ratio < self.min_ratio:
            return False
        return True


class AnomalyReportStore:
    """Append-only store of detected anomalies with simple queries."""

    def __init__(self) -> None:
        self._anomalies: list[Anomaly] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_many(self, anomalies: Iterable[Anomaly]) -> None:
        self._anomalies.extend(anomalies)

    def __len__(self) -> int:
        return len(self._anomalies)

    def __iter__(self) -> Iterator[Anomaly]:
        return iter(self._anomalies)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: AnomalyQuery | None = None) -> list[Anomaly]:
        """All anomalies matching ``query`` (all of them when query is None)."""
        if query is None:
            return list(self._anomalies)
        return [a for a in self._anomalies if query.matches(a)]

    def by_timeunit(self) -> dict[TimeunitIndex, list[Anomaly]]:
        grouped: dict[TimeunitIndex, list[Anomaly]] = {}
        for anomaly in self._anomalies:
            grouped.setdefault(anomaly.timeunit, []).append(anomaly)
        return grouped

    def by_depth(self) -> dict[int, list[Anomaly]]:
        grouped: dict[int, list[Anomaly]] = {}
        for anomaly in self._anomalies:
            grouped.setdefault(anomaly.depth, []).append(anomaly)
        return grouped

    def deduplicate_ancestors(self) -> list[Anomaly]:
        """Drop anomalies that are ancestors of another anomaly in the same timeunit.

        This is the "simple data aggregation" the paper applies to new
        anomalies before reporting at which level they were localized.
        """
        kept: list[Anomaly] = []
        grouped = self.by_timeunit()
        for anomalies in grouped.values():
            for candidate in anomalies:
                is_ancestor = any(
                    other is not candidate
                    and len(other.node_path) > len(candidate.node_path)
                    and other.node_path[: len(candidate.node_path)] == candidate.node_path
                    for other in anomalies
                )
                if not is_ancestor:
                    kept.append(candidate)
        kept.sort(key=lambda a: (a.timeunit, a.node_path))
        return kept

    def depth_distribution(self, deduplicated: bool = True) -> dict[int, float]:
        """Fraction of anomalies per hierarchy depth (Table VI discussion)."""
        anomalies = self.deduplicate_ancestors() if deduplicated else list(self._anomalies)
        if not anomalies:
            return {}
        counts: dict[int, int] = {}
        for anomaly in anomalies:
            counts[anomaly.depth] = counts.get(anomaly.depth, 0) + 1
        total = len(anomalies)
        return {depth: count / total for depth, count in sorted(counts.items())}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_jsonl(self, path: str | Path) -> None:
        """Persist the store as one JSON object per line."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for anomaly in self._anomalies:
                handle.write(json.dumps(anomaly.to_dict()) + "\n")
