"""Time-series based anomaly detection (Definition 4).

An anomalous event occurs at a heavy hitter ``n`` in the latest timeunit iff
both the relative and the absolute deviation of the actual value from the
forecast exceed their thresholds::

    T[n, 1] / F[n, 1] > RT   and   T[n, 1] - F[n, 1] > DT

Using both conditions suppresses false detections at daily peaks (where a
small relative error is a large absolute count) and at daily dips (where a
tiny absolute excess is a large ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro._types import CategoryPath, TimeunitIndex
from repro.core.config import TiresiasConfig

#: Floor applied to the forecast before taking the ratio, so that a node
#: whose forecast is (near) zero does not alarm on a single stray record;
#: the absolute threshold DT remains the binding condition there.
MINIMUM_FORECAST = 0.5


@dataclass(frozen=True)
class Anomaly:
    """One detected anomalous event.

    Attributes
    ----------
    node_path:
        Path of the heavy hitter node where the anomaly was located.
    timeunit:
        Index of the detection timeunit.
    actual:
        Observed (modified) weight ``T[n, 1]``.
    forecast:
        Forecast ``F[n, 1]``.
    depth:
        Depth of the node in the hierarchy (0 = root), used by the evaluation
        to report where anomalies are localized (Table VI discussion).
    metadata:
        Free-form extra attributes (dataset name, wall-clock timestamp, ...).
    """

    node_path: CategoryPath
    timeunit: TimeunitIndex
    actual: float
    forecast: float
    depth: int = 0
    metadata: Mapping[str, Any] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Relative deviation ``T / F`` (``inf`` when the forecast is zero)."""
        if self.forecast <= 0:
            return float("inf") if self.actual > 0 else 0.0
        return self.actual / self.forecast

    @property
    def excess(self) -> float:
        """Absolute deviation ``T - F``."""
        return self.actual - self.forecast

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_path": list(self.node_path),
            "timeunit": self.timeunit,
            "actual": self.actual,
            "forecast": self.forecast,
            "depth": self.depth,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Anomaly":
        """Inverse of :meth:`to_dict` (used by the JSONL store and checkpoints)."""
        return cls(
            node_path=tuple(data["node_path"]),
            timeunit=int(data["timeunit"]),
            actual=float(data["actual"]),
            forecast=float(data["forecast"]),
            depth=int(data.get("depth", len(data["node_path"]))),
            metadata=data.get("metadata", {}),
        )


class ThresholdDetector:
    """Applies the paper's dual-threshold rule to (actual, forecast) pairs.

    Parameters
    ----------
    config:
        Provides ``ratio_threshold`` (RT) and ``difference_threshold`` (DT).
        The forecast is floored at :data:`MINIMUM_FORECAST` for the ratio.
    """

    def __init__(self, config: TiresiasConfig):
        self.config = config

    def is_anomalous(self, actual: float, forecast: float) -> bool:
        """Check Definition 4 for a single (actual, forecast) pair."""
        floored = max(forecast, MINIMUM_FORECAST)
        ratio_exceeded = actual / floored > self.config.ratio_threshold
        excess_exceeded = (actual - forecast) > self.config.difference_threshold
        return ratio_exceeded and excess_exceeded

    def check(
        self,
        node_path: CategoryPath,
        timeunit: TimeunitIndex,
        actual: float,
        forecast: float,
        depth: int = 0,
        **metadata: Any,
    ) -> Anomaly | None:
        """Return an :class:`Anomaly` when the pair violates the thresholds."""
        if not self.is_anomalous(actual, forecast):
            return None
        return Anomaly(
            node_path=tuple(node_path),
            timeunit=timeunit,
            actual=float(actual),
            forecast=float(forecast),
            depth=depth,
            metadata=metadata,
        )

    def check_many(
        self,
        node_paths: Sequence[CategoryPath],
        timeunit: TimeunitIndex,
        actuals: Sequence[float],
        forecasts: Sequence[float],
        *,
        rows: "np.ndarray | None" = None,
        **metadata: Any,
    ) -> list[Anomaly]:
        """Batch dual-threshold evaluation over parallel (actual, forecast) arrays.

        One vectorized comparison replaces the per-node :meth:`check` loop of
        the close path; anomalies come back in input order (callers pass the
        canonical sorted heavy-hitter order).  Position ``i`` is the node
        ``node_paths[i]``, or ``node_paths[rows[i]]`` when ``rows`` is given
        (a path table and the row ids into it, as ADA's close holds them);
        a path is looked up only for a flagged position.  Each node's depth
        is its path length, as in the per-node calls of the online
        algorithms.  Results are bit-for-bit those of :meth:`check` — the
        same float64 expressions evaluated element-wise.
        """
        if not len(actuals):
            return []
        actual_arr = np.asarray(actuals, dtype=np.float64)
        forecast_arr = np.asarray(forecasts, dtype=np.float64)
        if len(actual_arr) == 1:
            flagged = (
                [0]
                if self.is_anomalous(float(actual_arr[0]), float(forecast_arr[0]))
                else []
            )
        else:
            floored = np.maximum(forecast_arr, MINIMUM_FORECAST)
            flagged = np.flatnonzero(
                (actual_arr / floored > self.config.ratio_threshold)
                & ((actual_arr - forecast_arr) > self.config.difference_threshold)
            ).tolist()
        anomalies = []
        for i in flagged:
            path = tuple(node_paths[i if rows is None else rows[i]])
            anomalies.append(
                Anomaly(
                    node_path=path,
                    timeunit=timeunit,
                    actual=float(actual_arr[i]),
                    forecast=float(forecast_arr[i]),
                    depth=len(path),
                    metadata=dict(metadata),
                )
            )
        return anomalies
