"""Reference detection method: control charts on first-level aggregates.

The paper compares Tiresias against "an existing approach based on applying
control charts to time series of aggregates at the first network level (the
VHO level)", used by the ISP's operations team (§VII-B).  That approach is not
published in detail, so the reproduction implements the standard Shewhart
individuals control chart: for each level-1 aggregate, an exponentially
weighted baseline mean and deviation are maintained, and a timeunit alarms
when the observed count exceeds ``mean + k * deviation``.

Crucially, the reference method only monitors the first level -- it cannot
localize anomalies deeper in the hierarchy, which is exactly the gap Table VI
shows Tiresias closing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.detector import Anomaly
from repro.core.hhh import accumulate_raw_weights
from repro.exceptions import ConfigurationError
from repro.hierarchy.tree import HierarchyTree


@dataclass
class _ChartState:
    """Per-aggregate running mean / deviation of the monitored count."""

    mean: float = 0.0
    deviation: float = 0.0
    observations: int = 0


class ControlChartDetector:
    """Shewhart-style control chart over the level-``depth`` aggregates.

    Parameters
    ----------
    tree:
        The monitored hierarchy.
    depth:
        Hierarchy level to monitor (1 = the children of the root, i.e. the
        paper's VHO level for the network hierarchy).
    k_sigma:
        Alarm threshold in deviations above the running mean.
    smoothing:
        EWMA rate used for the running mean and deviation.
    min_observations:
        Number of timeunits observed before a chart may alarm (warm-up).
    min_excess:
        Minimum absolute excess over the mean required to alarm, suppressing
        alarms on near-zero aggregates.
    seasonal_period:
        When set (in timeunits, e.g. 96 for a day of 15-minute units), a
        separate chart is kept per phase of the period, i.e. the baseline is
        the historical mean for that time of day.  Operations teams typically
        run their control charts against time-of-day baselines; without this
        the chart alarms on every morning ramp-up.
    """

    name = "control-chart"

    def __init__(
        self,
        tree: HierarchyTree,
        depth: int = 1,
        k_sigma: float = 3.0,
        smoothing: float = 0.1,
        min_observations: int = 24,
        min_excess: float = 5.0,
        seasonal_period: int | None = None,
    ):
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if k_sigma <= 0:
            raise ConfigurationError("k_sigma must be positive")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in (0, 1]")
        if min_observations < 1:
            raise ConfigurationError("min_observations must be >= 1")
        if seasonal_period is not None and seasonal_period < 1:
            raise ConfigurationError("seasonal_period must be >= 1 when given")
        self.tree = tree
        self.depth = depth
        self.k_sigma = k_sigma
        self.smoothing = smoothing
        self.min_observations = min_observations
        self.min_excess = min_excess
        self.seasonal_period = seasonal_period
        self._monitored: tuple[CategoryPath, ...] = tuple(tree.paths_at_depth(depth))
        self._charts: dict[tuple[CategoryPath, int], _ChartState] = {}
        self._observed_units: dict[CategoryPath, int] = {path: 0 for path in self._monitored}
        self._timeunit: TimeunitIndex = -1
        self.anomalies: list[Anomaly] = []

    # ------------------------------------------------------------------

    def _phase(self) -> int:
        if self.seasonal_period is None:
            return 0
        return self._timeunit % self.seasonal_period

    def process_timeunit(
        self, leaf_counts: Mapping[CategoryPath, Weight], timeunit: TimeunitIndex | None = None
    ) -> list[Anomaly]:
        """Ingest one timeunit of counts; returns the alarms it raised."""
        self._timeunit = self._timeunit + 1 if timeunit is None else timeunit
        raw = accumulate_raw_weights(self.tree, leaf_counts)
        phase = self._phase()
        alarms: list[Anomaly] = []
        for path in self._monitored:
            value = float(raw.get(path, 0.0))
            chart = self._charts.setdefault((path, phase), _ChartState())
            if self._observed_units[path] >= self.min_observations and chart.observations >= 1:
                threshold = chart.mean + self.k_sigma * max(chart.deviation, 1e-6)
                excess = value - chart.mean
                if value > threshold and excess > self.min_excess:
                    alarms.append(
                        Anomaly(
                            node_path=path,
                            timeunit=self._timeunit,
                            actual=value,
                            forecast=chart.mean,
                            depth=self.depth,
                            metadata={"method": self.name},
                        )
                    )
            # Update the chart after the decision so the spike itself does not
            # immediately inflate the baseline.
            error = value - chart.mean
            if chart.observations == 0:
                chart.mean = value
                chart.deviation = abs(value) * 0.25
            else:
                chart.mean += self.smoothing * error
                chart.deviation = (
                    (1 - self.smoothing) * chart.deviation + self.smoothing * abs(error)
                )
            chart.observations += 1
            self._observed_units[path] += 1
        self.anomalies.extend(alarms)
        return alarms
