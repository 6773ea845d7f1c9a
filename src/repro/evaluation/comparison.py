"""Side-by-side evaluation of ADA against the STA ground truth (§VII-A).

The paper quantifies ADA's approximation error in two ways:

* **time series accuracy** (Fig. 12): per-timeunit absolute error between
  ADA's adapted series and the exact series STA reconstructs, broken down by
  timeunit age and node depth; and
* **anomaly detection accuracy** (Table V): accuracy / precision / recall of
  ADA's per-(node, timeunit) anomaly decisions against STA's.

:class:`AlgorithmComparator` drives both algorithms over the same per-timeunit
counts and accumulates those statistics.  STA reads neither the split rule
nor the reference levels, so comparators that differ only in those can
share one recorded STA pass (:class:`STAPass`) instead of each running STA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro._types import CategoryPath, Weight
from repro.core.ada import ADAAlgorithm
from repro.core.config import TiresiasConfig
from repro.core.results import TimeunitResult
from repro.core.sta import STAAlgorithm
from repro.evaluation.metrics import Case, ConfusionMetrics, confusion_from_sets
from repro.exceptions import ConfigurationError
from repro.hierarchy.tree import HierarchyTree


@dataclass
class SeriesErrorStats:
    """Accumulates absolute series errors bucketed by timeunit age and depth."""

    by_age: dict[int, list[float]] = field(default_factory=dict)
    by_depth: dict[int, list[float]] = field(default_factory=dict)

    def record(self, age: int, depth: int, error: float, scale: float) -> None:
        relative = error / max(scale, 1.0)
        self.by_age.setdefault(age, []).append(relative)
        self.by_depth.setdefault(depth, []).append(relative)

    @staticmethod
    def _mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def mean_by_age(self) -> dict[int, float]:
        """Mean relative absolute error per timeunit age (0 = newest)."""
        return {age: self._mean(values) for age, values in sorted(self.by_age.items())}

    def mean_by_depth(self) -> dict[int, float]:
        """Mean relative absolute error per hierarchy depth."""
        return {
            depth: self._mean(values) for depth, values in sorted(self.by_depth.items())
        }

    def overall_mean(self) -> float:
        values = [v for bucket in self.by_age.values() for v in bucket]
        return self._mean(values)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of running ADA and STA side by side on the same trace."""

    detection: ConfusionMetrics
    series_errors: SeriesErrorStats
    heavy_hitter_mismatches: int
    timeunits: int
    ada_stage_seconds: dict[str, float]
    sta_stage_seconds: dict[str, float]
    ada_memory_units: int
    sta_memory_units: int

    @property
    def heavy_hitter_agreement(self) -> float:
        """Fraction of timeunits where ADA and STA found the same SHHH set."""
        if self.timeunits == 0:
            return 1.0
        return 1.0 - self.heavy_hitter_mismatches / self.timeunits

    @property
    def speedup(self) -> float:
        """STA-to-ADA ratio of total algorithm time (excluding trace reading)."""
        ada_total = sum(self.ada_stage_seconds.values())
        sta_total = sum(self.sta_stage_seconds.values())
        if ada_total <= 0:
            return float("inf")
        return sta_total / ada_total


#: The config fields STA never reads: a recorded pass serves every value.
_ADA_ONLY_FIELDS = ("split_rule", "split_ewma_alpha", "reference_levels")


@dataclass(frozen=True)
class STAPass:
    """One STA pass over a trace, as :class:`AlgorithmComparator` reads it.

    ``units`` holds, per timeunit, STA's result and the newest ``samples``
    values of each heavy hitter's exact series; ``stage_seconds`` and
    ``memory_units`` are STA's at the end of the pass.
    """

    config: TiresiasConfig
    samples: int
    units: list[tuple[TimeunitResult, dict[CategoryPath, list[float]]]]
    stage_seconds: dict[str, float]
    memory_units: int

    @classmethod
    def run(
        cls,
        tree: HierarchyTree,
        config: TiresiasConfig,
        units: Iterable[Mapping[CategoryPath, Weight]],
        samples: int = 8,
    ) -> "STAPass":
        sta = STAAlgorithm(tree, config)
        recorded = []
        for counts in units:
            result = sta.process_timeunit(counts)
            newest = {path: sta.series_for(path)[-samples:] for path in result.heavy_hitters}
            recorded.append((result, newest))
        return cls(config, samples, recorded, dict(sta.stage_seconds), sta.memory_units())


class AlgorithmComparator:
    """Runs ADA and STA on identical input and scores ADA against STA.

    With ``sta_pass`` the STA side is read from that recorded pass, unit by
    unit, instead of being run; its config must equal ``config`` but for the
    fields only ADA reads.
    """

    def __init__(
        self,
        tree: HierarchyTree,
        config: TiresiasConfig,
        series_error_samples: int = 8,
        warmup_units: int = 0,
        sta_pass: STAPass | None = None,
    ):
        self.tree = tree
        self.config = config
        self.ada = ADAAlgorithm(tree, config)
        if sta_pass is None:
            self.sta = STAAlgorithm(tree, config)
        else:
            same = {name: getattr(sta_pass.config, name) for name in _ADA_ONLY_FIELDS}
            if config.replace(**same) != sta_pass.config:
                raise ConfigurationError("the recorded STA pass ran on a different config")
            if sta_pass.samples != series_error_samples:
                raise ConfigurationError("the recorded STA pass kept a different series sample")
        self.sta_pass = sta_pass
        self.series_error_samples = series_error_samples
        self.warmup_units = warmup_units
        self._errors = SeriesErrorStats()
        self._ada_detections: set[Case] = set()
        self._sta_detections: set[Case] = set()
        self._universe: set[Case] = set()
        self._mismatches = 0
        self._units = 0

    # ------------------------------------------------------------------
    def process_timeunit(
        self, counts: Mapping[CategoryPath, Weight]
    ) -> tuple[TimeunitResult, TimeunitResult]:
        """Feed one timeunit to both algorithms and accumulate statistics."""
        ada_result = self.ada.process_timeunit(counts)
        if self.sta_pass is None:
            sta_result, newest = self.sta.process_timeunit(counts), None
        else:
            sta_result, newest = self.sta_pass.units[self._units]
        self._units += 1

        if ada_result.heavy_hitters != sta_result.heavy_hitters:
            self._mismatches += 1

        if self._units > self.warmup_units:
            unit = ada_result.timeunit
            for anomaly in ada_result.anomalies:
                self._ada_detections.add((anomaly.node_path, unit))
            for anomaly in sta_result.anomalies:
                self._sta_detections.add((anomaly.node_path, unit))
            for path in sta_result.heavy_hitters:
                self._universe.add((path, unit))
            self._accumulate_series_errors(sta_result.heavy_hitters, newest)
        return ada_result, sta_result

    def process_many(
        self, units: Iterable[Mapping[CategoryPath, Weight]]
    ) -> list[tuple[TimeunitResult, TimeunitResult]]:
        return [self.process_timeunit(counts) for counts in units]

    # ------------------------------------------------------------------
    def _accumulate_series_errors(
        self,
        heavy: frozenset[CategoryPath],
        newest: "dict[CategoryPath, list[float]] | None",
    ) -> None:
        """Compare the newest portion of ADA's series with STA's
        reconstruction (``newest``'s, when the STA side is recorded)."""
        for path in heavy:
            exact = self.sta.series_for(path) if newest is None else newest[path]
            approx = self.ada.series_for(path)
            if not exact or not approx:
                continue
            depth = len(path)
            scale = max(abs(v) for v in exact[-self.series_error_samples:]) or 1.0
            limit = min(self.series_error_samples, len(exact), len(approx))
            for age in range(limit):
                error = abs(approx[-(age + 1)] - exact[-(age + 1)])
                self._errors.record(age, depth, error, scale)

    # ------------------------------------------------------------------
    def report(self) -> ComparisonReport:
        """Summary of everything accumulated so far."""
        detection = confusion_from_sets(
            self._ada_detections, self._sta_detections, self._universe
        )
        if self.sta_pass is None:
            sta_seconds, sta_memory = dict(self.sta.stage_seconds), self.sta.memory_units()
        else:
            sta_seconds, sta_memory = dict(self.sta_pass.stage_seconds), self.sta_pass.memory_units
        return ComparisonReport(
            detection=detection,
            series_errors=self._errors,
            heavy_hitter_mismatches=self._mismatches,
            timeunits=self._units,
            ada_stage_seconds=dict(self.ada.stage_seconds),
            sta_stage_seconds=sta_seconds,
            ada_memory_units=self.ada.memory_units(),
            sta_memory_units=sta_memory,
        )
