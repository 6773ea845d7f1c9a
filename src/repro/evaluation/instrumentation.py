"""Runtime and memory instrumentation (Tables III and IV).

The paper reports per-stage running time (Reading Traces, Updating
Hierarchies, Creating Time Series, Detecting Anomalies) and a normalized
memory cost (total memory / average tree size / per-node cost).  This module
provides a runtime summary that mirrors Table III's rows and the
normalized-memory computation used for Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ConfigurationError

#: Table III's canonical stage names, in presentation order.
STAGE_ORDER: tuple[str, ...] = (
    "reading_traces",
    "updating_hierarchies",
    "creating_time_series",
    "detecting_anomalies",
)


@dataclass(frozen=True)
class RuntimeSummary:
    """Per-stage runtime breakdown for one algorithm run (one Table III column)."""

    algorithm: str
    timeunit_seconds: float
    stage_seconds: dict[str, float]

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def stage_share(self, stage: str) -> float:
        """Fraction of the total time spent in ``stage``."""
        total = self.total_seconds
        if total <= 0:
            return 0.0
        return self.stage_seconds.get(stage, 0.0) / total

    def rows(self) -> list[tuple[str, float, float]]:
        """(stage, seconds, share) rows in Table III order."""
        rows = []
        for stage in STAGE_ORDER:
            seconds = self.stage_seconds.get(stage, 0.0)
            rows.append((stage, seconds, self.stage_share(stage)))
        return rows


@dataclass(frozen=True)
class MemorySummary:
    """Normalized memory cost for one algorithm run (one Table IV row).

    The paper normalizes the total memory cost by the average number of nodes
    in the tree and by the per-node cost, yielding a unitless "how many node
    equivalents per tree node" figure.  We use stored scalars as the cost
    proxy (``memory_units`` from the algorithms).
    """

    algorithm: str
    reference_levels: int | None
    memory_units: int
    tree_nodes: int

    @property
    def normalized(self) -> float:
        if self.tree_nodes <= 0:
            raise ConfigurationError("tree_nodes must be positive")
        return self.memory_units / self.tree_nodes

    def ratio_to(self, other: "MemorySummary") -> float:
        """This run's normalized cost relative to ``other`` (ADA / STA in Table IV)."""
        if other.normalized <= 0:
            return float("inf")
        return self.normalized / other.normalized


def summarize_runtime(
    algorithm_name: str,
    timeunit_seconds: float,
    stage_seconds: Mapping[str, float],
) -> RuntimeSummary:
    """Build a :class:`RuntimeSummary`, filling missing stages with zero."""
    stages = {stage: float(stage_seconds.get(stage, 0.0)) for stage in STAGE_ORDER}
    for name, value in stage_seconds.items():
        stages.setdefault(name, float(value))
    return RuntimeSummary(
        algorithm=algorithm_name,
        timeunit_seconds=timeunit_seconds,
        stage_seconds=stages,
    )


def format_runtime_table(summaries: list[RuntimeSummary]) -> str:
    """Plain-text rendering of Table III from a list of runs."""
    lines = []
    header = "stage".ljust(24) + "".join(
        f"{s.algorithm} (Δ={s.timeunit_seconds / 60:.0f}m)".rjust(22) for s in summaries
    )
    lines.append(header)
    for stage in STAGE_ORDER:
        row = stage.ljust(24)
        for summary in summaries:
            seconds = summary.stage_seconds.get(stage, 0.0)
            share = summary.stage_share(stage)
            row += f"{seconds:10.3f}s ({share:5.1%})".rjust(22)
        lines.append(row)
    total_row = "total".ljust(24) + "".join(
        f"{s.total_seconds:10.3f}s".rjust(22) for s in summaries
    )
    lines.append(total_row)
    return "\n".join(lines)


def format_memory_table(summaries: list[MemorySummary]) -> str:
    """Plain-text rendering of Table IV from a list of runs."""
    lines = ["algorithm".ljust(16) + "ref levels".rjust(12) + "normalized".rjust(14)]
    for summary in summaries:
        ref = "N/A" if summary.reference_levels is None else str(summary.reference_levels)
        lines.append(
            summary.algorithm.ljust(16) + ref.rjust(12) + f"{summary.normalized:14.1f}"
        )
    return "\n".join(lines)
