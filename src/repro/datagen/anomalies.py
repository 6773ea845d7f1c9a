"""Ground-truth anomaly injection for synthetic traces.

The paper validates Tiresias against a reference anomaly set produced by the
ISP's operations team.  The synthetic equivalent is exact ground truth: the
generator injects extra call/crash bursts at chosen hierarchy nodes and time
ranges, and records precisely where and when it did so.  The evaluation then
scores detections against these injections (Table VI style metrics).

The injected records are part of the trace's byte-identity contract (see
:mod:`repro.datagen.generator`): per active anomaly and unit, one draw for the
fractional count, then one leaf choice and one timestamp draw per record, in
that order.  The injector emits those draws as columns — no record objects —
and every record of one anomaly carries the same
:attr:`InjectedAnomaly.attributes`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro._types import CategoryPath, Timestamp
from repro.exceptions import DataGenerationError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock


@dataclass(frozen=True)
class InjectedAnomaly:
    """Specification (and ground-truth record) of one injected anomaly.

    Attributes
    ----------
    node_path:
        Hierarchy node affected by the event (records are generated at leaves
        of this node's subtree).
    start:
        Event start timestamp.
    duration:
        Event duration in seconds (the paper observes spikes from <30 minutes
        to >5 hours).
    extra_rate:
        Additional events per second attributable to the anomaly while it is
        active.
    label:
        Free-form description (e.g. ``"vho-outage"``).
    """

    node_path: CategoryPath
    start: Timestamp
    duration: float
    extra_rate: float
    label: str = "injected"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise DataGenerationError("anomaly duration must be positive")
        if self.extra_rate <= 0:
            raise DataGenerationError("anomaly extra_rate must be positive")

    @property
    def end(self) -> Timestamp:
        return self.start + self.duration

    @property
    def attributes(self) -> dict[str, Any]:
        """The attributes of every record the anomaly injects."""
        return {"injected": True, "label": self.label}

    def timeunits(self, clock: SimulationClock) -> range:
        """Indices of the timeunits the anomaly overlaps."""
        first = clock.timeunit_of(self.start)
        # The last timestamp before ``end``: a fixed epsilon vanishes once
        # timestamps reach wall-clock scale.
        last = clock.timeunit_of(math.nextafter(self.end, -math.inf))
        return range(first, last + 1)


@dataclass
class AnomalyInjector:
    """Draws the extra records for a set of injected anomalies.

    Parameters
    ----------
    tree:
        The hierarchy the anomalies live in; the affected node's leaves are
        sampled uniformly for each extra record.
    anomalies:
        The injection plan.
    seed:
        Seed of the injection RNG: every :meth:`new_rng` starts from it, so
        each trace replay draws the identical injections.
    """

    tree: HierarchyTree
    anomalies: list[InjectedAnomaly] = field(default_factory=list)
    seed: int = 7

    def __post_init__(self) -> None:
        # Leaf paths under each anomaly's node: the subtree is walked once.
        self._leaf_paths: dict[CategoryPath, list[CategoryPath]] = {}
        for anomaly in self.anomalies:
            self._check_node(anomaly)

    def new_rng(self) -> random.Random:
        """A fresh injection RNG, for one pass over the trace."""
        return random.Random(self.seed)

    def add(self, anomaly: InjectedAnomaly) -> None:
        self._check_node(anomaly)
        self.anomalies.append(anomaly)

    def _check_node(self, anomaly: InjectedAnomaly) -> None:
        if tuple(anomaly.node_path) not in self.tree:
            raise DataGenerationError(
                f"anomaly node {anomaly.node_path!r} is not in the hierarchy"
            )

    def _leaves_under(self, path: CategoryPath) -> list[CategoryPath]:
        leaves = self._leaf_paths.get(path)
        if leaves is None:
            leaves = self._leaf_paths[path] = self.tree.leaves_under(path)
        return leaves

    # ------------------------------------------------------------------
    def unit_rows(
        self, unit_start: Timestamp, clock: SimulationClock, rng: random.Random
    ) -> tuple[list[Timestamp], list[CategoryPath], list[int]]:
        """The extra records active anomalies add to one timeunit, as columns:
        their timestamps, their leaves and the index (into :attr:`anomalies`)
        of the anomaly that injected each one.  ``rng`` is the pass's
        injection RNG (:meth:`new_rng`), drawn from in the contract's order.
        """
        unit_end = unit_start + clock.delta
        timestamps: list[Timestamp] = []
        leaves_out: list[CategoryPath] = []
        sources: list[int] = []
        draw, choice = rng.random, rng.choice
        for index, anomaly in enumerate(self.anomalies):
            overlap_start = max(unit_start, anomaly.start)
            overlap_end = min(unit_end, anomaly.end)
            overlap = overlap_end - overlap_start
            if overlap <= 0:
                continue
            expected = anomaly.extra_rate * overlap
            count = int(expected)
            if draw() < expected - count:
                count += 1
            if count == 0:
                continue
            leaves = self._leaves_under(tuple(anomaly.node_path))
            if not leaves:
                continue
            for _ in range(count):
                leaves_out.append(choice(leaves))
                timestamps.append(overlap_start + draw() * overlap)
            sources += [index] * count
        return timestamps, leaves_out, sources

    # ------------------------------------------------------------------
    def ground_truth(self, clock: SimulationClock) -> set[tuple[CategoryPath, int]]:
        """(node_path, timeunit) pairs that are anomalous by construction."""
        truth: set[tuple[CategoryPath, int]] = set()
        for anomaly in self.anomalies:
            for unit in anomaly.timeunits(clock):
                truth.add((tuple(anomaly.node_path), unit))
        return truth


def random_injection_plan(
    tree: HierarchyTree,
    clock: SimulationClock,
    trace_duration: float,
    count: int,
    min_depth: int = 1,
    max_depth: int | None = None,
    extra_rate_range: tuple[float, float] = (0.02, 0.2),
    duration_range: tuple[float, float] = (1800.0, 14400.0),
    seed: int = 11,
    warmup: float = 0.0,
) -> list[InjectedAnomaly]:
    """A reproducible random plan of ``count`` injected anomalies.

    Anomalies start after ``warmup`` seconds (so the detector's forecasting
    models have history) and are placed at random nodes with depth between
    ``min_depth`` and ``max_depth`` -- the paper's new anomalies concentrate
    below the first network level, so plans typically span several depths.
    """
    if count < 0:
        raise DataGenerationError("count must be >= 0")
    if trace_duration <= warmup:
        raise DataGenerationError("trace_duration must exceed the warmup period")
    rng = random.Random(seed)
    nodes = [
        node
        for node in tree.iter_nodes()
        if node.depth >= min_depth and (max_depth is None or node.depth <= max_depth)
    ]
    if not nodes:
        raise DataGenerationError("no hierarchy nodes match the requested depth range")
    plan: list[InjectedAnomaly] = []
    for i in range(count):
        node = rng.choice(nodes)
        duration = rng.uniform(*duration_range)
        latest_start = max(warmup, trace_duration - duration)
        start = rng.uniform(warmup, latest_start)
        extra_rate = rng.uniform(*extra_rate_range)
        plan.append(
            InjectedAnomaly(
                node_path=node.path,
                start=start,
                duration=duration,
                extra_rate=extra_rate,
                label=f"injected-{i}",
            )
        )
    plan.sort(key=lambda a: a.start)
    return plan
