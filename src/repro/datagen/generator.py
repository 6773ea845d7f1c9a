"""Generic hierarchical trace generator.

Produces a stream of :class:`~repro.streaming.record.OperationalRecord` items
over an arbitrary hierarchy: per timeunit, a seasonal Poisson model draws the
total record count, leaf categories are sampled from a heavy-tailed (Zipf)
popularity distribution optionally shaped by per-top-level-category weights
(Table I), and an :class:`~repro.datagen.anomalies.AnomalyInjector` adds the
ground-truth anomalous bursts.

The CCD and SCD dataset generators are thin configurations of this class.

A trace is a pure function of the generator's parameters, and its bytes are a
contract: the timestamps and categories of a unit are drawn as arrays
(:mod:`repro.datagen.arrival`) but equal, bit for bit, what drawing them one
``random.Random`` call at a time gives, and the merge with injected records is
a stable sort on the timestamp.  ``tests/datagen/test_golden_bytes.py``
regenerates every golden dataset and compares it byte for byte with the
committed ``tests/golden/*.jsonl``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro._types import CategoryPath
from repro.datagen.anomalies import AnomalyInjector, InjectedAnomaly
from repro.datagen.arrival import (
    SeasonalRateModel,
    spread_uniformly,
    weighted_choices,
    zipf_weights,
)
from repro.exceptions import DataGenerationError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

_BY_TIMESTAMP = attrgetter("timestamp")


@dataclass
class TraceGenerator:
    """Synthetic operational-data trace over one hierarchical domain.

    Parameters
    ----------
    tree:
        The hierarchy whose leaves records are drawn from.
    rate_model:
        Seasonal arrival-rate model for the aggregate (root) volume.
    clock:
        Simulation clock (timeunit width, epoch weekday/hour).
    top_level_weights:
        Optional mapping from first-level label to its share of the records
        (the paper's Table I mix).  Labels absent from the mapping get zero
        probability.  When omitted, the first-level shares follow the Zipf
        popularity of their subtrees.
    zipf_exponent:
        Skew of the per-leaf popularity distribution inside each first-level
        subtree (higher = sparser lower levels, matching Fig. 1).
    seed:
        Seed for the sampling RNG.
    anomalies:
        Injection plan; ground truth is exposed via :meth:`ground_truth`.
    """

    tree: HierarchyTree
    rate_model: SeasonalRateModel
    clock: SimulationClock
    top_level_weights: Mapping[str, float] | None = None
    zipf_exponent: float = 1.1
    seed: int = 0
    anomalies: Sequence[InjectedAnomaly] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._leaves, self._weights = self._leaf_distribution()
        self._cum_weights = np.array(list(accumulate(self._weights)))
        self._injector = AnomalyInjector(
            self.tree, list(self.anomalies), seed=self.seed + 1
        )
        # Every generate() call replays from this state, so repeated calls
        # yield the identical trace instead of continuing the RNG stream.
        self._generate_state = self._rng.getstate()

    # ------------------------------------------------------------------
    # Leaf popularity
    # ------------------------------------------------------------------
    def _leaf_distribution(self) -> tuple[list[CategoryPath], list[float]]:
        leaves = [leaf.path for leaf in self.tree.iter_leaves()]
        if not leaves:
            raise DataGenerationError("the hierarchy has no leaves to sample from")
        by_top: dict[str, list[CategoryPath]] = {}
        for path in leaves:
            by_top.setdefault(path[0], []).append(path)

        if self.top_level_weights is None:
            top_weights = {label: float(len(paths)) for label, paths in by_top.items()}
        else:
            top_weights = {
                label: float(self.top_level_weights.get(label, 0.0)) for label in by_top
            }
        total_top = sum(top_weights.values())
        if total_top <= 0:
            raise DataGenerationError(
                "top_level_weights assigns zero probability to every first-level "
                "category present in the hierarchy"
            )

        ordered_leaves: list[CategoryPath] = []
        weights: list[float] = []
        for label, paths in sorted(by_top.items()):
            share = top_weights[label] / total_top
            if share <= 0:
                continue
            # Shuffle deterministically so Zipf rank is not tied to label order.
            shuffled = sorted(paths)
            self._rng.shuffle(shuffled)
            leaf_weights = zipf_weights(len(shuffled), self.zipf_exponent)
            for path, weight in zip(shuffled, leaf_weights):
                ordered_leaves.append(path)
                weights.append(share * weight)
        return ordered_leaves, weights

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, duration: float) -> Iterator[OperationalRecord]:
        """Yield records in time order for ``duration`` seconds of trace.

        The trace is a pure function of the generator's construction
        parameters: every call replays the same seeded RNG stream, so calling
        ``generate`` (or :meth:`generate_list`) repeatedly yields bit-identical
        traces.
        """
        if duration <= 0:
            raise DataGenerationError("duration must be positive")
        delta = self.clock.delta
        num_units = int(duration // delta)
        if num_units < 1:
            raise DataGenerationError("duration must cover at least one timeunit")
        self._rng.setstate(self._generate_state)
        self._injector.reset_rng()
        for unit in range(num_units):
            unit_start = self.clock.epoch + unit * delta
            yield from self._generate_unit(unit_start)

    def generate_list(self, duration: float) -> list[OperationalRecord]:
        """Materialize :meth:`generate` into a list."""
        return list(self.generate(duration))

    def _generate_unit(self, unit_start: float) -> list[OperationalRecord]:
        rng = self._rng
        count = self.rate_model.sample_count(unit_start, self.clock, rng)
        timestamps = spread_uniformly(count, unit_start, self.clock.delta, rng)
        leaves = self._leaves
        records = [
            OperationalRecord(timestamp, leaves[i])
            for timestamp, i in zip(
                timestamps, weighted_choices(rng, self._cum_weights, count)
            )
        ]
        injected = self._injector.records_for_unit(unit_start, self.clock)
        if injected:
            # The background is already in time order; a stable sort keyed on
            # the timestamp interleaves the injected records after background
            # records with equal timestamps, as ordering records does.
            records += injected
            records.sort(key=_BY_TIMESTAMP)
        return records

    # ------------------------------------------------------------------
    # Ground truth / diagnostics
    # ------------------------------------------------------------------
    def ground_truth(self) -> set[tuple[CategoryPath, int]]:
        """(node_path, timeunit) pairs anomalous by construction."""
        return self._injector.ground_truth(self.clock)

    def injected_anomalies(self) -> list[InjectedAnomaly]:
        return list(self._injector.anomalies)

    def expected_unit_count(self, unit_start: float) -> float:
        """Expected background record count for the unit starting at ``unit_start``."""
        return self.rate_model.expected_count(unit_start, self.clock)

    def leaf_popularity(self) -> dict[CategoryPath, float]:
        """Sampling probability of each leaf (diagnostic for the Fig. 1 CCDFs)."""
        return dict(zip(self._leaves, self._weights))


def counts_per_timeunit(
    records: Sequence[OperationalRecord], clock: SimulationClock, num_units: int
) -> list[dict[CategoryPath, int]]:
    """Group a record list into per-timeunit leaf count dictionaries.

    Convenience used by benchmarks that drive the STA/ADA algorithms directly
    with per-timeunit counts instead of a record stream.
    """
    units: list[dict[CategoryPath, int]] = [dict() for _ in range(num_units)]
    for record in records:
        index = clock.timeunit_of(record.timestamp)
        if 0 <= index < num_units:
            bucket = units[index]
            bucket[record.category] = bucket.get(record.category, 0) + 1
    return units
