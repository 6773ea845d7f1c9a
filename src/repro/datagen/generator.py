"""Generic hierarchical trace generator.

Draws a trace of operational records over an arbitrary hierarchy: per
timeunit, a seasonal Poisson model draws the total record count, leaf
categories are sampled from a heavy-tailed (Zipf) popularity distribution
optionally shaped by per-top-level-category weights (Table I), and an
:class:`~repro.datagen.anomalies.AnomalyInjector` adds the ground-truth
anomalous bursts.

The CCD and SCD dataset generators are thin configurations of this class.

Every unit is drawn as columns — timestamps, leaf codes and, per row, the
anomaly that injected it — and nothing else: :meth:`TraceGenerator.generate`
builds records from those columns one unit at a time, and
:meth:`TraceGenerator.generate_list` concatenates them into one
:class:`~repro.streaming.batch.RecordBatch` without building any record.

A trace is a pure function of the generator's parameters, and its bytes are a
contract: the timestamps and categories of a unit are drawn as arrays
(:mod:`repro.datagen.arrival`) but equal, bit for bit, what drawing them one
``random.Random`` call at a time gives, and the merge with injected records is
a stable sort on the timestamp.  ``tests/datagen/test_golden_bytes.py``
regenerates every golden dataset and compares it byte for byte with the
committed ``tests/golden/*.jsonl`` and with pinned ``.rcol`` digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Mapping, Optional, Sequence

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
from repro.streaming.attributes import EncodedAttributes, encode_row
from repro.streaming.batch import Codebook, RecordBatch
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

#: One unit's columns: timestamps in time order, codes into the generator's
#: leaf codebook and, per row, the index of the anomaly that injected it
#: (-1 for background) — ``None`` when the unit has no injected row.
_UnitColumns = tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def _attributes_of(
    anomalies: Sequence[InjectedAnomaly], sources: np.ndarray
) -> list[dict]:
    """Each row's attributes: its injecting anomaly's, or none (-1)."""
    return [
        {} if source < 0 else anomalies[source].attributes
        for source in sources.tolist()
    ]


class _InjectedRows(EncodedAttributes):
    """The attribute column of a generated trace, encoded once per anomaly.

    Row ``i`` holds ``anomalies[sources[i]].attributes`` as
    :func:`~repro.streaming.attributes.encode_row` writes it, or nothing
    where ``sources[i]`` is -1.  A pass over the column builds each row from
    its anomaly instead of parsing the row's bytes (parsing gives the same
    dict); slices and gathers are plain encoded columns.
    """

    __slots__ = ("_sources", "_anomalies")

    def __init__(self, sources: np.ndarray, anomalies: Sequence[InjectedAnomaly]):
        encoded = [encode_row(anomaly.attributes) for anomaly in anomalies]
        mask = sources >= 0
        injected = sources[mask]
        sizes = np.zeros(len(sources), dtype=np.int64)
        sizes[mask] = np.array([len(row) for row in encoded])[injected]
        offsets = np.zeros(len(sources) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        blob = b"".join([encoded[source] for source in injected.tolist()])
        super().__init__(blob, offsets)
        self._sources = sources
        self._anomalies = anomalies

    def __iter__(self):
        return iter(_attributes_of(self._anomalies, self._sources))


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
        rng = random.Random(self.seed)
        self._leaves, self._weights = self._leaf_distribution(rng)
        self._cum_weights = np.array(list(accumulate(self._weights)))
        self._injector = AnomalyInjector(
            self.tree, list(self.anomalies), seed=self.seed + 1
        )
        # Leaf codes: a background draw's index into ``_leaves`` is its code;
        # leaves only anomalies reach are numbered as they are first drawn.
        self._book = Codebook()
        self._book.codes(self._leaves)
        # Every pass over the trace starts its own RNG from this state, so
        # repeated — or interleaved — passes draw the identical trace.
        self._generate_state = rng.getstate()

    # ------------------------------------------------------------------
    # Leaf popularity
    # ------------------------------------------------------------------
    def _leaf_distribution(
        self, rng: random.Random
    ) -> tuple[list[CategoryPath], list[float]]:
        # A tree with no node below the root has the root as its one leaf.
        leaves = [leaf.path for leaf in self.tree.iter_leaves() if leaf.path]
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
            rng.shuffle(shuffled)
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
        parameters: every call draws from its own RNGs, started from the same
        seeded state, so repeated or interleaved calls (and
        :meth:`generate_list`) yield bit-identical traces.  Records are built
        from each unit's columns as the unit is reached.
        """
        return self._records(self._draw_units(duration))

    def generate_list(self, duration: float) -> RecordBatch:
        """The trace of :meth:`generate` as one :class:`RecordBatch`.

        No record is built: the units' columns are concatenated, the codes
        numbered in first-appearance order (what writing the records would
        number them), and the injected rows' attributes kept as their JSON
        encoding.  ``list(...)`` of the batch gives the records.
        """
        units = list(self._draw_units(duration))
        timestamps = np.concatenate([unit[0] for unit in units])
        codes = np.concatenate([unit[1] for unit in units])
        attributes = None
        if any(unit[2] is not None for unit in units):
            sources = np.concatenate(
                [
                    np.full(len(ts), -1) if rows is None else rows
                    for ts, _, rows in units
                ]
            )
            attributes = _InjectedRows(sources, self._injector.anomalies)
        return RecordBatch.from_dictionary_codes(
            timestamps, codes, list(self._book.entries), attributes
        ).compact()

    def _draw_units(self, duration: float) -> Iterator[_UnitColumns]:
        """Check ``duration``, then draw its units' columns (lazily) from a
        fresh pair of RNGs — the one draw path of every trace."""
        if duration <= 0:
            raise DataGenerationError("duration must be positive")
        num_units = int(duration // self.clock.delta)
        if num_units < 1:
            raise DataGenerationError("duration must cover at least one timeunit")
        rng = random.Random()
        rng.setstate(self._generate_state)
        return self._units(num_units, rng, self._injector.new_rng())

    def _units(
        self, num_units: int, rng: random.Random, injector_rng: random.Random
    ) -> Iterator[_UnitColumns]:
        clock = self.clock
        delta = clock.delta
        for unit in range(num_units):
            unit_start = clock.epoch + unit * delta
            count = self.rate_model.sample_count(unit_start, clock, rng)
            timestamps = spread_uniformly(count, unit_start, delta, rng)
            codes = weighted_choices(rng, self._cum_weights, count)
            extra, leaves, sources = self._injector.unit_rows(
                unit_start, clock, injector_rng
            )
            if not extra:
                yield timestamps, codes, None
                continue
            # The background is already in time order; a stable sort on the
            # timestamp interleaves the injected rows after background rows
            # with equal timestamps, as sorting the records does.
            timestamps = np.concatenate([timestamps, extra])
            order = np.argsort(timestamps, kind="stable")
            codes = np.concatenate([codes, self._book.codes(leaves)])
            rows = np.concatenate([np.full(count, -1), sources])
            yield timestamps[order], codes[order], rows[order]

    def _records(self, units: Iterator[_UnitColumns]) -> Iterator[OperationalRecord]:
        paths = self._book.entries
        anomalies = self._injector.anomalies
        for timestamps, codes, sources in units:
            categories = [paths[code] for code in codes.tolist()]
            if sources is None:
                yield from map(OperationalRecord, timestamps.tolist(), categories)
            else:
                attributes = _attributes_of(anomalies, sources)
                yield from map(
                    OperationalRecord, timestamps.tolist(), categories, attributes
                )

    # ------------------------------------------------------------------
    # Ground truth / diagnostics
    # ------------------------------------------------------------------
    def ground_truth(self) -> set[tuple[CategoryPath, int]]:
        """(node_path, timeunit) pairs anomalous by construction."""
        return self._injector.ground_truth(self.clock)


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
