"""Seasonal arrival-rate models for synthetic operational data (§II-B).

The paper's measurement study shows three properties the generators must
reproduce: a strong diurnal cycle (peak around 4 PM, trough around 4 AM), a
weekly cycle with quieter weekends (strong in CCD, weak in SCD), and high
volatility (the 90th percentile of the per-timeunit count is ~35x the 10th
percentile at the CCD root).  The rate model below multiplies a base rate by
diurnal, weekly and noise factors; per-timeunit counts are drawn from a
Poisson distribution with that rate.

Within a timeunit, the record timestamps and their leaf categories are drawn
as arrays (:func:`random_draws`, :func:`spread_uniformly`,
:func:`weighted_choices`).  Each reproduces, bit for bit, the values the
matching ``random.Random`` calls return and leaves the generator in the state
those calls leave it in, so traces are byte-identical to drawing record by
record.  ``tests/datagen/test_vector_draws.py`` pins the draws against
``random.Random``; ``tests/datagen/test_golden_bytes.py`` pins whole traces
against the committed ``tests/golden/*.jsonl``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._types import Timestamp
from repro._vector import left_sum
from repro.exceptions import ConfigurationError
from repro.streaming.clock import SimulationClock


@dataclass(frozen=True)
class SeasonalRateModel:
    """Time-varying arrival rate (events per second).

    Parameters
    ----------
    base_rate:
        Mean arrival rate in events/second averaged over a full week.
    diurnal_strength:
        Peak-to-mean amplitude of the daily cycle in [0, 1); 0 disables it.
    peak_hour:
        Local hour of the diurnal maximum (the paper observes ~16:00).
    weekly_strength:
        Relative reduction of the rate on weekends in [0, 1); 0 disables the
        weekly cycle.
    volatility:
        Standard deviation of multiplicative log-normal noise applied per
        timeunit, producing the paper's bursty, volatile counts.
    """

    base_rate: float
    diurnal_strength: float = 0.75
    peak_hour: float = 16.0
    weekly_strength: float = 0.35
    volatility: float = 0.25

    def __post_init__(self) -> None:
        if self.base_rate < 0:
            raise ConfigurationError("base_rate must be non-negative")
        if not 0.0 <= self.diurnal_strength < 1.0:
            raise ConfigurationError("diurnal_strength must be in [0, 1)")
        if not 0.0 <= self.weekly_strength < 1.0:
            raise ConfigurationError("weekly_strength must be in [0, 1)")
        if not 0.0 <= self.peak_hour < 24.0:
            raise ConfigurationError("peak_hour must be in [0, 24)")
        if self.volatility < 0:
            raise ConfigurationError("volatility must be non-negative")

    # ------------------------------------------------------------------
    def seasonal_factor(self, timestamp: Timestamp, clock: SimulationClock) -> float:
        """Deterministic diurnal × weekly modulation at ``timestamp``."""
        hour = clock.hour_of_day(timestamp)
        phase = 2.0 * math.pi * (hour - self.peak_hour) / 24.0
        diurnal = 1.0 + self.diurnal_strength * math.cos(phase)
        weekly = 1.0 - (self.weekly_strength if clock.is_weekend(timestamp) else 0.0)
        return diurnal * weekly

    def rate_at(self, timestamp: Timestamp, clock: SimulationClock) -> float:
        """Expected arrival rate (events/second) at ``timestamp``."""
        return self.base_rate * self.seasonal_factor(timestamp, clock)

    def expected_count(
        self, unit_start: Timestamp, clock: SimulationClock
    ) -> float:
        """Expected number of events in the timeunit starting at ``unit_start``."""
        midpoint = unit_start + clock.delta / 2.0
        return self.rate_at(midpoint, clock) * clock.delta

    def sample_count(
        self, unit_start: Timestamp, clock: SimulationClock, rng: random.Random
    ) -> int:
        """Sample a per-timeunit event count (Poisson with log-normal noise)."""
        mean = self.expected_count(unit_start, clock)
        if mean <= 0:
            return 0
        if self.volatility > 0:
            noise = math.exp(rng.gauss(-0.5 * self.volatility ** 2, self.volatility))
            mean *= noise
        return _poisson(mean, rng)


def _poisson(mean: float, rng: random.Random) -> int:
    """Poisson sample; uses a normal approximation for large means."""
    if mean <= 0:
        return 0
    if mean > 50.0:
        return max(0, int(round(rng.gauss(mean, math.sqrt(mean)))))
    # Knuth's algorithm for small means.
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def random_draws(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, as one ``float64`` array.

    CPython's ``random()`` takes two 32-bit words ``a``, ``b`` of its
    Mersenne Twister and returns ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``.
    ``rng.getrandbits(64 * count)`` draws the same ``2 * count`` words from
    the same stream in one C call (the first word lowest), so combining them
    here gives exactly the values — and leaves ``rng`` exactly where — the
    ``count`` calls would.  ``rng``'s cached ``gauss`` value is not touched,
    as ``random()`` does not touch it.
    """
    if count <= 0:
        return np.empty(0)
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
    )
    high = (words[0::2] >> 5) * 67108864.0
    return (high + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def spread_uniformly(
    count: int, unit_start: Timestamp, delta: float, rng: random.Random
) -> np.ndarray:
    """Timestamps for ``count`` events spread uniformly over one timeunit.

    ``sorted(unit_start + rng.random() * delta for _ in range(count))``,
    drawn as one ``float64`` array.
    """
    return np.sort(unit_start + random_draws(rng, count) * delta)


def weighted_choices(
    rng: random.Random, cum_weights: Sequence[float], count: int
) -> np.ndarray:
    """``rng.choices(range(len(cum_weights)), cum_weights=cum_weights, k=count)``,
    as one integer array.

    The same draws and the same bisection as ``random.choices``: each index
    is the right insertion point of ``random() * cum_weights[-1]`` among
    ``cum_weights``, capped at the last index (``choices``' ``hi = n - 1``,
    which matters only for a draw that lands on the total itself).
    """
    cum = np.asarray(cum_weights, dtype=np.float64)
    total = float(cum[-1])
    if not total > 0.0 or not math.isfinite(total):
        raise ConfigurationError("the cumulative weights must end at a finite total > 0")
    picks = np.searchsorted(cum, random_draws(rng, count) * total, side="right")
    return np.minimum(picks, len(cum) - 1)


def zipf_weights(count: int, exponent: float = 1.1) -> list[float]:
    """Normalized Zipf popularity weights for ``count`` categories.

    The paper's Fig. 1 CCDFs show heavy-tailed per-node activity; sampling
    leaf categories with Zipf weights reproduces that sparsity (most leaves
    see almost no records, a few see many).
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if exponent < 0:
        raise ConfigurationError("exponent must be non-negative")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = left_sum(raw)
    return [w / total for w in raw]


def hour_of_peak(series: list[float], units_per_day: int) -> float:
    """Average hour of day at which ``series`` peaks (diagnostic for Fig. 2)."""
    if units_per_day <= 0 or not series:
        raise ConfigurationError("need a non-empty series and positive units_per_day")
    sums = [0.0] * units_per_day
    counts = [0] * units_per_day
    for index, value in enumerate(series):
        slot = index % units_per_day
        sums[slot] += value
        counts[slot] += 1
    averages = [s / c if c else 0.0 for s, c in zip(sums, counts)]
    peak_slot = max(range(units_per_day), key=lambda i: averages[i])
    return peak_slot * 24.0 / units_per_day
