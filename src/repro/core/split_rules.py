"""Split rules for ADA's SPLIT operation (§V-B4).

When a heavy hitter node hands its time series down to its children, the
series is decomposed linearly: child ``c`` receives the fraction
``F(c, Cn) = X_c / sum_{m in Cn} X_m`` of every element, where ``X`` is a
weight-related property of the node.  The paper evaluates four choices:

* **Uniform** -- ``X = 1``: every receiving child gets an equal share.
* **Last-Time-Unit** -- ``X`` is the node's weight in the previous timeunit.
* **Long-Term-History** -- ``X`` is the node's total weight over all previous
  timeunits.
* **EWMA** -- ``X`` is an exponentially smoothed weight (rate ``alpha``).

The statistics each rule needs are tracked per node by
:class:`NodeUsageStats`, which ADA updates every timeunit for every node of
the tree (a single cheap pass, since the raw weights are computed anyway).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro._vector import left_sum
from repro.exceptions import ConfigurationError
from repro.core.config import TiresiasConfig


@dataclass(slots=True)
class NodeUsageStats:
    """Per-node weight statistics consumed by the split rules.

    Slotted: the adaptation stage materializes one per receiving child on
    every split, so construction cost is on the hot path.
    """

    last_weight: float = 0.0
    cumulative_weight: float = 0.0
    ewma_weight: float = 0.0
    observations: int = field(default=0)

    def update(self, weight: float, ewma_alpha: float) -> None:
        """Record the node's raw weight for the timeunit that just closed."""
        weight = float(weight)
        self.last_weight = weight
        self.cumulative_weight += weight
        if self.observations == 0:
            self.ewma_weight = weight
        else:
            self.ewma_weight = ewma_alpha * weight + (1 - ewma_alpha) * self.ewma_weight
        self.observations += 1


class SplitRule(abc.ABC):
    """Strategy for computing the weight-related property ``X_n``."""

    name: str = "abstract"

    @abc.abstractmethod
    def score(self, stats: NodeUsageStats) -> float:
        """The (non-negative) value ``X_n`` for a node with ``stats``."""

    def ratios(self, stats_by_key: dict[object, NodeUsageStats]) -> dict[object, float]:
        """Normalized split ratios ``F(c, Cn)`` for the receiving children.

        If every score is zero (no history at all for any receiving child) the
        rule degrades to a uniform split, which is the only unbiased choice in
        the absence of information.
        """
        scores = {key: max(0.0, self.score(stats)) for key, stats in stats_by_key.items()}
        total = left_sum(scores.values())
        count = len(scores)
        if count == 0:
            return {}
        if total <= 0.0:
            return {key: 1.0 / count for key in scores}
        return {key: value / total for key, value in scores.items()}


class UniformSplitRule(SplitRule):
    """``X = 1``: split equally among the receiving children."""

    name = "uniform"

    def score(self, stats: NodeUsageStats) -> float:
        return 1.0


class LastTimeUnitSplitRule(SplitRule):
    """``X`` is the node's weight in the previous timeunit."""

    name = "last-time-unit"

    def score(self, stats: NodeUsageStats) -> float:
        return stats.last_weight


class LongTermHistorySplitRule(SplitRule):
    """``X`` is the node's total weight across all previous timeunits."""

    name = "long-term-history"

    def score(self, stats: NodeUsageStats) -> float:
        return stats.cumulative_weight


class EWMASplitRule(SplitRule):
    """``X`` is an exponentially smoothed weight with rate ``alpha``."""

    name = "ewma"

    def __init__(self, alpha: float = 0.4):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha

    def score(self, stats: NodeUsageStats) -> float:
        return stats.ewma_weight


def make_split_rule(config: TiresiasConfig) -> SplitRule:
    """Instantiate the split rule named in ``config``."""
    name = config.split_rule
    if name == "uniform":
        return UniformSplitRule()
    if name == "last-time-unit":
        return LastTimeUnitSplitRule()
    if name == "long-term-history":
        return LongTermHistorySplitRule()
    if name == "ewma":
        return EWMASplitRule(alpha=config.split_ewma_alpha)
    raise ConfigurationError(f"unknown split rule {name!r}")
