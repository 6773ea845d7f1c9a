"""Synthetic Set-Top Box Crash Dataset (SCD) generator.

Substitutes the paper's STB crash logs (§II-A) with a generator reproducing
their published characteristics: a 4-level network hierarchy with the Table II
degrees (2,000 / 30 / 6, scaled down by default), a diurnal pattern with only
a weak weekly component (Fig. 2(b), Fig. 11(b)), lower volatility than CCD
(which is why ADA's split operations are rarer and its accuracy higher,
§VII-A "Results for SCD"), and injected spike anomalies with ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.datagen.anomalies import InjectedAnomaly, random_injection_plan
from repro.datagen.arrival import SeasonalRateModel
from repro.datagen.generator import TraceGenerator
from repro.exceptions import ConfigurationError
from repro.hierarchy.builders import build_scd_network_tree
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import DAY, HOUR, SimulationClock


@dataclass(frozen=True)
class SCDConfig:
    """Configuration of a synthetic SCD trace (see :class:`CCDConfig` for the
    common field meanings)."""

    duration_days: float = 10.0
    delta_seconds: float = 900.0
    base_rate_per_hour: float = 400.0
    network_scale: float = 0.05
    num_anomalies: int = 4
    anomaly_warmup_days: float = 3.0
    seed: int = 77
    diurnal_strength: float = 0.5
    weekly_strength: float = 0.08
    volatility: float = 0.15
    zipf_exponent: float = 0.9
    #: Skew of the load distribution across first-level (CO) nodes.  0 keeps
    #: every CO equally popular; positive values give a heavy-tailed per-CO
    #: load, matching the Fig. 1(c) observation that a few locations carry
    #: most of the crash reports.
    top_level_zipf_exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ConfigurationError("duration_days must be positive")
        if self.base_rate_per_hour < 0:
            raise ConfigurationError("base_rate_per_hour must be non-negative")
        if self.num_anomalies < 0:
            raise ConfigurationError("num_anomalies must be >= 0")
        if self.anomaly_warmup_days < 0:
            raise ConfigurationError("anomaly_warmup_days must be >= 0")

    @property
    def duration_seconds(self) -> float:
        return self.duration_days * DAY


@dataclass
class SCDDataset:
    """A generated SCD trace together with its hierarchy and ground truth."""

    config: SCDConfig
    tree: HierarchyTree
    clock: SimulationClock
    generator: TraceGenerator
    anomalies: Sequence[InjectedAnomaly] = field(default_factory=tuple)

    def records(self):
        return self.generator.generate(self.config.duration_seconds)

    def record_list(self):
        return self.generator.generate_list(self.config.duration_seconds)

    def ground_truth(self):
        return self.generator.ground_truth()

    @property
    def num_timeunits(self) -> int:
        return int(self.config.duration_seconds // self.config.delta_seconds)


def _top_level_weights(tree: HierarchyTree, exponent: float) -> dict[str, float] | None:
    """Heavy-tailed load weights across first-level nodes (None = uniform)."""
    if exponent <= 0:
        return None
    from repro.datagen.arrival import zipf_weights

    labels = sorted(path[-1] for path in tree.paths_at_depth(1))
    weights = zipf_weights(len(labels), exponent)
    return dict(zip(labels, weights))


def make_scd_dataset(config: SCDConfig | None = None) -> SCDDataset:
    """Build a synthetic SCD dataset from ``config``."""
    config = config or SCDConfig()
    tree = build_scd_network_tree(seed=config.seed, scale=config.network_scale)
    clock = SimulationClock(
        delta=config.delta_seconds,
        epoch=0.0,
        epoch_weekday=3,  # the paper's SCD window starts on a Thursday
        epoch_hour=0.0,
    )
    rate_model = SeasonalRateModel(
        base_rate=config.base_rate_per_hour / HOUR,
        diurnal_strength=config.diurnal_strength,
        peak_hour=20.0,
        weekly_strength=config.weekly_strength,
        volatility=config.volatility,
    )
    anomalies = (
        random_injection_plan(
            tree,
            clock,
            trace_duration=config.duration_seconds,
            count=config.num_anomalies,
            min_depth=1,
            seed=config.seed + 13,
            warmup=config.anomaly_warmup_days * DAY,
        )
        if config.num_anomalies
        else []
    )
    generator = TraceGenerator(
        tree=tree,
        rate_model=rate_model,
        clock=clock,
        top_level_weights=_top_level_weights(tree, config.top_level_zipf_exponent),
        zipf_exponent=config.zipf_exponent,
        seed=config.seed,
        anomalies=anomalies,
    )
    return SCDDataset(
        config=config,
        tree=tree,
        clock=clock,
        generator=generator,
        anomalies=tuple(anomalies),
    )
