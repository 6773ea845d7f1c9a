"""Configuration objects for the Tiresias detector.

The knobs mirror the paper's "System parameters" paragraph (Section VII):
heavy hitter threshold θ, sensitivity thresholds RT and DT, the timeunit size
Δ and window length ℓ, the split rule and number of reference levels h for
ADA, and the Holt-Winters smoothing parameters / seasonal periods.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ForecastConfig:
    """Parameters of the per-heavy-hitter forecasting model.

    The model is the paper's additive Holt-Winters (§VI), and
    ``season_lengths`` (in timeunits) picks its form: one period is the
    single-season model, more than one the multi-seasonal model, whose
    ``season_weights`` follow the paper's linear combination (``xi`` and
    ``1 - xi``).  Both are linear in their series (Lemma 2), which is what
    makes ADA's SPLIT and MERGE exact.  An EWMA with rate ``fallback_alpha``
    is used until a node has accumulated enough history to initialize the
    seasonal model.
    """

    alpha: float = 0.2
    beta: float = 0.02
    gamma: float = 0.2
    season_lengths: tuple[int, ...] = (96,)
    season_weights: tuple[float, ...] | None = None
    fallback_alpha: float = 0.3

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if not self.season_lengths:
            raise ConfigurationError("at least one seasonal period is required")
        if any(p < 1 for p in self.season_lengths):
            raise ConfigurationError("seasonal periods must be >= 1 timeunit")
        if self.season_weights is not None:
            if len(self.season_weights) != len(self.season_lengths):
                raise ConfigurationError("season_weights must match season_lengths")
            if abs(sum(self.season_weights) - 1.0) > 1e-9:
                raise ConfigurationError("season_weights must sum to 1")
        if not 0.0 < self.fallback_alpha <= 1.0:
            raise ConfigurationError("fallback_alpha must be in (0, 1]")

    def replace(self, **changes: Any) -> "ForecastConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def min_history(self) -> int:
        """History needed before the seasonal model can be initialized."""
        return 2 * max(self.season_lengths)

    def with_seasons(
        self, season_lengths: Sequence[int], season_weights: Sequence[float] | None = None
    ) -> "ForecastConfig":
        """A copy with different seasonal periods (e.g. from the analyzer)."""
        return replace(
            self,
            season_lengths=tuple(int(p) for p in season_lengths),
            season_weights=tuple(season_weights) if season_weights is not None else None,
        )


@dataclass(frozen=True)
class TiresiasConfig:
    """Full configuration of a Tiresias detector instance.

    Parameters
    ----------
    theta:
        Heavy hitter threshold θ (Definition 1/2).  The paper chooses a small
        value giving ~125 heavy hitters in busy CCD periods.
    ratio_threshold:
        RT in Definition 4 (the paper's sensitivity test picked 2.8).
    difference_threshold:
        DT in Definition 4 (the paper picked 8).
    delta_seconds:
        Timeunit size Δ (900 s = 15 minutes in the paper).
    window_units:
        ℓ, the number of timeunits in the sliding window (8,064 = 12 weeks of
        15-minute units in the paper; far smaller values are fine for tests).
    split_rule:
        Name of the ADA split rule: ``"uniform"``, ``"last-time-unit"``,
        ``"long-term-history"`` or ``"ewma"``.
    split_ewma_alpha:
        Smoothing rate when ``split_rule == "ewma"``.
    reference_levels:
        h, the number of top hierarchy levels that maintain reference time
        series (§V-B5).  0 disables reference series.
    forecast:
        Forecasting model parameters.
    track_root:
        Whether the root aggregate is always tracked (the paper adds/removes
        the root from SHHH purely by its weight; keeping it tracked gives the
        national aggregate a continuous forecast).
    allow_root_heavy:
        Whether the root may *qualify* as a succinct heavy hitter by its
        residual modified weight (Definition 2).  Root qualification affects
        no other node — children's modified weights are computed before the
        root in the bottom-up pass — so disabling it simply stops tracking
        the "scattered small categories" residual at the root.  Subtree
        sharding (:class:`~repro.engine.sharded.ShardedDetectionEngine`)
        requires ``False`` together with ``track_root=False``: the root is
        the only node whose state spans every depth-1 subtree, and excluding
        it makes shard detections exactly equal to a serial run on any
        workload.  Monitor the global aggregate with a separate root-only
        session if needed.
    out_of_order_policy:
        What to do with a record whose timeunit precedes the currently
        accumulating one (it arrived after its timeunit already closed):
        ``"raise"`` (default) rejects it with
        :class:`~repro.exceptions.OutOfOrderRecordError`, ``"drop"`` discards
        it silently, ``"clamp"`` counts it into the current timeunit (the
        seed's silent behaviour, now opt-in).
    """

    theta: float = 10.0
    ratio_threshold: float = 2.8
    difference_threshold: float = 8.0
    delta_seconds: float = 900.0
    window_units: int = 8064
    split_rule: str = "long-term-history"
    split_ewma_alpha: float = 0.4
    reference_levels: int = 2
    forecast: ForecastConfig = field(default_factory=ForecastConfig)
    track_root: bool = True
    allow_root_heavy: bool = True
    out_of_order_policy: str = "raise"

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        if self.ratio_threshold < 1.0:
            raise ConfigurationError("ratio_threshold must be >= 1")
        if self.difference_threshold < 0:
            raise ConfigurationError("difference_threshold must be >= 0")
        if self.delta_seconds <= 0:
            raise ConfigurationError("delta_seconds must be positive")
        if self.window_units < 2:
            raise ConfigurationError("window_units must be at least 2")
        if self.split_rule not in SPLIT_RULE_NAMES:
            raise ConfigurationError(
                f"unknown split rule {self.split_rule!r}; expected one of "
                f"{sorted(SPLIT_RULE_NAMES)}"
            )
        if not 0.0 < self.split_ewma_alpha <= 1.0:
            raise ConfigurationError("split_ewma_alpha must be in (0, 1]")
        if self.reference_levels < 0:
            raise ConfigurationError("reference_levels must be >= 0")
        if self.out_of_order_policy not in OUT_OF_ORDER_POLICIES:
            raise ConfigurationError(
                f"unknown out_of_order_policy {self.out_of_order_policy!r}; "
                f"expected one of {sorted(OUT_OF_ORDER_POLICIES)}"
            )
        if self.track_root and not self.allow_root_heavy:
            raise ConfigurationError(
                "track_root=True forces the root into the tracked set; "
                "combining it with allow_root_heavy=False is contradictory"
            )

    def replace(self, **changes: Any) -> "TiresiasConfig":
        """A copy with ``changes`` applied (and re-validated).

        This is the general form of the field-by-field copies the seed needed
        (e.g. :func:`~repro.core.pipeline.derive_seasonal_config`)::

            seasonal = config.replace(forecast=config.forecast.with_seasons([96]))
        """
        return dataclasses.replace(self, **changes)


#: Valid values for :attr:`TiresiasConfig.split_rule`.
SPLIT_RULE_NAMES: frozenset[str] = frozenset(
    {"uniform", "last-time-unit", "long-term-history", "ewma"}
)

#: Valid values for :attr:`TiresiasConfig.out_of_order_policy`.
OUT_OF_ORDER_POLICIES: frozenset[str] = frozenset({"raise", "drop", "clamp"})
