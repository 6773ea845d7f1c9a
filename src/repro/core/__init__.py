"""Core Tiresias algorithms: succinct heavy hitters (Definition 2), STA/ADA
tracking and its split rules, the dual-threshold detector, anomaly reporting,
and the seasonal configuration derived from a trace's history."""

from repro.core.ada import ADAAlgorithm
from repro.core.config import (
    OUT_OF_ORDER_POLICIES,
    SPLIT_RULE_NAMES,
    ForecastConfig,
    TiresiasConfig,
)
from repro.core.detector import Anomaly, ThresholdDetector
from repro.core.hhh import (
    HeavyHitterResult,
    accumulate_raw_weights,
    compute_shhh,
)
from repro.core.pipeline import derive_seasonal_config
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.reporting import AnomalyQuery, AnomalyReportStore
from repro.core.results import TimeunitResult
from repro.core.split_rules import (
    EWMASplitRule,
    LastTimeUnitSplitRule,
    LongTermHistorySplitRule,
    NodeUsageStats,
    SplitRule,
    UniformSplitRule,
    make_split_rule,
)
from repro.core.sta import STAAlgorithm

__all__ = [
    "TiresiasConfig",
    "ForecastConfig",
    "SPLIT_RULE_NAMES",
    "OUT_OF_ORDER_POLICIES",
    "derive_seasonal_config",
    "ALGORITHMS",
    "create_algorithm",
    "ADAAlgorithm",
    "STAAlgorithm",
    "Anomaly",
    "ThresholdDetector",
    "TimeunitResult",
    "AnomalyReportStore",
    "AnomalyQuery",
    "HeavyHitterResult",
    "accumulate_raw_weights",
    "compute_shhh",
    "SplitRule",
    "UniformSplitRule",
    "LastTimeUnitSplitRule",
    "LongTermHistorySplitRule",
    "EWMASplitRule",
    "NodeUsageStats",
    "make_split_rule",
]
