"""Core Tiresias algorithms: heavy hitters, STA/ADA, detection, seasonality."""

from repro.core.ada import ADAAlgorithm, nearest_tracked_node
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
    compute_hhh,
    compute_shhh,
    discounted_series,
)
from repro.core.pipeline import derive_seasonal_config
from repro.core.registry import (
    available_algorithms,
    available_forecasters,
    create_algorithm,
    create_forecaster,
    register_algorithm,
    register_forecaster,
    unregister_algorithm,
    unregister_forecaster,
)
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
from repro.core.timeseries import MultiScaleTimeSeries, NodeTimeSeries, SeriesForecaster

__all__ = [
    "TiresiasConfig",
    "ForecastConfig",
    "SPLIT_RULE_NAMES",
    "OUT_OF_ORDER_POLICIES",
    "derive_seasonal_config",
    "register_algorithm",
    "unregister_algorithm",
    "create_algorithm",
    "available_algorithms",
    "register_forecaster",
    "unregister_forecaster",
    "create_forecaster",
    "available_forecasters",
    "ADAAlgorithm",
    "STAAlgorithm",
    "nearest_tracked_node",
    "Anomaly",
    "ThresholdDetector",
    "TimeunitResult",
    "AnomalyReportStore",
    "AnomalyQuery",
    "HeavyHitterResult",
    "accumulate_raw_weights",
    "compute_hhh",
    "compute_shhh",
    "discounted_series",
    "SplitRule",
    "UniformSplitRule",
    "LastTimeUnitSplitRule",
    "LongTermHistorySplitRule",
    "EWMASplitRule",
    "NodeUsageStats",
    "make_split_rule",
    "NodeTimeSeries",
    "SeriesForecaster",
    "MultiScaleTimeSeries",
]
