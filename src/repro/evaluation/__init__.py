"""Evaluation harness: metrics, ADA-vs-STA comparison, CCDF characterization
and runtime/memory instrumentation used to regenerate the paper's tables and
figures.
"""

from repro.evaluation.ccdf import LevelCCDF, all_level_ccdfs, level_ccdf, per_level_counts
from repro.evaluation.comparison import (
    AlgorithmComparator,
    ComparisonReport,
    SeriesErrorStats,
)
from repro.evaluation.instrumentation import (
    STAGE_ORDER,
    MemorySummary,
    RuntimeSummary,
    format_memory_table,
    format_runtime_table,
    summarize_runtime,
)
from repro.evaluation.metrics import (
    Case,
    ConfusionMetrics,
    ReferenceComparison,
    compare_with_reference,
    confusion_from_sets,
    detection_rate,
    match_against_ground_truth,
)

__all__ = [
    "ConfusionMetrics",
    "confusion_from_sets",
    "ReferenceComparison",
    "compare_with_reference",
    "match_against_ground_truth",
    "detection_rate",
    "Case",
    "AlgorithmComparator",
    "ComparisonReport",
    "SeriesErrorStats",
    "LevelCCDF",
    "level_ccdf",
    "all_level_ccdfs",
    "per_level_counts",
    "RuntimeSummary",
    "MemorySummary",
    "STAGE_ORDER",
    "summarize_runtime",
    "format_runtime_table",
    "format_memory_table",
]
