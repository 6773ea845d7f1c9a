"""Unit tests for :mod:`repro.evaluation.instrumentation`."""

import pytest

from repro.evaluation.instrumentation import (
    STAGE_ORDER,
    MemorySummary,
    RuntimeSummary,
    format_memory_table,
    format_runtime_table,
    summarize_runtime,
)
from repro.exceptions import ConfigurationError


class TestRuntimeSummary:
    def test_shares_sum_to_one(self):
        summary = summarize_runtime(
            "ADA", 900.0, {"reading_traces": 1.0, "creating_time_series": 3.0}
        )
        shares = [summary.stage_share(stage) for stage in STAGE_ORDER]
        assert sum(shares) == pytest.approx(1.0)
        assert summary.total_seconds == pytest.approx(4.0)

    def test_missing_stages_filled_with_zero(self):
        summary = summarize_runtime("STA", 900.0, {})
        assert set(summary.stage_seconds) >= set(STAGE_ORDER)
        assert summary.total_seconds == 0.0

    def test_an_empty_run_has_no_stage_share(self):
        summary = summarize_runtime("STA", 900.0, {})
        assert [summary.stage_share(stage) for stage in STAGE_ORDER] == [0.0] * len(STAGE_ORDER)

    def test_rows_in_table_order(self):
        summary = summarize_runtime("ADA", 900.0, {"detecting_anomalies": 2.0})
        rows = summary.rows()
        assert [row[0] for row in rows] == list(STAGE_ORDER)

    def test_format_runtime_table_contains_all_stages(self):
        ada = summarize_runtime("ADA", 900.0, {"creating_time_series": 1.0})
        sta = summarize_runtime("STA", 3600.0, {"creating_time_series": 5.0})
        table = format_runtime_table([ada, sta])
        for stage in STAGE_ORDER:
            assert stage in table
        assert "ADA" in table and "STA" in table


class TestMemorySummary:
    def test_normalized_cost(self):
        summary = MemorySummary("ADA", reference_levels=2, memory_units=500, tree_nodes=100)
        assert summary.normalized == pytest.approx(5.0)

    def test_zero_tree_rejected(self):
        summary = MemorySummary("ADA", None, 10, 0)
        with pytest.raises(ConfigurationError):
            _ = summary.normalized

    def test_ratio_to(self):
        ada = MemorySummary("ADA", 0, 300, 100)
        sta = MemorySummary("STA", None, 900, 100)
        assert ada.ratio_to(sta) == pytest.approx(1 / 3)

    def test_ratio_to_a_free_run_is_infinite(self):
        ada = MemorySummary("ADA", 0, 300, 100)
        free = MemorySummary("STA", None, 0, 100)
        assert ada.ratio_to(free) == float("inf")

    def test_format_memory_table(self):
        ada = MemorySummary("ADA", 2, 300, 100)
        sta = MemorySummary("STA", None, 900, 100)
        table = format_memory_table([sta, ada])
        assert "STA" in table and "ADA" in table and "N/A" in table
