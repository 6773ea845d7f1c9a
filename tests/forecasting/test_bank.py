"""Unit + property tests for :mod:`repro.forecasting.bank`.

The bank's contract is that its rows produce *bit-identical* forecasts, state
snapshots and split/merge results to the per-object forecaster
(:class:`~repro.testing.reference.ScalarRow`, the reference's), through the
one observe kernel whatever the size of a batch.  Hypothesis drives random
value sequences across the seasonal-activation boundary and through
split/fold (SPLIT/MERGE) edges.  A snapshot that does not fit the layout is
refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig
from repro.exceptions import CheckpointError
from repro.forecasting.bank import ForecasterBank
from repro.testing.reference import ScalarRow


def single_config(season=4, fallback=0.5):
    return ForecastConfig(season_lengths=(season,), fallback_alpha=fallback)


def multi_config():
    return ForecastConfig(
        season_lengths=(3, 6), season_weights=(0.7, 0.3), fallback_alpha=0.4
    )


def observe(bank, rows, values) -> list:
    """One close of ``rows``: the observe kernel, forecasts as floats."""
    return bank.observe_rows(
        np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=np.float64)
    ).tolist()


def observe_one(bank, row, value) -> float:
    """A close of one row (a one-row batch)."""
    return observe(bank, [row], [value])[0]


values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=40,
)


class TestBackendAgreement:
    """Bank rows == per-object forecasters, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy, season=st.sampled_from([2, 3, 4]))
    def test_observe_rows_matches_scalar_rows(self, values, season):
        config = single_config(season=season)
        bank = ForecasterBank(config)
        n_rows = 3
        rows = [bank.new_row() for _ in range(n_rows)]
        scalar = [ScalarRow(config) for _ in range(n_rows)]
        for value in values:
            # Distinct per-row values; rows cross seasonal activation at the
            # same step, exercising the mixed active/warm-up kernel.
            batch = [value, value * 0.5, value + 1.0]
            assert observe(bank, rows, batch) == [
                row.observe(v) for row, v in zip(scalar, batch)
            ]
        for row, ref in zip(rows, scalar):
            assert bank.row_state_dict(row) == ref.state_dict()

    @settings(max_examples=30, deadline=None)
    @given(values=values_strategy)
    def test_multi_seasonal_agreement(self, values):
        config = multi_config()
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(8)]
        scalar = [ScalarRow(config) for _ in range(8)]
        stream = values * 3  # long enough to activate both seasons
        for value in stream:
            batch = [value * (k - 3.5) for k in range(8)]  # vector kernels
            assert observe(bank, rows, batch) == [
                row.observe(v) for row, v in zip(scalar, batch)
            ]
        assert [bank.row_state_dict(r) for r in rows] == [r.state_dict() for r in scalar]

    @settings(max_examples=40, deadline=None)
    @given(
        values=values_strategy,
        ratio=st.floats(min_value=0.05, max_value=0.95),
        offset=st.integers(min_value=0, max_value=5),
    )
    def test_split_and_fold_match_scalar(self, values, ratio, offset):
        """SPLIT (split_row) and MERGE (fold_row) agree with the object
        rows, including phase-misaligned seasonal states."""
        config = single_config(season=3)
        bank = ForecasterBank(config)
        a, b = bank.new_row(), bank.new_row()
        ref_a, ref_b = ScalarRow(config), ScalarRow(config)
        for value in values * 2:
            observe_one(bank, a, value)
            ref_a.observe(value)
        # b starts `offset` steps later: phases disagree when seasonal.
        for value in (values * 2)[offset:]:
            observe_one(bank, b, value * 2.0)
            ref_b.observe(value * 2.0)
        split = bank.split_row(a, ratio)
        bank.fold_row(a, b)
        ref_split, ref_remainder = ref_a.scaled(ratio), ref_a.scaled(1.0 - ratio)
        ref_remainder.add_state(ref_b)
        assert (
            bank.row_state_dict(split),
            bank.row_state_dict(a),
            bank.forecast(split),
            bank.forecast(a),
        ) == (
            ref_split.state_dict(),
            ref_remainder.state_dict(),
            ref_split.forecast(),
            ref_remainder.forecast(),
        )

    #: Single-season, multi-season and the single-season model by name on
    #: the first of two periods.
    KERNEL_CONFIGS = (
        single_config(season=2, fallback=0.3),
        multi_config(),
        ForecastConfig(season_lengths=(2, 5), fallback_alpha=0.4, model="holt-winters"),
    )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_small_batches_match_scalar_rows(self, data):
        """Batches of 1-8 rows — the sizes a close of a stable stream
        sends — through the one kernel: fresh rows (no EWMA level yet)
        beside warm ones, rows activating their seasonal model inside a
        batch, and steady all-warm batches."""
        config = data.draw(st.sampled_from(self.KERNEL_CONFIGS), label="config")
        bank = ForecasterBank(config)
        rows: list[int] = []
        mirror: list[ScalarRow] = []
        value = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)
        for _ in range(data.draw(st.integers(min_value=1, max_value=30), label="steps")):
            for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
                if len(rows) < 8:
                    rows.append(bank.new_row())
                    mirror.append(ScalarRow(config))
            if not rows:
                continue
            picked = data.draw(
                st.lists(
                    st.sampled_from(range(len(rows))), min_size=1, max_size=8, unique=True
                ),
                label="picked",
            )
            batch = [data.draw(value) for _ in picked]
            assert observe(bank, [rows[i] for i in picked], batch) == [
                mirror[i].observe(v) for i, v in zip(picked, batch)
            ]
            assert [bank.forecast(row) for row in rows] == [m.forecast() for m in mirror]
        assert [bank.row_state_dict(row) for row in rows] == [
            m.state_dict() for m in mirror
        ]

    def test_activation_inside_observe_rows_batch(self):
        config = single_config(season=2)  # min_history == 4
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(3)]
        for step in range(6):
            observe(bank, rows, [float(step), float(step * 2), 1.0])
        assert all(bank.row_state_dict(row)["seasonal"] is not None for row in rows)
        # Canonical state round-trips through a fresh bank.
        snapshot = bank.row_state_dict(rows[0])
        other = ForecasterBank(config)
        row = other.new_row()
        other.load_row_state(row, snapshot)
        assert other.row_state_dict(row) == snapshot
        assert other.forecast(row) == bank.forecast(rows[0])


class TestRowLifecycle:
    def test_rows_are_recycled(self):
        bank = ForecasterBank(single_config())
        first = bank.new_row()
        observe_one(bank, first, 5.0)
        bank.free_row(first)
        second = bank.new_row()
        assert second == first
        assert bank.row_state_dict(second)["seen"] == 0
        assert bank.forecast(second) == 0.0
        assert len(bank) == 1

    def test_len_counts_live_rows(self):
        bank = ForecasterBank(single_config())
        rows = [bank.new_row() for _ in range(5)]
        bank.free_row(rows[2])
        assert len(bank) == 4

    def test_every_row_op_equals_the_scalar_row(self):
        """New, observe, split, fold, reseed and load leave every row equal
        to the reference's scalar row fed the same calls."""
        config = multi_config()
        bank = ForecasterBank(config, window=6)
        rows = [bank.new_row() for _ in range(3)]
        mirror = [ScalarRow(config) for _ in range(3)]
        for step in range(9):
            batch = [float(step), 2.0 * step, 1.0]
            assert observe(bank, rows, batch) == [
                r.observe(v) for r, v in zip(mirror, batch)
            ]
        child = bank.split_row(rows[0], 0.25)
        mirror.append(mirror[0].scaled(0.25))
        mirror[0] = mirror[0].scaled(0.75)
        bank.fold_row(rows[1], rows[2])
        mirror[1].add_state(mirror[2])
        bank.free_row(rows[2])
        del mirror[2]
        bank.reseed(child, [1.0, 4.0, 2.0, 8.0, 5.0, 7.0])
        mirror[2] = ScalarRow(config)
        mirror[2].seed_fast([1.0, 4.0, 2.0, 8.0, 5.0, 7.0])
        loaded = bank.load_series_state(bank.series_state_dict(rows[1]))
        mirror.append(ScalarRow(config))
        mirror[3].load_state_dict(mirror[1].state_dict())
        live = [rows[0], rows[1], child, loaded]
        batch = [1.0, 2.0, 3.0, 4.0]
        assert observe(bank, live, batch) == [r.observe(v) for r, v in zip(mirror, batch)]
        assert [bank.row_state_dict(r) for r in live] == [r.state_dict() for r in mirror]

    def test_a_refused_snapshot_takes_no_row(self):
        config = single_config(season=2)  # min_history == 4
        bank = ForecasterBank(config, window=4)
        row = bank.new_row()
        state = bank.series_state_dict(row)
        state["forecaster"]["history"] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(CheckpointError, match="warm-up history"):
            bank.load_series_state(state)
        assert len(bank) == 1
        assert bank.new_row() == row + 1


class TestNamedModel:
    def test_a_named_builtin_model_gets_matrix_rows(self):
        """``model="holt-winters"`` with two periods lays out the named
        single-season model on the first period."""
        config = ForecastConfig(season_lengths=(2, 5), fallback_alpha=0.4, model="holt-winters")
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(7)]
        mirror = [ScalarRow(config) for _ in range(7)]
        for step in range(14):
            batch = [float(step * k % 5) for k in range(7)]
            assert observe(bank, rows, batch) == [
                r.observe(v) for r, v in zip(mirror, batch)
            ]
        assert [bank.row_state_dict(r) for r in rows] == [r.state_dict() for r in mirror]
        assert bank.row_state_dict(rows[0])["seasonal"]["season_length"] == 2

    def test_the_named_multi_seasonal_model_on_one_period_gets_matrix_rows(self):
        """``model="multi-seasonal-holt-winters"`` with one period keeps the
        multi-seasonal snapshot kind, not the single-season model ``"auto"``
        would pick."""
        config = ForecastConfig(
            season_lengths=(3,), fallback_alpha=0.4, model="multi-seasonal-holt-winters"
        )
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(5)]
        mirror = [ScalarRow(config) for _ in range(5)]
        for step in range(12):
            batch = [float(step * k % 4) for k in range(5)]
            assert observe(bank, rows, batch) == [
                r.observe(v) for r, v in zip(mirror, batch)
            ]
        assert [bank.row_state_dict(r) for r in rows] == [r.state_dict() for r in mirror]
        seasonal = bank.row_state_dict(rows[0])["seasonal"]
        assert seasonal["kind"] == "multi-seasonal-holt-winters"
