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

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig
from repro.exceptions import CheckpointError
from repro.forecasting.bank import ForecasterBank
from repro.forecasting.holt_winters import HoltWintersForecaster, MultiSeasonalHoltWinters
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

    #: Single-season, two seasons and three.
    KERNEL_CONFIGS = (
        single_config(season=2, fallback=0.3),
        multi_config(),
        ForecastConfig(season_lengths=(2, 3, 5), fallback_alpha=0.4),
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


class TestOneInitializer:
    """Every layout starts a row's seasonal state in place — on warm-up
    activation, warm-start and reference correction alike — equal to the
    scalar model's initialization, and builds no scalar model on the way."""

    CONFIGS = (
        single_config(season=3),
        multi_config(),
        ForecastConfig(season_lengths=(2, 3, 4), fallback_alpha=0.4),
    )

    @pytest.mark.parametrize("path", ["activation", "seed_fast", "reseed"])
    @pytest.mark.parametrize(
        "config", CONFIGS, ids=["one-period", "two-periods", "three-periods"]
    )
    def test_no_scalar_model_is_built(self, config, path, monkeypatch):
        history = [float((3 * i) % 7) - 1.5 for i in range(config.min_history + 5)]
        scalar = ScalarRow(config)
        if path == "activation":
            for value in history:
                scalar.observe(value)
        else:
            scalar.seed_fast(history)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the bank built a scalar model")

        monkeypatch.setattr(HoltWintersForecaster, "__init__", refuse)
        monkeypatch.setattr(MultiSeasonalHoltWinters, "__init__", refuse)
        bank = ForecasterBank(config, window=64)
        row = bank.new_row()
        if path == "activation":
            for value in history:
                observe_one(bank, row, value)
        elif path == "seed_fast":
            bank.seed_fast(row, history)
        else:
            bank.reseed(row, history)
        assert json.dumps(bank.row_state_dict(row)) == json.dumps(scalar.state_dict())


class TestSeasonalSums:
    """The bank and the scalar models add the same floats in the same order,
    each sum a left fold from ``+0.0`` (:func:`repro._vector.left_sum`)."""

    def test_three_weighted_factors_add_as_a_left_fold(self):
        """Weighted factors 1e16, 1.0 and -1e16: a left fold loses the 1.0
        to rounding and forecasts 0.0, where builtin ``sum`` — compensated
        from CPython 3.12 on — would forecast 1.0."""
        config = ForecastConfig(
            season_lengths=(1, 2, 3), season_weights=(0.25, 0.5, 0.25), fallback_alpha=0.5
        )
        state = {
            "ewma_level": 0.0,
            "seen": 6,
            "history": [],
            "seasonal": {
                "kind": "multi-seasonal-holt-winters",
                "alpha": config.alpha,
                "beta": config.beta,
                "gamma": config.gamma,
                "season_lengths": [1, 2, 3],
                "season_weights": [0.25, 0.5, 0.25],
                "level": 0.0,
                "trend": 0.0,
                "seasonals": [[4e16], [2.0, 0.0], [-4e16, 0.0, 0.0]],
                "phases": [0, 0, 0],
            },
        }
        bank = ForecasterBank(config)
        row = bank.new_row()
        bank.load_row_state(row, state)
        scalar = ScalarRow(config)
        scalar.load_state_dict(state)
        assert bank.forecast(row) == scalar.forecast() == 0.0
        assert observe_one(bank, row, 5.0) == scalar.observe(5.0)
        assert json.dumps(bank.row_state_dict(row)) == json.dumps(scalar.state_dict())

    @pytest.mark.parametrize("config", [single_config(season=2), multi_config()])
    def test_an_all_negative_zero_window_initializes_as_the_scalar_row(self, config):
        """A fold from ``+0.0`` sums an all ``-0.0`` window to ``+0.0``, on
        both initialization paths (warm-start and activation)."""
        history = [-0.0] * config.min_history
        bank = ForecasterBank(config)
        seeded, observed = bank.new_row(), bank.new_row()
        bank.seed_fast(seeded, history)
        scalar_seeded, scalar_observed = ScalarRow(config), ScalarRow(config)
        scalar_seeded.seed_fast(history)
        for value in history:
            observe_one(bank, observed, value)
            scalar_observed.observe(value)
        for row, scalar in ((seeded, scalar_seeded), (observed, scalar_observed)):
            snapshot = bank.row_state_dict(row)
            assert json.dumps(snapshot) == json.dumps(scalar.state_dict())
            assert str(snapshot["seasonal"]["level"]) == "0.0"
