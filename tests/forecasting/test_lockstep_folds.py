"""Rows observed in lockstep fold with one add; checkpoints ignore the clock.

ADA and STA observe every tracked row in every
:meth:`~repro.forecasting.bank.ForecasterBank.observe_rows` call.  The bank
counts those calls and stores each seasonal buffer rotated so that phase 0
of an initialization (warm-up activation, warm-start, reference correction)
sits at the clock's slot: every warm row then reads the same physical slot
next, and a MERGE of two of them is one add over the row however their
canonical phases differ.  The rotation is storage only — checkpoint bytes
and every float equal the per-object rows of :mod:`repro.testing.reference`.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig
from repro.exceptions import CheckpointError
from repro.forecasting import bank as bank_module
from repro.forecasting.bank import ForecasterBank
from repro.testing.reference import ReferenceSeries, ScalarRow

#: One, two and three seasonal periods.
CONFIGS = pytest.mark.parametrize(
    "config",
    [
        ForecastConfig(season_lengths=(3,), fallback_alpha=0.4),
        ForecastConfig(
            season_lengths=(3, 2), season_weights=(0.6, 0.4), fallback_alpha=0.5
        ),
        ForecastConfig(season_lengths=(2, 3, 4), fallback_alpha=0.3),
    ],
    ids=["one-period", "two-periods", "three-periods"],
)
WINDOW = 9

values = st.one_of(
    st.integers(min_value=-6, max_value=12).map(float),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64),
)


def spy_rotated_adds():
    """Count the bank's rotated segment adds (the slow fold path)."""
    return mock.patch.object(
        bank_module, "_rotated_add", wraps=bank_module._rotated_add
    )


class Lockstep:
    """A windowed bank closed as ADA closes it — every live row observed and
    recorded in every call — beside the reference series fed the same
    calls."""

    def __init__(self, config: ForecastConfig):
        self.config = config
        self.bank = ForecasterBank(config, window=WINDOW)
        self.rows: list[int] = []
        self.oracle: list[ReferenceSeries] = []

    def new(self) -> None:
        self.rows.append(self.bank.new_row())
        self.oracle.append(ReferenceSeries(WINDOW, self.config))

    def close(self, batch) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        column = np.asarray(batch, dtype=np.float64)
        forecasts = self.bank.observe_rows(rows, column)
        self.bank.record_rows(rows, column, forecasts)
        assert forecasts.tolist() == [s.append(v) for s, v in zip(self.oracle, batch)]

    def split(self, i: int, ratio: float) -> None:
        self.rows.append(self.bank.split_row(self.rows[i], ratio))
        donor = self.oracle[i]
        self.oracle[i] = donor.scaled(1.0 - ratio)
        self.oracle.append(donor.scaled(ratio))

    def fold(self, dst: int, src: int) -> None:
        self.bank.fold_row(self.rows[dst], self.rows[src])
        self.bank.free_row(self.rows.pop(src))
        self.oracle[dst].merge_from(self.oracle.pop(src))

    def reseed(self, i: int, corrected) -> None:
        self.bank.reseed(self.rows[i], corrected)
        self.oracle[i].replace_actual(corrected)

    def canonical(self) -> list:
        return [
            json.dumps(self.bank.series_state_dict(row), sort_keys=True)
            for row in self.rows
        ]

    def expected(self) -> list:
        return [json.dumps(s.state_dict(), sort_keys=True) for s in self.oracle]


class TestLockstepFoldsAreOneAdd:
    @CONFIGS
    def test_a_reseeded_row_folds_into_a_warm_peer_with_one_add(self, config):
        """A row reseeded one timeunit after its peer activated restarts at
        canonical phase 0 while the peer is at phase 1: the two still read
        one physical slot, so the fold rotates nothing."""
        world = Lockstep(config)
        world.new()
        world.new()
        for step in range(config.min_history + 1):
            world.close([float(step % 5), 2.0 * step])
        history = [float((7 * i) % 11) - 3.0 for i in range(config.min_history)]
        world.reseed(1, history)
        with spy_rotated_adds() as spy:
            world.fold(0, 1)
        assert spy.call_count == 0
        world.close([4.0])
        assert world.canonical() == world.expected()

    @CONFIGS
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_lockstep_histories_never_rotate(self, config, data):
        """New rows, activations, splits, reseeds and folds at arbitrary
        ticks, every live row closed in every call: no fold rotates a
        segment, and every row's bytes equal the reference's.  (Rows that
        differ in activity or warm-up length fold segment by segment, with
        a zero shift.)"""
        world = Lockstep(config)
        world.new()
        with spy_rotated_adds() as spy:
            for _ in range(data.draw(st.integers(min_value=10, max_value=45))):
                op = data.draw(
                    st.sampled_from(["close"] * 4 + ["new", "split", "fold", "reseed"])
                )
                live = len(world.rows)
                pick = st.integers(min_value=0, max_value=max(live - 1, 0))
                if op == "close" and live:
                    world.close(data.draw(st.lists(values, min_size=live, max_size=live)))
                elif op == "new":
                    world.new()
                elif op == "split" and live:
                    world.split(data.draw(pick), data.draw(st.floats(0.0, 1.0)))
                elif op == "fold" and live >= 2:
                    dst, src = data.draw(pick), data.draw(pick)
                    if dst != src:
                        world.fold(dst, src)
                elif op == "reseed" and live:
                    corrected = data.draw(st.lists(values, min_size=1, max_size=WINDOW))
                    world.reseed(data.draw(pick), corrected)
                assert world.canonical() == world.expected()
        assert [call.args[2] for call in spy.call_args_list if call.args[2]] == []


class TestCheckpointBytesIgnoreTheClock:
    @staticmethod
    def bank_at(config, tick: int) -> ForecasterBank:
        """A bank whose clock reads ``tick`` (a spare row observed that
        often)."""
        bank = ForecasterBank(config, window=64)
        spare = np.array([bank.new_row()], dtype=np.intp)
        for _ in range(tick):
            bank.observe_rows(spare, np.array([1.0]))
        return bank

    @CONFIGS
    @pytest.mark.parametrize("path", ["activation", "seed_fast", "reseed"])
    def test_one_history_gives_one_snapshot_at_every_tick(self, config, path):
        history = [float((5 * i) % 9) - 2.5 for i in range(config.min_history + 3)]
        scalar = ScalarRow(config)
        if path == "activation":
            for value in history:
                scalar.observe(value)
        else:
            scalar.seed_fast(history)
        period = max(config.season_lengths)
        for tick in range(2 * period * len(config.season_lengths) + 1):
            bank = self.bank_at(config, tick)
            row = bank.new_row()
            if path == "activation":
                for value in history:
                    bank.observe_rows(np.array([row]), np.array([value]))
            elif path == "seed_fast":
                bank.seed_fast(row, history)
            else:
                bank.reseed(row, history)
            assert json.dumps(bank.row_state_dict(row)) == json.dumps(scalar.state_dict())

    @CONFIGS
    def test_a_row_saved_at_any_tick_continues_in_a_fresh_bank(self, config):
        """Save a warm row at tick ``t``, load it into banks whose clocks
        read 0 and ``t + 1``: all three continue bit-identically."""
        steps = [float((3 * i) % 7) - 1.0 for i in range(config.min_history + 9)]
        period = max(config.season_lengths)
        for tick in range(2 * period + 1):
            source = self.bank_at(config, tick)
            row = source.new_row()
            for value in steps[: config.min_history + 2]:
                source.observe_rows(np.array([row]), np.array([value]))
            snapshot = json.loads(json.dumps(source.series_state_dict(row)))
            copies = [(source, row)]
            for clock in (0, tick + 1):
                bank = self.bank_at(config, clock)
                copies.append((bank, bank.load_series_state(snapshot)))
            for value in steps[config.min_history + 2 :]:
                forecasts = {
                    float(bank.observe_rows(np.array([r]), np.array([value]))[0])
                    for bank, r in copies
                }
                assert len(forecasts) == 1
                assert len({json.dumps(bank.row_state_dict(r)) for bank, r in copies}) == 1

    @CONFIGS
    def test_a_seasonal_buffer_of_another_length_is_refused(self, config):
        """A buffer is stored rotated, so one that is not exactly a period
        long cannot be placed: the snapshot does not fit the layout."""
        bank = self.bank_at(config, 1)
        row = bank.new_row()
        bank.seed_fast(row, [float(i % 4) for i in range(config.min_history)])
        state = bank.row_state_dict(row)
        buffers = state["seasonal"]["seasonals"]
        if isinstance(buffers[0], list):
            buffers[0] = buffers[0][:-1]
        else:
            del buffers[-1]
        with pytest.raises(CheckpointError, match="does not fit"):
            bank.load_row_state(bank.new_row(), state)
