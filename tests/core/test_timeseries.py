"""Unit tests for a node's forecaster and windows as bank rows (written by
row operations, read off the row)."""

import math
import pickle
from collections import deque

import numpy as np
import pytest

from repro.core.config import ForecastConfig
from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank, load_seasonal_state
from repro.testing.reference import aligned_add


def observe(bank, row, value) -> float:
    """One close of ``row`` (a one-row batch); the forecast made for it."""
    return float(bank.observe_rows(np.array([row]), np.array([float(value)]))[0])


def record(bank, row, value, forecast) -> None:
    """Append one ``(actual, forecast)`` pair to ``row``'s windows."""
    bank.record_rows(np.array([row]), np.array([float(value)]), np.array([forecast]))


def close(bank, row, value) -> None:
    """Observe ``value`` and record it with its forecast, as a close does."""
    record(bank, row, value, observe(bank, row, value))


def fc(season=4, fallback=0.5):
    return ForecastConfig(season_lengths=(season,), fallback_alpha=fallback)


def fed_row(values, length=8, config=None):
    """A bank with one row that observed and recorded ``values``."""
    bank = ForecasterBank(config or fc(), window=length)
    row = bank.new_row()
    for value in values:
        close(bank, row, value)
    return bank, row


def is_seasonal(bank, row):
    """Whether the row's Holt-Winters state is active (vs. the EWMA fallback)."""
    return bank.row_state_dict(row)["seasonal"] is not None


class TestForecasterRows:
    """The EWMA fallback, seasonal activation and linearity of one row."""

    def test_starts_with_ewma_fallback(self):
        bank = ForecasterBank(fc(season=8))
        row = bank.new_row()
        assert not is_seasonal(bank, row)
        assert bank.forecast(row) == 0.0
        observe(bank, row, 10.0)
        assert bank.forecast(row) == pytest.approx(10.0)

    def test_switches_to_seasonal_after_enough_history(self):
        bank = ForecasterBank(fc(season=4))
        row = bank.new_row()
        for _ in range(8):
            observe(bank, row, 5.0)
        assert is_seasonal(bank, row)
        assert bank.forecast(row) == pytest.approx(5.0, abs=1e-6)

    def test_observe_returns_prior_forecast(self):
        bank = ForecasterBank(fc(season=8, fallback=0.5))
        row = bank.new_row()
        observe(bank, row, 10.0)
        assert observe(bank, row, 20.0) == pytest.approx(10.0)

    def test_seasonal_forecast_tracks_periodic_series(self):
        period = 6
        series = [50 + 20 * math.sin(2 * math.pi * t / period) for t in range(10 * period)]
        bank = ForecasterBank(ForecastConfig(season_lengths=(period,)))
        row = bank.new_row()
        errors = []
        for value in series:
            predicted = observe(bank, row, value)
            if is_seasonal(bank, row):
                errors.append(abs(predicted - value))
        assert sum(errors[-period:]) / period < 5.0

    def test_split_is_linear(self):
        bank = ForecasterBank(fc(season=4))
        a, b = bank.new_row(), bank.new_row()
        for t in range(12):
            value = 10.0 + (t % 4)
            observe(bank, a, value)
            observe(bank, b, 3 * value)
        child = bank.split_row(a, 0.75)
        assert bank.forecast(child) == pytest.approx(0.75 * bank.forecast(b) / 3, rel=1e-9)
        assert bank.forecast(a) == pytest.approx(0.25 * bank.forecast(b) / 3, rel=1e-9)

    def test_fold_is_linear(self):
        bank = ForecasterBank(fc(season=4))
        a, b, c = bank.new_row(), bank.new_row(), bank.new_row()
        for t in range(12):
            x = 5.0 + (t % 4)
            y = 2.0 + ((t + 1) % 4)
            observe(bank, a, x)
            observe(bank, b, y)
            observe(bank, c, x + y)
        bank.fold_row(a, b)
        assert bank.forecast(a) == pytest.approx(bank.forecast(c), rel=1e-9)

    def test_seed_fast_matches_replay_forecast(self):
        history = [float(10 + (t % 4)) for t in range(16)]
        bank = ForecasterBank(fc(season=4))
        replayed, fast = bank.new_row(), bank.new_row()
        for value in history:
            observe(bank, replayed, value)
        bank.seed_fast(fast, history)
        assert is_seasonal(bank, fast)
        assert bank.row_state_dict(fast)["seen"] == len(history)
        # The fast path initializes from the last two cycles only; on a purely
        # periodic series both states forecast the same next value.
        assert bank.forecast(fast) == pytest.approx(bank.forecast(replayed), rel=0.05)

    def test_seed_fast_short_history_uses_fallback(self):
        bank = ForecasterBank(fc(season=4))
        short, empty = bank.new_row(), bank.new_row()
        bank.seed_fast(short, [3.0, 5.0])
        bank.seed_fast(empty, [])
        assert not is_seasonal(bank, short)
        assert bank.forecast(short) > 0.0
        assert bank.forecast(empty) == 0.0


class TestRowReads:
    """What a row reads back: the window bound, the newest values, the
    snapshot round trip and the seasonal model copy."""

    def test_length_bound_enforced(self):
        bank, row = fed_row(range(10), length=4)
        assert bank.window_len(row, 0) == bank.window_len(row, 1) == 4
        assert bank.window_values(row, 0).tolist() == [6.0, 7.0, 8.0, 9.0]

    def test_latest_values(self):
        bank, row = fed_row([3.0, 5.0], config=fc(fallback=1.0))
        assert bank.window_values(row, 0)[-1] == 5.0
        # With alpha=1 the fallback forecast for the second value is the first.
        assert bank.window_values(row, 1)[-1] == pytest.approx(3.0)
        assert bank.forecast(row) == pytest.approx(5.0)

    def test_empty_row_reads_empty_windows(self):
        bank, row = fed_row([], length=4)
        assert bank.window_len(row, 0) == bank.window_len(row, 1) == 0
        assert bank.series_state_dict(row)["actual"] == []
        assert bank.series_state_dict(row)["forecast"] == []

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            ForecasterBank(fc(), window=0)

    def test_one_bank_holds_one_window_length(self):
        bank, row = fed_row(range(3))
        state = bank.series_state_dict(row)
        state["length"] = 4
        with pytest.raises(ConfigurationError):
            bank.load_series_state(state)
        assert len(bank) == 1

    def test_state_dict_round_trip(self):
        bank, row = fed_row(range(1, 12), config=fc(season=3))
        state = bank.series_state_dict(row)
        clone = ForecasterBank(bank.config)
        assert clone.series_state_dict(clone.load_series_state(state)) == state

    def test_reads_follow_row_writes_and_reallocation(self):
        bank, row = fed_row([2.0, 4.0])
        others = [bank.new_row() for _ in range(20)]  # grows the matrix
        bank.split_row(row, 0.25)
        record(bank, others[0], 9.0, 9.0)
        assert bank.window_values(row, 0).tolist() == [1.5, 3.0]
        assert bank.window_values(others[0], 0).tolist() == [9.0]

    def test_windows_read_oldest_first_across_the_wrap(self):
        bank, row = fed_row(range(1, 12), length=4)  # 11 records into 4 slots
        assert bank.window_values(row, 0).tolist() == [8.0, 9.0, 10.0, 11.0]
        assert bank.window_values(row, 0, newest=3).tolist() == [9.0, 10.0, 11.0]
        assert bank.window_values(row, 0, newest=9).tolist() == [8.0, 9.0, 10.0, 11.0]

    def test_seasonal_model_is_a_read_only_copy(self):
        bank, row = fed_row([5.0, 6.0])
        assert bank.row_state_dict(row)["seasonal"] is None
        for t in range(8):
            observe(bank, row, 5.0 + (t % 4))
        model = load_seasonal_state(bank.row_state_dict(row)["seasonal"])
        before = bank.forecast(row)
        model.level += 100.0
        assert bank.row_state_dict(row)["seasonal"]["level"] == pytest.approx(
            model.level - 100.0
        )
        assert bank.forecast(row) == before


class TestRowWindows:
    """A row's windows are value-identical to the bounded deques of the
    reference series (:mod:`repro.testing.reference`)."""

    def test_record_on_a_wrapped_ring_evicts_the_oldest(self):
        bank, row = fed_row(range(1, 15))  # 14 appends into 8 slots
        mirror = deque((float(v) for v in range(1, 15)), maxlen=8)
        record(bank, row, 42.0, 43.0)
        mirror.append(42.0)
        assert bank.window_values(row, 0).tolist() == list(mirror)
        assert bank.window_values(row, 1)[-1] == 43.0
        assert bank.window_len(row, 1) == 8

    def test_reseed_trims_to_the_window_and_restarts_the_forecaster(self):
        bank, row = fed_row([1.0, 1.0, 1.0], length=2, config=fc(fallback=1.0))
        bank.reseed(row, [1.0, 5.0, 5.0])
        assert bank.window_values(row, 0).tolist() == [5.0, 5.0]
        assert bank.window_values(row, 1).tolist() == [5.0, 5.0]
        assert bank.forecast(row) == pytest.approx(5.0)

    def test_pickle_keeps_values_and_a_working_row(self):
        bank, row = fed_row(range(1, 12), config=ForecastConfig(season_lengths=(3,)))
        clone = pickle.loads(pickle.dumps(bank))
        assert clone.series_state_dict(row) == bank.series_state_dict(row)
        child = clone.split_row(row, 0.5)
        assert clone.window_values(child, 0).tolist() == [
            v * 0.5 for v in bank.window_values(row, 0).tolist()
        ]

    def test_free_row_of_a_dead_row_raises(self):
        bank = ForecasterBank(fc())
        row = bank.new_row()
        bank.free_row(row)
        with pytest.raises(ConfigurationError):
            bank.free_row(row)
        with pytest.raises(ConfigurationError):
            bank.free_row(7)
        assert len(bank) == 0

    def test_a_refused_double_free_does_not_hand_one_row_to_two_series(self):
        bank = ForecasterBank(fc(), window=8)
        row = bank.new_row()
        bank.free_row(row)
        with pytest.raises(ConfigurationError):
            bank.free_row(row)
        b, c = bank.new_row(), bank.new_row()
        assert b != c
        close(bank, b, 10.0)
        assert bank.forecast(c) == 0.0
        assert bank.window_len(c, 0) == 0

    def test_load_windows_keeps_the_newest(self):
        bank = ForecasterBank(fc(), window=2)
        row = bank.new_row()
        bank.load_windows(row, [10.0, 20.0, 30.0, 40.0], [1.0, 2.0, 3.0])
        assert bank.window_values(row, 0).tolist() == [30.0, 40.0]
        assert bank.window_values(row, 1).tolist() == [2.0, 3.0]
        record(bank, row, 50.0, 4.0)
        assert bank.window_values(row, 0).tolist() == [40.0, 50.0]

    def test_reseed_keeps_the_row(self):
        bank, row = fed_row([1.0, 2.0, 3.0])
        other = bank.new_row()
        bank.reseed(row, [5.0, 6.0, 7.0])
        assert len(bank) == 2
        assert bank.window_values(row, 0).tolist() == [5.0, 6.0, 7.0]
        assert bank.window_len(other, 0) == 0

    def test_split_matches_the_scaled_pair(self):
        bank, row = fed_row(range(1, 12), config=ForecastConfig(season_lengths=(3,)))
        actual = bank.window_values(row, 0).tolist()
        forecast = bank.window_values(row, 1).tolist()
        before = bank.forecast(row)
        child = bank.split_row(row, 0.3)
        assert bank.window_values(child, 0).tolist() == [v * 0.3 for v in actual]
        assert bank.window_values(child, 1).tolist() == [v * 0.3 for v in forecast]
        assert bank.window_values(row, 0).tolist() == [v * 0.7 for v in actual]
        assert bank.window_values(row, 1).tolist() == [v * 0.7 for v in forecast]
        assert bank.forecast(child) == pytest.approx(0.3 * before, rel=1e-9)
        assert bank.forecast(row) == pytest.approx(0.7 * before, rel=1e-9)

    def test_fold_aligns_newest(self):
        bank, a = fed_row([1.0, 2.0, 3.0])
        b = bank.new_row()
        close(bank, b, 10.0)
        bank.fold_row(a, b)
        assert bank.window_values(a, 0).tolist() == [1.0, 2.0, 13.0]

    @pytest.mark.parametrize(
        "mine_n, theirs_n", [(11, 11), (11, 4), (3, 9), (0, 5), (6, 0)]
    )
    def test_fold_matches_aligned_add(self, mine_n, theirs_n):
        """Equal lengths, shorter, longer, empty on either side; the rows'
        window cursors differ whenever their lengths do."""
        bank, mine = fed_row(range(1, mine_n + 1), config=fc(season=3, fallback=0.4))
        theirs = bank.new_row()
        for value in range(100, 100 + theirs_n):
            close(bank, theirs, value)
        expected = [
            list(
                aligned_add(
                    bank.window_values(mine, which).tolist(),
                    bank.window_values(theirs, which).tolist(),
                    bank.window,
                )
            )
            for which in (0, 1)
        ]
        bank.fold_row(mine, theirs)
        assert [bank.window_values(mine, which).tolist() for which in (0, 1)] == expected
        # the folded row keeps recording where the sum ends
        record(bank, mine, 7.0, 8.0)
        assert bank.window_values(mine, 0)[-1] == 7.0
        assert bank.window_values(mine, 1)[-1] == 8.0
        assert bank.window_values(theirs, 0).tolist() == [
            float(v) for v in range(100, 100 + theirs_n)
        ][-bank.window :]
