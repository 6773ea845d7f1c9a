"""Unit tests for :mod:`repro.core.timeseries`: a node's forecaster and
windows as bank rows (written by row operations, read through the handles),
and the multi-time-scale series."""

import math
import pickle
from collections import deque

import pytest

from repro.core.config import ForecastConfig
from repro.core.timeseries import MultiScaleTimeSeries, NodeTimeSeries, SeriesForecaster
from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank
from repro.testing.reference import aligned_add


def fc(season=4, fallback=0.5):
    return ForecastConfig(season_lengths=(season,), fallback_alpha=fallback)


def fed_row(values, length=8, config=None):
    """A bank with one row that observed and recorded ``values``."""
    bank = ForecasterBank(config or fc(), window=length)
    row = bank.new_row()
    for value in values:
        bank.record(row, float(value), bank.observe(row, value))
    return bank, row


def view(bank, row):
    """The read handle of ``row``."""
    return NodeTimeSeries(bank.window, bank.config, SeriesForecaster(bank.config, bank, row))


class TestForecasterRows:
    """The EWMA fallback, seasonal activation and linearity of one row."""

    def test_starts_with_ewma_fallback(self):
        bank = ForecasterBank(fc(season=8))
        row = bank.new_row()
        assert not bank.is_seasonal(row)
        assert bank.forecast(row) == 0.0
        bank.observe(row, 10.0)
        assert bank.forecast(row) == pytest.approx(10.0)

    def test_switches_to_seasonal_after_enough_history(self):
        bank = ForecasterBank(fc(season=4))
        row = bank.new_row()
        for _ in range(8):
            bank.observe(row, 5.0)
        assert bank.is_seasonal(row)
        assert bank.forecast(row) == pytest.approx(5.0, abs=1e-6)

    def test_observe_returns_prior_forecast(self):
        bank = ForecasterBank(fc(season=8, fallback=0.5))
        row = bank.new_row()
        bank.observe(row, 10.0)
        assert bank.observe(row, 20.0) == pytest.approx(10.0)

    def test_seasonal_forecast_tracks_periodic_series(self):
        period = 6
        series = [50 + 20 * math.sin(2 * math.pi * t / period) for t in range(10 * period)]
        bank = ForecasterBank(ForecastConfig(season_lengths=(period,)))
        row = bank.new_row()
        errors = []
        for value in series:
            predicted = bank.observe(row, value)
            if bank.is_seasonal(row):
                errors.append(abs(predicted - value))
        assert sum(errors[-period:]) / period < 5.0

    def test_split_is_linear(self):
        bank = ForecasterBank(fc(season=4))
        a, b = bank.new_row(), bank.new_row()
        for t in range(12):
            value = 10.0 + (t % 4)
            bank.observe(a, value)
            bank.observe(b, 3 * value)
        child = bank.split_row(a, 0.75)
        assert bank.forecast(child) == pytest.approx(0.75 * bank.forecast(b) / 3, rel=1e-9)
        assert bank.forecast(a) == pytest.approx(0.25 * bank.forecast(b) / 3, rel=1e-9)

    def test_fold_is_linear(self):
        bank = ForecasterBank(fc(season=4))
        a, b, c = bank.new_row(), bank.new_row(), bank.new_row()
        for t in range(12):
            x = 5.0 + (t % 4)
            y = 2.0 + ((t + 1) % 4)
            bank.observe(a, x)
            bank.observe(b, y)
            bank.observe(c, x + y)
        bank.fold_row(a, b)
        assert bank.forecast(a) == pytest.approx(bank.forecast(c), rel=1e-9)

    def test_seed_fast_matches_replay_forecast(self):
        history = [float(10 + (t % 4)) for t in range(16)]
        bank = ForecasterBank(fc(season=4))
        replayed, fast = bank.new_row(), bank.new_row()
        for value in history:
            bank.observe(replayed, value)
        bank.seed_fast(fast, history)
        assert bank.is_seasonal(fast)
        assert bank.observations(fast) == len(history)
        # The fast path initializes from the last two cycles only; on a purely
        # periodic series both states forecast the same next value.
        assert bank.forecast(fast) == pytest.approx(bank.forecast(replayed), rel=0.05)

    def test_seed_fast_short_history_uses_fallback(self):
        bank = ForecasterBank(fc(season=4))
        short, empty = bank.new_row(), bank.new_row()
        bank.seed_fast(short, [3.0, 5.0])
        bank.seed_fast(empty, [])
        assert not bank.is_seasonal(short)
        assert bank.forecast(short) > 0.0
        assert bank.forecast(empty) == 0.0


class TestNodeTimeSeries:
    """The read handle over a row's windows."""

    def test_length_bound_enforced(self):
        series = view(*fed_row(range(10), length=4))
        assert len(series) == 4
        assert list(series.actual) == [6.0, 7.0, 8.0, 9.0]
        assert len(series.forecast) == 4

    def test_latest_values(self):
        series = view(*fed_row([3.0, 5.0], config=fc(fallback=1.0)))
        assert series.latest_actual == 5.0
        # With alpha=1 the fallback forecast for the second value is the first.
        assert series.latest_forecast == pytest.approx(3.0)
        assert series.next_forecast() == pytest.approx(5.0)

    def test_empty_series_raises(self):
        series = view(*fed_row([], length=4))
        with pytest.raises(ConfigurationError):
            _ = series.latest_actual

    def test_invalid_length(self):
        bank, row = fed_row([])
        with pytest.raises(ConfigurationError):
            NodeTimeSeries(0, fc(), SeriesForecaster(fc(), bank, row))

    def test_one_bank_holds_one_window_length(self):
        bank, row = fed_row(range(3))
        with pytest.raises(ConfigurationError):
            NodeTimeSeries(4, bank.config, SeriesForecaster(bank.config, bank, row))
        assert len(bank) == 1

    def test_state_dict_round_trip(self):
        series = view(*fed_row(range(1, 12), config=fc(season=3)))
        clone = NodeTimeSeries.from_state_dict(series.state_dict(), series.forecast_config)
        assert clone.state_dict() == series.state_dict()
        assert clone.forecaster.bank is not series.forecaster.bank

    def test_views_follow_row_writes_and_reallocation(self):
        bank, row = fed_row([2.0, 4.0])
        series = view(bank, row)
        actual = series.actual
        others = [bank.new_row() for _ in range(20)]  # grows the matrix
        bank.split_row(row, 0.25)
        bank.record(others[0], 9.0, 9.0)
        assert actual.tolist() == [1.5, 3.0]
        assert series.latest_actual == 3.0
        assert series.next_forecast() == bank.forecast(row)

    def test_windows_read_oldest_first_across_the_wrap(self):
        series = view(*fed_row(range(1, 12), length=4))  # 11 records into 4 slots
        assert list(series.actual) == [8.0, 9.0, 10.0, 11.0]
        assert series.actual[0] == 8.0
        assert series.actual[-1] == 11.0
        assert series.actual.values(newest=3).tolist() == [9.0, 10.0, 11.0]
        assert series.actual.values(newest=9).tolist() == [8.0, 9.0, 10.0, 11.0]

    def test_seasonal_model_is_a_read_only_copy(self):
        bank, row = fed_row([5.0, 6.0])
        series = view(bank, row)
        assert series.forecaster.seasonal_model is None
        for t in range(8):
            bank.observe(row, 5.0 + (t % 4))
        model = series.forecaster.seasonal_model
        before = series.next_forecast()
        model.level += 100.0
        assert series.forecaster.seasonal_model.level == pytest.approx(model.level - 100.0)
        assert series.next_forecast() == before

    def test_detached_handle_refuses_use(self):
        series = view(*fed_row([1.0]))
        series.forecaster.detach()
        for use in (
            lambda: series.next_forecast(),
            lambda: list(series.actual),
            lambda: series.state_dict(),
        ):
            with pytest.raises(ConfigurationError, match="released"):
                use()


class TestRowWindows:
    """A row's windows are value-identical to the bounded deques of the
    reference series (:mod:`repro.testing.reference`)."""

    def test_record_on_a_wrapped_ring_evicts_the_oldest(self):
        bank, row = fed_row(range(1, 15))  # 14 appends into 8 slots
        mirror = deque((float(v) for v in range(1, 15)), maxlen=8)
        bank.record(row, 42.0, 43.0)
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
        bank.record(b, 10.0, bank.observe(b, 10.0))
        assert bank.forecast(c) == 0.0
        assert bank.window_len(c, 0) == 0

    def test_load_windows_keeps_the_newest(self):
        bank = ForecasterBank(fc(), window=2)
        row = bank.new_row()
        bank.load_windows(row, [10.0, 20.0, 30.0, 40.0], [1.0, 2.0, 3.0])
        assert bank.window_values(row, 0).tolist() == [30.0, 40.0]
        assert bank.window_values(row, 1).tolist() == [2.0, 3.0]
        bank.record(row, 50.0, 4.0)
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
        bank.record(b, 10.0, bank.observe(b, 10.0))
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
            bank.record(theirs, float(value), bank.observe(theirs, value))
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
        bank.record(mine, 7.0, 8.0)
        assert bank.window_values(mine, 0)[-1] == 7.0
        assert bank.window_values(mine, 1)[-1] == 8.0
        assert bank.window_values(theirs, 0).tolist() == [
            float(v) for v in range(100, 100 + theirs_n)
        ][-bank.window :]


class TestMultiScaleTimeSeries:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiScaleTimeSeries(length=0, num_scales=2, lam=4)
        with pytest.raises(ConfigurationError):
            MultiScaleTimeSeries(length=8, num_scales=0, lam=4)
        with pytest.raises(ConfigurationError):
            MultiScaleTimeSeries(length=8, num_scales=2, lam=1)
        with pytest.raises(ConfigurationError):
            MultiScaleTimeSeries(length=8, num_scales=2, lam=4, alpha=0.0)

    def test_promotion_sums_lambda_values(self):
        series = MultiScaleTimeSeries(length=16, num_scales=2, lam=4)
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]:
            series.append(value)
        assert series.series_at_scale(1) == [10.0, 26.0]

    def test_three_scales_cascade(self):
        series = MultiScaleTimeSeries(length=64, num_scales=3, lam=2)
        for value in range(1, 9):
            series.append(float(value))
        assert series.series_at_scale(1) == [3.0, 7.0, 11.0, 15.0]
        assert series.series_at_scale(2) == [10.0, 26.0]

    def test_amortized_constant_updates(self):
        """Fig. 10: total per-scale updates stay within 2x the appended values."""
        series = MultiScaleTimeSeries(length=1024, num_scales=5, lam=2)
        appended = 512
        for value in range(appended):
            series.append(1.0)
        assert series.update_calls <= 2 * appended

    def test_memory_bounded_by_length_plus_lambda(self):
        series = MultiScaleTimeSeries(length=8, num_scales=2, lam=4)
        for value in range(200):
            series.append(1.0)
        assert len(series.series_at_scale(0)) < 8 + 4
        assert len(series.forecast_at_scale(0)) == len(series.series_at_scale(0))

    def test_scale_bounds_checked(self):
        series = MultiScaleTimeSeries(length=8, num_scales=2, lam=2)
        with pytest.raises(ConfigurationError):
            series.series_at_scale(2)
        with pytest.raises(ConfigurationError):
            series.forecast_at_scale(-1)

    def test_forecast_series_tracks_constant_input(self):
        series = MultiScaleTimeSeries(length=32, num_scales=1, lam=2, alpha=0.5)
        for _ in range(10):
            series.append(4.0)
        assert series.forecast_at_scale(0)[-1] == pytest.approx(4.0)
