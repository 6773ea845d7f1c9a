"""Unit tests for :mod:`repro.core.timeseries`."""

import math
from collections import deque

import pytest

from repro.core.config import ForecastConfig
from repro.core.timeseries import MultiScaleTimeSeries, NodeTimeSeries, SeriesForecaster
from repro.exceptions import ConfigurationError
from repro.testing.reference import aligned_add


def fc(season=4, fallback=0.5):
    return ForecastConfig(season_lengths=(season,), fallback_alpha=fallback)


class TestSeriesForecaster:
    def test_starts_with_ewma_fallback(self):
        forecaster = SeriesForecaster(fc(season=8))
        assert not forecaster.is_seasonal
        assert forecaster.forecast() == 0.0
        forecaster.observe(10.0)
        assert forecaster.forecast() == pytest.approx(10.0)

    def test_switches_to_seasonal_after_enough_history(self):
        forecaster = SeriesForecaster(fc(season=4))
        for _ in range(8):
            forecaster.observe(5.0)
        assert forecaster.is_seasonal
        assert forecaster.forecast() == pytest.approx(5.0, abs=1e-6)

    def test_observe_returns_prior_forecast(self):
        forecaster = SeriesForecaster(fc(season=8, fallback=0.5))
        forecaster.observe(10.0)
        predicted = forecaster.observe(20.0)
        assert predicted == pytest.approx(10.0)

    def test_seasonal_forecast_tracks_periodic_series(self):
        period = 6
        series = [50 + 20 * math.sin(2 * math.pi * t / period) for t in range(10 * period)]
        forecaster = SeriesForecaster(ForecastConfig(season_lengths=(period,)))
        errors = []
        for value in series:
            predicted = forecaster.observe(value)
            if forecaster.is_seasonal:
                errors.append(abs(predicted - value))
        assert sum(errors[-period:]) / period < 5.0

    def test_scaled_is_linear(self):
        a = SeriesForecaster(fc(season=4))
        b = SeriesForecaster(fc(season=4))
        for t in range(12):
            value = 10.0 + (t % 4)
            a.observe(value)
            b.observe(3 * value)
        assert a.scaled(3.0).forecast() == pytest.approx(b.forecast(), rel=1e-9)

    def test_add_state_is_linear(self):
        a = SeriesForecaster(fc(season=4))
        b = SeriesForecaster(fc(season=4))
        c = SeriesForecaster(fc(season=4))
        for t in range(12):
            x = 5.0 + (t % 4)
            y = 2.0 + ((t + 1) % 4)
            a.observe(x)
            b.observe(y)
            c.observe(x + y)
        merged = a.copy()
        merged.add_state(b)
        assert merged.forecast() == pytest.approx(c.forecast(), rel=1e-9)

    def test_from_history_fast_matches_replay_forecast(self):
        history = [float(10 + (t % 4)) for t in range(16)]
        replayed = SeriesForecaster(fc(season=4))
        replayed.seed_history(history)
        fast = SeriesForecaster.from_history_fast(history, fc(season=4))
        assert fast.is_seasonal
        assert fast.observations == len(history)
        # The fast path initializes from the last two cycles only; on a purely
        # periodic series both states forecast the same next value.
        assert fast.forecast() == pytest.approx(replayed.forecast(), rel=0.05)

    def test_from_history_fast_short_history_uses_fallback(self):
        fast = SeriesForecaster.from_history_fast([3.0, 5.0], fc(season=4))
        assert not fast.is_seasonal
        assert fast.forecast() > 0.0
        empty = SeriesForecaster.from_history_fast([], fc(season=4))
        assert empty.forecast() == 0.0

    def test_seed_history_equivalent_to_observes(self):
        a = SeriesForecaster(fc(season=4))
        b = SeriesForecaster(fc(season=4))
        history = [float(t % 5) for t in range(10)]
        a.seed_history(history)
        for value in history:
            b.observe(value)
        assert a.forecast() == pytest.approx(b.forecast())
        assert a.observations == b.observations


class TestNodeTimeSeries:
    def test_length_bound_enforced(self):
        series = NodeTimeSeries(length=4, forecast_config=fc())
        for value in range(10):
            series.append(float(value))
        assert len(series) == 4
        assert list(series.actual) == [6.0, 7.0, 8.0, 9.0]
        assert len(series.forecast) == 4

    def test_latest_values(self):
        series = NodeTimeSeries(length=8, forecast_config=fc(fallback=1.0))
        series.append(3.0)
        series.append(5.0)
        assert series.latest_actual == 5.0
        # With alpha=1 the fallback forecast for the second value is the first.
        assert series.latest_forecast == pytest.approx(3.0)

    def test_empty_series_raises(self):
        series = NodeTimeSeries(length=4, forecast_config=fc())
        with pytest.raises(ConfigurationError):
            _ = series.latest_actual

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            NodeTimeSeries(length=0, forecast_config=fc())

    def test_from_history(self):
        series = NodeTimeSeries.from_history([1.0, 2.0, 3.0], length=8, forecast_config=fc())
        assert list(series.actual) == [1.0, 2.0, 3.0]

    def test_scaled_scales_everything(self):
        series = NodeTimeSeries.from_history([2.0, 4.0], length=8, forecast_config=fc())
        scaled = series.scaled(0.5)
        assert list(scaled.actual) == [1.0, 2.0]
        assert scaled.next_forecast() == pytest.approx(series.next_forecast() * 0.5)

    def test_merge_from_aligns_newest(self):
        a = NodeTimeSeries.from_history([1.0, 2.0, 3.0], length=8, forecast_config=fc())
        b = NodeTimeSeries.from_history([10.0], length=8, forecast_config=fc())
        a.merge_from(b)
        assert list(a.actual) == [1.0, 2.0, 13.0]

    def test_merge_from_longer_series_trims_to_capacity(self):
        """Merging a longer ring keeps the newest ``length`` elements, like
        the historical bounded deque did."""
        a = NodeTimeSeries.from_history([1.0, 2.0], length=2, forecast_config=fc())
        b = NodeTimeSeries.from_history(
            [10.0, 20.0, 30.0, 40.0], length=8, forecast_config=fc()
        )
        a.merge_from(b)
        assert list(a.actual) == [31.0, 42.0]
        assert len(a.actual) == 2

    def test_replace_actual_rebuilds_forecaster(self):
        series = NodeTimeSeries.from_history([1.0, 1.0, 1.0], length=8, forecast_config=fc(fallback=1.0))
        series.replace_actual([5.0, 5.0, 5.0])
        assert list(series.actual) == [5.0, 5.0, 5.0]
        assert series.next_forecast() == pytest.approx(5.0)

    def test_replace_actual_trims_to_length(self):
        series = NodeTimeSeries(length=2, forecast_config=fc())
        series.replace_actual([1.0, 2.0, 3.0])
        assert list(series.actual) == [2.0, 3.0]


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


class TestRowBackedWindows:
    """A standalone series keeps its windows in its (private) bank row; the
    row operations must be value-identical to the bounded-deque arithmetic
    of the reference series (:mod:`repro.testing.reference`)."""

    def _series(self, values, length=8):
        from repro.core.config import ForecastConfig
        from repro.core.timeseries import NodeTimeSeries

        config = ForecastConfig(season_lengths=(3,), fallback_alpha=0.4)
        series = NodeTimeSeries(length, config)
        for value in values:
            series.append(float(value))
        return series

    def test_split_inplace_matches_scaled_pair(self):
        donor = self._series(range(1, 12))
        reference = self._series(range(1, 12))
        child = donor.split_inplace(0.3)
        ref_child = reference.scaled(0.3)
        ref_parent = reference.scaled(0.7)
        assert child.actual.tolist() == ref_child.actual.tolist()
        assert child.forecast.tolist() == ref_child.forecast.tolist()
        assert donor.actual.tolist() == ref_parent.actual.tolist()
        assert donor.forecast.tolist() == ref_parent.forecast.tolist()
        assert child.forecaster.bank is donor.forecaster.bank

    def test_merge_from_matches_aligned_add(self):
        """Equal cursors, shorter, longer (growth), empty on either side —
        once across banks and once inside one bank (unequal cursors)."""
        for mine_n, theirs_n in [(11, 11), (11, 4), (3, 9), (0, 5), (6, 0)]:
            for same_bank in (False, True):
                mine = self._series(range(1, mine_n + 1))
                if same_bank:
                    theirs = NodeTimeSeries(
                        mine.length, mine.forecast_config, bank=mine.forecaster.bank
                    )
                    theirs.extend(float(v) for v in range(100, 100 + theirs_n))
                else:
                    theirs = self._series(range(100, 100 + theirs_n))
                expected_actual = list(aligned_add(mine.actual, theirs.actual, mine.length))
                expected_forecast = list(
                    aligned_add(mine.forecast, theirs.forecast, mine.length)
                )
                mine.merge_from(theirs)
                assert mine.actual.tolist() == expected_actual
                assert mine.forecast.tolist() == expected_forecast
                # the merged row keeps recording where the sum ends
                mine.record(7.0, 8.0)
                assert mine.actual[-1] == 7.0
                assert mine.forecast[-1] == 8.0
                assert theirs.actual.tolist() == [
                    float(v) for v in range(100, 100 + theirs_n)
                ][-mine.length :]

    def test_record_on_a_wrapped_ring_evicts_the_oldest(self):
        series = self._series(range(1, 15))  # 14 appends into 8 slots
        mirror = deque((float(v) for v in range(1, 15)), maxlen=8)
        series.record(42.0, 43.0)
        mirror.append(42.0)
        assert series.actual.tolist() == list(mirror)
        assert series.forecast[-1] == 43.0
        assert len(series.forecast) == 8

    def test_pickle_keeps_values_and_a_working_row(self):
        import pickle

        series = self._series(range(1, 12))
        clone = pickle.loads(pickle.dumps(series))
        assert clone.state_dict() == series.state_dict()
        child = clone.split_inplace(0.5)
        assert child.actual.tolist() == [v * 0.5 for v in series.actual.tolist()]
        assert clone.forecaster.bank is not series.forecaster.bank

    def test_one_bank_holds_one_window_length(self):
        series = self._series(range(3))
        bank = series.forecaster.bank
        with pytest.raises(ConfigurationError):
            NodeTimeSeries(4, series.forecast_config, bank=bank)
        assert len(bank) == 1  # the refused series took no row


class TestReleasedHandles:
    """A released handle is inert: the row it named may already belong to
    another series."""

    def test_double_release_does_not_hand_one_row_to_two_series(self):
        config = fc()
        bank = SeriesForecaster(config).bank
        a = NodeTimeSeries(8, config, bank=bank)
        a.release()
        a.release()
        b = NodeTimeSeries(8, config, bank=bank)
        c = NodeTimeSeries(8, config, bank=bank)
        assert b.forecaster.row != c.forecaster.row
        b.append(10.0)
        assert c.next_forecast() == 0.0

    def test_forecaster_double_release(self):
        forecaster = SeriesForecaster(fc())
        bank = forecaster.bank
        other = SeriesForecaster(fc(), bank=bank)
        forecaster.release()
        forecaster.release()
        assert len(bank) == 1
        assert SeriesForecaster(fc(), bank=bank).row != other.row

    def test_released_handle_refuses_use(self):
        series = NodeTimeSeries(8, fc())
        series.append(1.0)
        series.release()
        for use in (
            lambda: series.append(2.0),
            lambda: series.next_forecast(),
            lambda: list(series.actual),
            lambda: series.state_dict(),
            lambda: series.scaled(0.5),
        ):
            with pytest.raises(ConfigurationError):
                use()

    def test_free_row_of_a_dead_row_raises(self):
        from repro.forecasting.bank import ForecasterBank

        bank = ForecasterBank(fc())
        row = bank.new_row()
        bank.free_row(row)
        with pytest.raises(ConfigurationError):
            bank.free_row(row)
        with pytest.raises(ConfigurationError):
            bank.free_row(7)
        assert len(bank) == 0
