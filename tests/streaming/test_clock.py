"""Unit tests for :mod:`repro.streaming.clock`."""

import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.clock import DAY, HOUR, SimulationClock


class TestConstants:
    def test_units(self):
        assert HOUR == 3600
        assert DAY == 24 * HOUR


class TestTimeunits:
    def test_timeunit_of(self):
        clock = SimulationClock(delta=900.0)
        assert clock.timeunit_of(0.0) == 0
        assert clock.timeunit_of(899.9) == 0
        assert clock.timeunit_of(900.0) == 1
        assert clock.timeunit_of(900.0 * 10 + 1) == 10

    def test_timeunit_bounds_roundtrip(self):
        clock = SimulationClock(delta=600.0, epoch=100.0)
        for index in (0, 1, 7, 123):
            start = clock.timeunit_start(index)
            assert clock.timeunit_of(start) == index

    def test_units_per_day(self):
        clock = SimulationClock(delta=900.0)
        assert clock.units_per_day() == 96

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            SimulationClock(delta=0.0)

    def test_invalid_weekday(self):
        with pytest.raises(ConfigurationError):
            SimulationClock(epoch_weekday=7)

    def test_invalid_hour(self):
        with pytest.raises(ConfigurationError):
            SimulationClock(epoch_hour=24.0)


class TestCalendar:
    def test_hour_of_day_wraps(self):
        clock = SimulationClock(delta=900.0, epoch_hour=22.0)
        assert clock.hour_of_day(0.0) == pytest.approx(22.0)
        assert clock.hour_of_day(3 * HOUR) == pytest.approx(1.0)

    def test_day_of_week_progression(self):
        clock = SimulationClock(delta=900.0, epoch_weekday=5)  # Saturday
        assert clock.day_of_week(0.0) == 5
        assert clock.day_of_week(DAY) == 6
        assert clock.day_of_week(2 * DAY) == 0  # wraps to Monday

    def test_is_weekend(self):
        clock = SimulationClock(delta=900.0, epoch_weekday=5)
        assert clock.is_weekend(0.0)
        assert clock.is_weekend(DAY)
        assert not clock.is_weekend(2 * DAY)
