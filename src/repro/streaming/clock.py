"""Simulation clock utilities.

Operational traces are replayed against a simulated wall clock.  The clock
converts between absolute timestamps (seconds since the trace epoch), timeunit
indices of width ``delta`` seconds, and human-readable hour/day offsets used
by the seasonal arrival models and the plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._types import Timestamp, TimeunitIndex
from repro.exceptions import ConfigurationError

#: Seconds per hour/day, used throughout the configs.
HOUR = 3600.0
DAY = 24 * HOUR


@dataclass(frozen=True)
class SimulationClock:
    """Maps timestamps to timeunits of fixed width ``delta`` seconds.

    Parameters
    ----------
    delta:
        Timeunit width in seconds (the paper's Δ; typically 900 s = 15 min).
    epoch:
        Timestamp of the start of timeunit 0.
    epoch_weekday:
        Day of week of the epoch (0 = Monday) so that weekly seasonality in
        the generators lines up with the paper's Saturday/Sunday dips.
    epoch_hour:
        Local hour of day at the epoch, for diurnal alignment.
    """

    delta: float = 900.0
    epoch: Timestamp = 0.0
    epoch_weekday: int = 0
    epoch_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if not 0 <= self.epoch_weekday <= 6:
            raise ConfigurationError("epoch_weekday must be in 0..6")
        if not 0.0 <= self.epoch_hour < 24.0:
            raise ConfigurationError("epoch_hour must be in [0, 24)")

    # ------------------------------------------------------------------
    # Timeunit arithmetic
    # ------------------------------------------------------------------
    def timeunit_of(self, timestamp: Timestamp) -> TimeunitIndex:
        """Index of the timeunit containing ``timestamp``."""
        return int((timestamp - self.epoch) // self.delta)

    def timeunit_start(self, index: TimeunitIndex) -> Timestamp:
        """Timestamp of the start of timeunit ``index``."""
        return self.epoch + index * self.delta

    def units_per_day(self) -> float:
        return DAY / self.delta

    # ------------------------------------------------------------------
    # Calendar helpers for seasonal models
    # ------------------------------------------------------------------
    def hour_of_day(self, timestamp: Timestamp) -> float:
        """Local hour of day in [0, 24) at ``timestamp``."""
        elapsed_hours = (timestamp - self.epoch) / HOUR + self.epoch_hour
        return elapsed_hours % 24.0

    def day_of_week(self, timestamp: Timestamp) -> int:
        """Local day of week (0 = Monday) at ``timestamp``."""
        elapsed_days = (timestamp - self.epoch + self.epoch_hour * HOUR) / DAY
        return int(self.epoch_weekday + elapsed_days) % 7

    def is_weekend(self, timestamp: Timestamp) -> bool:
        return self.day_of_week(timestamp) >= 5
