"""Fig. 2: representative aggregate time series (15-minute precision).

The paper shows a week of the normalized count of appearances for CCD and
SCD: a clear diurnal pattern with afternoon peaks and ~4 AM troughs, a weekly
dip on Saturday/Sunday for CCD, and occasional spikes.  The benchmark
regenerates the normalized root-aggregate series from the synthetic traces
and checks the peak/trough placement and the weekend effect.
"""

from __future__ import annotations

import pytest

from repro.datagen.arrival import hour_of_peak
from repro.streaming.clock import DAY

from conftest import write_result


def aggregate_series(dataset):
    series = [0.0] * dataset.num_timeunits
    for record in dataset.records():
        unit = dataset.clock.timeunit_of(record.timestamp)
        if 0 <= unit < len(series):
            series[unit] += 1.0
    peak = max(series) or 1.0
    return [value / peak for value in series]


def render(name, series, units_per_day):
    lines = [f"Fig. 2 ({name}) - normalized daily profile (mean over days)", ""]
    lines.append(f"{'hour':>6}{'normalized count':>18}")
    per_slot = [0.0] * units_per_day
    counts = [0] * units_per_day
    for index, value in enumerate(series):
        per_slot[index % units_per_day] += value
        counts[index % units_per_day] += 1
    for hour in range(24):
        slot = int(hour * units_per_day / 24)
        average = per_slot[slot] / max(counts[slot], 1)
        bar = "#" * int(40 * average)
        lines.append(f"{hour:>6}{average:>18.3f}  {bar}")
    return "\n".join(lines)


@pytest.mark.benchmark(group="fig2")
def test_fig2a_ccd_diurnal_and_weekly_pattern(benchmark, ccd_trouble_dataset):
    series = benchmark.pedantic(aggregate_series, args=(ccd_trouble_dataset,), rounds=1, iterations=1)
    units_per_day = int(DAY / ccd_trouble_dataset.config.delta_seconds)
    write_result("fig2a_ccd_timeseries", render("CCD", series, units_per_day))

    # Diurnal: the average peak sits in the afternoon, the trough at night.
    peak_hour = hour_of_peak(series, units_per_day)
    assert 12.0 <= peak_hour <= 20.0
    trough_hour = hour_of_peak([-v for v in series], units_per_day)
    assert trough_hour <= 8.0 or trough_hour >= 22.0

    # Weekly: the trace starts on a Saturday, so the first two days are
    # quieter than the following weekdays (Fig. 2(a)).
    units = units_per_day
    weekend = sum(series[: 2 * units]) / (2 * units)
    weekdays = sum(series[2 * units: 5 * units]) / (3 * units)
    assert weekend < weekdays


@pytest.mark.benchmark(group="fig2")
def test_fig2b_scd_diurnal_pattern(benchmark, scd_dataset):
    series = benchmark.pedantic(aggregate_series, args=(scd_dataset,), rounds=1, iterations=1)
    units_per_day = int(DAY / scd_dataset.config.delta_seconds)
    write_result("fig2b_scd_timeseries", render("SCD", series, units_per_day))

    # SCD shows a diurnal cycle but only a weak weekly one.
    daily_peak = max(series)
    assert daily_peak == 1.0
    peak_hour = hour_of_peak(series, units_per_day)
    trough_hour = hour_of_peak([-v for v in series], units_per_day)
    assert abs(peak_hour - trough_hour) >= 6.0
