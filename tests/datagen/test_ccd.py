"""Unit tests for :mod:`repro.datagen.ccd`."""

import pytest

from repro.datagen.arrival import hour_of_peak
from repro.datagen.ccd import CCD_TICKET_MIX, CCDConfig, make_ccd_dataset
from repro.exceptions import ConfigurationError
from repro.streaming.clock import DAY


class TestConfig:
    def test_defaults_valid(self):
        config = CCDConfig()
        assert config.duration_seconds == 14 * DAY

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            CCDConfig(dimension="magic")

    def test_negative_anomalies_rejected(self):
        with pytest.raises(ConfigurationError):
            CCDConfig(num_anomalies=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("duration_days", 0.0), ("base_rate_per_hour", -1.0), ("anomaly_warmup_days", -1.0)],
    )
    def test_rejects_an_out_of_range_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CCDConfig(**{field: value})


class TestTroubleDimension:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_ccd_dataset(
            CCDConfig(
                dimension="trouble",
                duration_days=3.0,
                base_rate_per_hour=200.0,
                num_anomalies=2,
                anomaly_warmup_days=1.0,
                seed=5,
            )
        )

    def test_hierarchy_is_five_levels(self, dataset):
        assert dataset.tree.depth == 5

    def test_num_timeunits(self, dataset):
        assert dataset.num_timeunits == 3 * 96

    def test_first_level_mix_close_to_table1(self, dataset):
        records = dataset.record_list()
        background = [r for r in records if not r.attributes.get("injected")]
        counts: dict[str, int] = {}
        for record in background:
            counts[record.category[0]] = counts.get(record.category[0], 0) + 1
        total = sum(counts.values())
        observed_tv = counts.get("TV", 0) / total * 100
        assert observed_tv == pytest.approx(CCD_TICKET_MIX["TV"], abs=6.0)
        # Categories outside Table I (non-performance tickets) must not appear.
        assert counts.get("Provisioning", 0) == 0
        assert counts.get("Other", 0) == 0

    def test_anomalies_start_after_warmup(self, dataset):
        assert all(a.start >= DAY for a in dataset.anomalies)
        assert len(dataset.anomalies) == 2
        assert dataset.ground_truth()

    def test_diurnal_peak_in_afternoon(self, dataset):
        records = dataset.record_list()
        units_per_day = int(DAY // dataset.config.delta_seconds)
        series = [0.0] * dataset.num_timeunits
        for record in records:
            unit = dataset.clock.timeunit_of(record.timestamp)
            if 0 <= unit < len(series):
                series[unit] += 1
        peak_hour = hour_of_peak(series, units_per_day)
        assert 12.0 <= peak_hour <= 20.0


class TestNetworkDimension:
    def test_network_hierarchy_shape(self):
        dataset = make_ccd_dataset(
            CCDConfig(dimension="network", duration_days=1.0, num_anomalies=0, seed=3)
        )
        assert dataset.tree.depth == 5
        assert dataset.tree.root_label == "SHO"
        records = dataset.record_list()
        assert records
        assert all(len(r.category) == 4 for r in records)

    def test_weekend_volume_lower_than_weekday(self):
        dataset = make_ccd_dataset(
            CCDConfig(
                dimension="trouble",
                duration_days=4.0,
                num_anomalies=0,
                weekly_strength=0.4,
                volatility=0.0,
                seed=8,
            )
        )
        records = dataset.record_list()
        # The trace starts on a Saturday: days 0-1 are weekend, days 2-3 weekdays.
        weekend = sum(1 for r in records if r.timestamp < 2 * DAY)
        weekday = sum(1 for r in records if r.timestamp >= 2 * DAY)
        assert weekend < weekday
