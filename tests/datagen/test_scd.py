"""Unit tests for :mod:`repro.datagen.scd`."""

import pytest

from repro.datagen.ccd import CCDConfig, make_ccd_dataset
from repro.datagen.scd import SCDConfig, make_scd_dataset
from repro.exceptions import ConfigurationError
from repro.streaming.clock import DAY


class TestConfig:
    def test_defaults_valid(self):
        config = SCDConfig()
        assert config.duration_seconds == 10 * DAY

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SCDConfig(duration_days=0)
        with pytest.raises(ConfigurationError):
            SCDConfig(num_anomalies=-2)

    @pytest.mark.parametrize(
        "field, value", [("base_rate_per_hour", -1.0), ("anomaly_warmup_days", -1.0)]
    )
    def test_rejects_an_out_of_range_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SCDConfig(**{field: value})


class TestDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_scd_dataset(
            SCDConfig(
                duration_days=2.0,
                base_rate_per_hour=300.0,
                network_scale=0.02,
                num_anomalies=2,
                anomaly_warmup_days=0.5,
                seed=21,
            )
        )

    def test_hierarchy_is_four_levels(self, dataset):
        assert dataset.tree.depth == 4
        assert dataset.tree.root_label == "National"

    def test_first_level_much_wider_than_lower_levels(self, dataset):
        level1 = len(dataset.tree.paths_at_depth(1))
        degree2 = dataset.tree.typical_degree_at_level(2)
        assert level1 > degree2

    def test_records_are_stb_leaf_paths(self, dataset):
        records = dataset.record_list()
        assert records
        assert all(len(r.category) == 3 for r in records)
        leaves = set(dataset.tree.leaf_paths())
        assert all(r.category in leaves for r in records)

    def test_ground_truth_present(self, dataset):
        assert len(dataset.anomalies) == 2
        assert dataset.ground_truth()

    def test_num_timeunits(self, dataset):
        assert dataset.num_timeunits == 2 * 96


class TestTopLevelSkew:
    def test_skewed_co_load_concentrates_records(self):
        flat = make_scd_dataset(
            SCDConfig(duration_days=1.0, num_anomalies=0, network_scale=0.05, seed=9)
        )
        skewed = make_scd_dataset(
            SCDConfig(
                duration_days=1.0,
                num_anomalies=0,
                network_scale=0.05,
                top_level_zipf_exponent=1.5,
                seed=9,
            )
        )

        def top_share(dataset):
            counts: dict[str, int] = {}
            for record in dataset.record_list():
                counts[record.category[0]] = counts.get(record.category[0], 0) + 1
            total = sum(counts.values())
            return max(counts.values()) / total if total else 0.0

        assert top_share(skewed) > top_share(flat)


class TestSCDvsCCDCharacteristics:
    def test_scd_weekly_seasonality_weaker_than_ccd(self):
        scd = SCDConfig()
        ccd = CCDConfig()
        assert scd.weekly_strength < ccd.weekly_strength

    def test_scd_volatility_lower_than_ccd(self):
        """§VII-A attributes SCD's higher ADA accuracy to its lower variance."""
        assert SCDConfig().volatility < CCDConfig().volatility

    def test_scd_hierarchy_wider_than_ccd_network(self):
        scd = make_scd_dataset(SCDConfig(duration_days=0.5, num_anomalies=0, network_scale=0.02))
        ccd = make_ccd_dataset(
            CCDConfig(dimension="network", duration_days=0.5, num_anomalies=0, network_scale=0.05)
        )
        scd_width = len(scd.tree.paths_at_depth(1))
        ccd_width = len(ccd.tree.paths_at_depth(1))
        assert scd_width > ccd_width
