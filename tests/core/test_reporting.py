"""Unit tests for :mod:`repro.core.reporting`."""

import json

import pytest

from repro.core.detector import Anomaly
from repro.core.reporting import AnomalyQuery, AnomalyReportStore


def anomaly(path, unit, actual=20.0, forecast=5.0):
    return Anomaly(tuple(path), unit, actual=actual, forecast=forecast, depth=len(path))


@pytest.fixture
def store():
    store = AnomalyReportStore()
    store.add_many(
        [
            anomaly(("vho-1",), 10),
            anomaly(("vho-1", "io-1"), 10),
            anomaly(("vho-2",), 12),
            anomaly(("vho-1", "io-1", "co-3"), 15, actual=100.0, forecast=10.0),
        ]
    )
    return store


class TestQueries:
    def test_query_all(self, store):
        assert len(store.query()) == 4
        assert len(store) == 4

    def test_time_range(self, store):
        results = store.query(AnomalyQuery(start_timeunit=11, end_timeunit=14))
        assert [a.timeunit for a in results] == [12]

    def test_subtree_filter(self, store):
        results = store.query(AnomalyQuery(subtree=("vho-1",)))
        assert len(results) == 3
        assert all(a.node_path[0] == "vho-1" for a in results)

    def test_depth_filter(self, store):
        results = store.query(AnomalyQuery(min_depth=2))
        assert {a.node_path for a in results} == {
            ("vho-1", "io-1"),
            ("vho-1", "io-1", "co-3"),
        }

    def test_max_depth_filter(self, store):
        results = store.query(AnomalyQuery(max_depth=1))
        assert {a.node_path for a in results} == {("vho-1",), ("vho-2",)}

    def test_magnitude_filters(self, store):
        results = store.query(AnomalyQuery(min_excess=50.0))
        assert len(results) == 1
        results = store.query(AnomalyQuery(min_ratio=5.0))
        assert len(results) == 1

    def test_grouping(self, store):
        by_unit = store.by_timeunit()
        assert set(by_unit) == {10, 12, 15}
        by_depth = store.by_depth()
        assert set(by_depth) == {1, 2, 3}


class TestDeduplication:
    def test_ancestor_anomalies_removed_within_timeunit(self, store):
        deduped = store.deduplicate_ancestors()
        paths_at_10 = {a.node_path for a in deduped if a.timeunit == 10}
        # ("vho-1",) is an ancestor of ("vho-1", "io-1") at the same timeunit.
        assert paths_at_10 == {("vho-1", "io-1")}

    def test_depth_distribution_sums_to_one(self, store):
        distribution = store.depth_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in distribution.values())

    def test_empty_store_distribution(self):
        assert AnomalyReportStore().depth_distribution() == {}


class TestPersistence:
    def test_jsonl_round_trip(self, store, tmp_path):
        path = tmp_path / "anomalies.jsonl"
        store.save_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        restored = [Anomaly.from_dict(json.loads(line)) for line in lines]
        assert len(restored) == len(store)
        original = {(a.node_path, a.timeunit) for a in store}
        loaded = {(a.node_path, a.timeunit) for a in restored}
        assert original == loaded
