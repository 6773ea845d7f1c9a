"""Unit tests for :mod:`repro.evaluation.ccdf` (Fig. 1 characterization)."""

import pytest

from repro.evaluation.ccdf import all_level_ccdfs, level_ccdf, per_level_counts
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord


@pytest.fixture
def tree():
    return HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


@pytest.fixture
def clock():
    return SimulationClock(delta=100.0)


def records_at(leaf, unit, count, delta=100.0):
    return [
        OperationalRecord.create(unit * delta + i * 0.5, leaf) for i in range(count)
    ]


class TestPerLevelCounts:
    def test_counts_propagate_up_the_hierarchy(self, tree, clock):
        records = records_at(("a", "a1"), 0, 4) + records_at(("a", "a2"), 0, 2)
        counts = per_level_counts(tree, records, clock, num_units=2)
        assert counts[2][(("a", "a1"), 0)] == 4
        assert counts[1][(("a",), 0)] == 6
        assert counts[0][((), 0)] == 6

    def test_out_of_range_and_unknown_records_skipped(self, tree, clock):
        records = records_at(("a", "a1"), 5, 3) + [
            OperationalRecord.create(10.0, ("unknown",))
        ]
        counts = per_level_counts(tree, records, clock, num_units=2)
        assert counts == {}


class TestLevelCCDF:
    def test_empty_fraction_reflects_sparsity(self, tree, clock):
        # Only one of four leaves is active in one of four timeunits.
        records = records_at(("a", "a1"), 0, 5)
        result = level_ccdf(tree, records, clock, num_units=4, depth=2)
        assert result.empty_fraction == pytest.approx(15 / 16)

    def test_ccdf_is_monotone_non_increasing_in_count(self, tree, clock):
        records = (
            records_at(("a", "a1"), 0, 10)
            + records_at(("a", "a2"), 0, 3)
            + records_at(("b", "b1"), 1, 6)
        )
        result = level_ccdf(tree, records, clock, num_units=2, depth=2)
        xs = [x for x, _ in result.points]
        ys = [y for _, y in result.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)

    def test_normalization_by_global_max(self, tree, clock):
        records = records_at(("a", "a1"), 0, 10) + records_at(("b", "b1"), 1, 5)
        result = level_ccdf(tree, records, clock, num_units=2, depth=2)
        # The global max is the root count (15 in unit 0? no: per-cell max).
        max_normalized = max(x for x, _ in result.points)
        assert max_normalized <= 1.0

    def test_ccdf_at_lookup(self, tree, clock):
        records = records_at(("a", "a1"), 0, 10)
        result = level_ccdf(tree, records, clock, num_units=1, depth=2)
        assert result.ccdf_at(2.0) == 0.0
        assert result.ccdf_at(0.0001) > 0.0


class TestAllLevels:
    def test_lower_levels_are_sparser(self, tree, clock):
        """The paper's key observation: sparsity increases with depth."""
        records = []
        for unit in range(8):
            records += records_at(("a", "a1"), unit, 2)
            records += records_at(("b", "b1"), unit, 1)
        curves = all_level_ccdfs(tree, records, clock, num_units=8)
        assert set(curves) == {0, 1, 2}
        assert curves[0].empty_fraction <= curves[1].empty_fraction <= curves[2].empty_fraction

    def test_root_level_never_empty_when_records_exist(self, tree, clock):
        records = [OperationalRecord.create(u * 100.0 + 1, ("a", "a1")) for u in range(4)]
        curves = all_level_ccdfs(tree, records, clock, num_units=4)
        assert curves[0].empty_fraction == 0.0
