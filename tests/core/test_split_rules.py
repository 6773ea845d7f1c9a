"""Unit tests for :mod:`repro.core.split_rules` (§V-B4)."""

import math

import numpy as np
import pytest

from repro._vector import left_sum
from repro.core.adapt import SPLIT, plan_adaptation
from repro.core.config import TiresiasConfig
from repro.core.split_rules import (
    EWMASplitRule,
    LastTimeUnitSplitRule,
    LongTermHistorySplitRule,
    NodeUsageStats,
    UniformSplitRule,
    make_split_rule,
)
from repro.exceptions import ConfigurationError
from repro.hierarchy.tree import HierarchyTree


def stats_with(last=0.0, cumulative=0.0, ewma=0.0, observations=1):
    return NodeUsageStats(
        last_weight=last,
        cumulative_weight=cumulative,
        ewma_weight=ewma,
        observations=observations,
    )


class TestNodeUsageStats:
    def test_first_update_seeds_ewma(self):
        stats = NodeUsageStats()
        stats.update(10.0, ewma_alpha=0.5)
        assert stats.last_weight == 10.0
        assert stats.cumulative_weight == 10.0
        assert stats.ewma_weight == 10.0
        assert stats.observations == 1

    def test_subsequent_updates_smooth(self):
        stats = NodeUsageStats()
        stats.update(10.0, 0.5)
        stats.update(0.0, 0.5)
        assert stats.ewma_weight == pytest.approx(5.0)
        assert stats.cumulative_weight == 10.0
        assert stats.last_weight == 0.0


class TestScores:
    def test_uniform(self):
        rule = UniformSplitRule()
        assert rule.score(stats_with(last=100)) == 1.0

    def test_last_time_unit(self):
        rule = LastTimeUnitSplitRule()
        assert rule.score(stats_with(last=7.0)) == 7.0

    def test_long_term_history(self):
        rule = LongTermHistorySplitRule()
        assert rule.score(stats_with(cumulative=42.0)) == 42.0

    def test_ewma(self):
        rule = EWMASplitRule(alpha=0.4)
        assert rule.score(stats_with(ewma=3.5)) == 3.5

    def test_ewma_alpha_validated(self):
        with pytest.raises(ConfigurationError):
            EWMASplitRule(alpha=0.0)


class TestRatios:
    def test_ratios_sum_to_one(self):
        rule = LongTermHistorySplitRule()
        ratios = rule.ratios(
            {
                "a": stats_with(cumulative=30.0),
                "b": stats_with(cumulative=10.0),
            }
        )
        assert sum(ratios.values()) == pytest.approx(1.0)
        assert ratios["a"] == pytest.approx(0.75)
        assert ratios["b"] == pytest.approx(0.25)

    def test_zero_scores_degrade_to_uniform(self):
        rule = LastTimeUnitSplitRule()
        ratios = rule.ratios({"a": stats_with(last=0.0), "b": stats_with(last=0.0)})
        assert ratios == {"a": 0.5, "b": 0.5}

    def test_empty_input(self):
        assert UniformSplitRule().ratios({}) == {}

    def test_uniform_ignores_statistics(self):
        rule = UniformSplitRule()
        ratios = rule.ratios(
            {"a": stats_with(last=100.0), "b": stats_with(last=1.0), "c": stats_with()}
        )
        assert all(r == pytest.approx(1 / 3) for r in ratios.values())


class TestFactory:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("uniform", UniformSplitRule),
            ("last-time-unit", LastTimeUnitSplitRule),
            ("long-term-history", LongTermHistorySplitRule),
            ("ewma", EWMASplitRule),
        ],
    )
    def test_make_split_rule(self, name, expected):
        config = TiresiasConfig(split_rule=name)
        assert isinstance(make_split_rule(config), expected)

    def test_ewma_alpha_propagated(self):
        config = TiresiasConfig(split_rule="ewma", split_ewma_alpha=0.8)
        rule = make_split_rule(config)
        assert rule.alpha == 0.8


class TestLeftFold:
    """Split ratios divide by a left-fold sum on every CPython: builtin
    ``sum()`` of floats is compensated from 3.12 on, and these scores are
    where the two disagree."""

    SCORES = [1e16, 1.0, 1.0]

    def test_left_sum_is_the_left_fold(self):
        assert left_sum(self.SCORES) == (1e16 + 1.0) + 1.0 == 1e16
        assert math.fsum(self.SCORES) == 1e16 + 2.0
        assert left_sum([]) == 0.0 and left_sum(iter([0.5, 0.25])) == 0.75

    def test_rule_ratios(self):
        stats = {key: stats_with(last=score) for key, score in zip("abc", self.SCORES)}
        ratios = LastTimeUnitSplitRule().ratios(stats)
        assert ratios["a"] == 1.0 != 1e16 / math.fsum(self.SCORES)
        assert ratios["b"] == ratios["c"] == 1e-16

    def test_planner_ratio(self):
        tree = HierarchyTree([("a",), ("b",), ("c",)])
        ids = tree.path_to_id
        series = np.zeros(tree.num_nodes, dtype=bool)
        series[0] = True
        heavy = np.zeros(tree.num_nodes, dtype=bool)
        heavy[ids[("a",)]] = True
        score = dict(zip((ids[(label,)] for label in "abc"), self.SCORES))
        plan = plan_adaptation(tree, series, heavy, lambda node: False, score.__getitem__)
        (split,) = [op for op in plan.ops if op[0] == SPLIT]
        assert split[:4] == (SPLIT, 0, ids[("a",)], 1.0)
