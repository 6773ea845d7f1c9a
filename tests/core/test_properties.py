"""Property-based tests (hypothesis) for the core invariants.

These correspond to the paper's formal claims:

* Definition 2 -- the succinct heavy hitter set is the unique bottom-up fixed
  point; checked against a brute-force recursive evaluation on random trees
  and random counts.
* Lemma 1 -- ADA's heavy hitter set equals the per-unit Definition-2 set (and
  therefore STA's) on arbitrary count sequences.
* Lemma 2 -- additive Holt-Winters forecasts are linear in the input series.
* Fig. 10 -- the multi-scale series' coarse scales are exact sums of the base
  scale.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ada import ADAAlgorithm
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.hhh import accumulate_raw_weights, compute_shhh
from repro.core.sta import STAAlgorithm
from repro.forecasting.holt_winters import HoltWintersForecaster
from repro.hierarchy.tree import HierarchyTree

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: A small fixed universe of leaf paths over a 3-level hierarchy; hypothesis
#: picks arbitrary count assignments over it.
LEAF_PATHS = [
    (f"l1-{a}", f"l2-{a}{b}", f"l3-{a}{b}{c}")
    for a in range(2)
    for b in range(2)
    for c in range(2)
]


def make_tree() -> HierarchyTree:
    return HierarchyTree(LEAF_PATHS)


leaf_counts = st.dictionaries(
    keys=st.sampled_from(LEAF_PATHS),
    values=st.integers(min_value=0, max_value=30),
    max_size=len(LEAF_PATHS),
)

count_sequences = st.lists(leaf_counts, min_size=1, max_size=8)


def brute_force_shhh(tree: HierarchyTree, counts, theta: float):
    """Direct recursive evaluation of Definition 2 (independent of compute_shhh)."""
    raw = accumulate_raw_weights(tree, counts)
    membership: dict[tuple, bool] = {}
    modified: dict[tuple, float] = {}

    def evaluate(path):
        children = tree.children(path)
        if not children:
            weight = raw.get(path, 0.0)
        else:
            weight = 0.0
            for child in children:
                evaluate(child)
                if not membership[child]:
                    weight += modified[child]
        modified[path] = weight
        membership[path] = weight >= theta

    evaluate(())
    return {path for path, member in membership.items() if member}


# ----------------------------------------------------------------------
# Definition 2
# ----------------------------------------------------------------------


class TestSHHHProperties:
    @given(counts=leaf_counts, theta=st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_compute_shhh_matches_brute_force(self, counts, theta):
        tree = make_tree()
        result = compute_shhh(tree, counts, float(theta))
        assert set(result.shhh) == brute_force_shhh(tree, counts, float(theta))

    @given(counts=leaf_counts, theta=st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_members_have_weight_at_least_theta(self, counts, theta):
        tree = make_tree()
        result = compute_shhh(tree, counts, float(theta))
        for path in result.shhh:
            assert result.modified_weights[path] >= theta

    @given(counts=leaf_counts, theta=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_total_modified_weight_conserved(self, counts, theta):
        """Heavy hitter weights plus the root's residual cover every record."""
        tree = make_tree()
        result = compute_shhh(tree, counts, float(theta))
        total_records = sum(counts.values())
        heavy_weight = sum(result.modified_weights[p] for p in result.shhh)
        root_residual = 0.0 if () in result.shhh else result.modified_weights.get((), 0.0)
        assert heavy_weight + root_residual == total_records

    @given(counts=leaf_counts)
    @settings(max_examples=40, deadline=None)
    def test_theta_monotonicity_on_leaves(self, counts):
        """Raising theta can only shrink the set of heavy *leaf* nodes."""
        tree = make_tree()
        small = compute_shhh(tree, counts, 3.0)
        large = compute_shhh(tree, counts, 9.0)
        small_leaves = {p for p in small.shhh if len(p) == 3}
        large_leaves = {p for p in large.shhh if len(p) == 3}
        assert large_leaves <= small_leaves


# ----------------------------------------------------------------------
# Lemma 1: ADA == STA heavy hitter sets
# ----------------------------------------------------------------------


def small_config(split_rule: str = "long-term-history") -> TiresiasConfig:
    return TiresiasConfig(
        theta=6.0,
        window_units=16,
        track_root=False,
        reference_levels=1,
        split_rule=split_rule,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )


class TestLemma1:
    @given(sequence=count_sequences)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ada_heavy_hitters_match_sta(self, sequence):
        tree = make_tree()
        ada = ADAAlgorithm(tree, small_config())
        sta = STAAlgorithm(tree, small_config())
        for counts in sequence:
            ada_result = ada.process_timeunit(counts)
            sta_result = sta.process_timeunit(counts)
            assert ada_result.heavy_hitters == sta_result.heavy_hitters

    @given(sequence=count_sequences, rule=st.sampled_from(
        ["uniform", "last-time-unit", "long-term-history", "ewma"]
    ))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_heavy_hitter_has_series_for_all_split_rules(self, sequence, rule):
        tree = make_tree()
        ada = ADAAlgorithm(tree, small_config(split_rule=rule))
        for counts in sequence:
            result = ada.process_timeunit(counts)
            expected = compute_shhh(tree, counts, ada.config.theta).shhh
            assert result.heavy_hitters == expected
            for path in result.heavy_hitters:
                assert ada.series_state(path) is not None

    @given(sequence=count_sequences)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_latest_actual_matches_modified_weight(self, sequence):
        """The newest series value appended by ADA is the Definition-2 weight."""
        tree = make_tree()
        ada = ADAAlgorithm(tree, small_config())
        for counts in sequence:
            result = ada.process_timeunit(counts)
            expected = compute_shhh(tree, counts, ada.config.theta)
            for path in result.heavy_hitters:
                assert result.actuals[path] == expected.modified_weights.get(path, 0.0)


# ----------------------------------------------------------------------
# Lemma 2: Holt-Winters linearity
# ----------------------------------------------------------------------


class TestLemma2:
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=16,
            max_size=48,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_of_forecasts_is_forecast_of_sum(self, data):
        period = 4
        s1 = [x for x, _ in data]
        s2 = [y for _, y in data]
        total = [x + y for x, y in data]
        a = HoltWintersForecaster(season_length=period)
        b = HoltWintersForecaster(season_length=period)
        c = HoltWintersForecaster(season_length=period)
        split = 2 * period
        a.initialize(s1[:split])
        b.initialize(s2[:split])
        c.initialize(total[:split])
        for x, y, z in zip(s1[split:], s2[split:], total[split:]):
            fa = a.update(x)
            fb = b.update(y)
            fc = c.update(z)
            assert math.isclose(fa + fb, fc, rel_tol=1e-9, abs_tol=1e-6)

    @given(
        series=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=16, max_size=40),
        factor=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_commutes_with_forecasting(self, series, factor):
        period = 4
        a = HoltWintersForecaster(season_length=period)
        b = HoltWintersForecaster(season_length=period)
        split = 2 * period
        a.initialize(series[:split])
        b.initialize([factor * v for v in series[:split]])
        for value in series[split:]:
            a.update(value)
            b.update(factor * value)
        assert math.isclose(
            a.scaled(factor).forecast(), b.forecast(), rel_tol=1e-9, abs_tol=1e-6
        )

