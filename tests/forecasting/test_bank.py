"""Unit + property tests for :mod:`repro.forecasting.bank`.

The bank's contract is that every backend — vectorized NumPy kernels, the
per-row scalar fallback (``force_scalar=True``), and the no-NumPy object mode
— produces *bit-identical* forecasts, state snapshots and split/merge
results.  Hypothesis drives random value sequences across the
seasonal-activation boundary and through clone/add (SPLIT/MERGE) edges; the
shared ``python_tier`` fixture covers the pure-Python path end to end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig
from repro.core.timeseries import FloatRing, NodeTimeSeries, SeriesForecaster
from repro.forecasting.bank import ForecasterBank
from tests.conftest import python_tier


def single_config(season=4, fallback=0.5):
    return ForecastConfig(season_lengths=(season,), fallback_alpha=fallback)


def multi_config():
    return ForecastConfig(
        season_lengths=(3, 6), season_weights=(0.7, 0.3), fallback_alpha=0.4
    )


values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=40,
)


class TestBackendAgreement:
    """Vectorized kernels == scalar rows, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy, season=st.sampled_from([2, 3, 4]))
    def test_observe_rows_matches_scalar_rows(self, values, season):
        config = single_config(season=season)
        vector = ForecasterBank(config)
        scalar = ForecasterBank(config, force_scalar=True)
        if not vector.vectorized:
            pytest.skip("NumPy unavailable")
        n_rows = 3
        v_rows = [vector.new_row() for _ in range(n_rows)]
        s_rows = [scalar.new_row() for _ in range(n_rows)]
        for value in values:
            # Distinct per-row values; rows cross seasonal activation at the
            # same step, exercising the mixed active/warm-up kernel.
            batch = [value, value * 0.5, value + 1.0]
            vector_forecasts = vector.observe_rows(v_rows, batch)
            scalar_forecasts = [
                scalar.observe(row, value) for row, value in zip(s_rows, batch)
            ]
            assert vector_forecasts == scalar_forecasts
        for v_row, s_row in zip(v_rows, s_rows):
            assert vector.row_state_dict(v_row) == scalar.row_state_dict(s_row)

    @settings(max_examples=30, deadline=None)
    @given(values=values_strategy)
    def test_multi_seasonal_agreement(self, values):
        config = multi_config()
        vector = ForecasterBank(config)
        scalar = ForecasterBank(config, force_scalar=True)
        if not vector.vectorized:
            pytest.skip("NumPy unavailable")
        v_rows = [vector.new_row() for _ in range(2)]
        s_rows = [scalar.new_row() for _ in range(2)]
        stream = values * 3  # long enough to activate both seasons
        for value in stream:
            batch = [value, -value]
            assert vector.observe_rows(v_rows, batch) == [
                scalar.observe(row, val) for row, val in zip(s_rows, batch)
            ]
        assert [vector.row_state_dict(r) for r in v_rows] == [
            scalar.row_state_dict(r) for r in s_rows
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        values=values_strategy,
        ratio=st.floats(min_value=0.05, max_value=0.95),
        offset=st.integers(min_value=0, max_value=5),
    )
    def test_clone_and_add_match_scalar(self, values, ratio, offset):
        """SPLIT (clone_row) and MERGE (add_state) agree across backends,
        including phase-misaligned seasonal states."""
        config = single_config(season=3)
        banks = {
            "vector": ForecasterBank(config),
            "scalar": ForecasterBank(config, force_scalar=True),
        }
        if not banks["vector"].vectorized:
            pytest.skip("NumPy unavailable")
        states = {}
        for name, bank in banks.items():
            a = bank.new_row()
            b = bank.new_row()
            for value in values * 2:
                bank.observe(a, value)
            # b starts `offset` steps later: phases disagree when seasonal.
            for value in (values * 2)[offset:]:
                bank.observe(b, value * 2.0)
            split = bank.clone_row(a, ratio)
            remainder = bank.clone_row(a, 1.0 - ratio)
            bank.add_state(remainder, bank, b)
            states[name] = (
                bank.row_state_dict(split),
                bank.row_state_dict(remainder),
                bank.forecast(split),
                bank.forecast(remainder),
            )
        assert states["vector"] == states["scalar"]

    def test_activation_inside_observe_rows_batch(self):
        config = single_config(season=2)  # min_history == 4
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(3)]
        for step in range(6):
            bank.observe_rows(rows, [float(step), float(step * 2), 1.0])
        assert all(bank.is_seasonal(row) for row in rows)
        # Canonical state round-trips through a fresh bank of either backend.
        snapshot = bank.row_state_dict(rows[0])
        for force in (False, True):
            other = ForecasterBank(config, force_scalar=force)
            row = other.new_row()
            other.load_row_state(row, snapshot)
            assert other.row_state_dict(row) == snapshot
            assert other.forecast(row) == bank.forecast(rows[0])


class TestRowLifecycle:
    def test_rows_are_recycled(self):
        bank = ForecasterBank(single_config())
        first = bank.new_row()
        bank.observe(first, 5.0)
        bank.free_row(first)
        second = bank.new_row()
        assert second == first
        assert bank.observations(second) == 0
        assert bank.forecast(second) == 0.0
        assert len(bank) == 1

    def test_len_counts_live_rows(self):
        bank = ForecasterBank(single_config())
        rows = [bank.new_row() for _ in range(5)]
        bank.free_row(rows[2])
        assert len(bank) == 4

    def test_observe_rows_stays_vectorized_around_object_rows(self):
        """One foreign-layout row must not de-vectorize the whole batch; the
        mixed partition returns forecasts in input order, identical to a
        fully scalar replay."""
        foreign = ForecasterBank(single_config(season=5, fallback=0.3))
        foreign_row = foreign.new_row()
        for value in [2.0, 4.0] * 10:
            foreign.observe(foreign_row, value)
        config = single_config(season=4, fallback=0.3)
        bank = ForecasterBank(config)
        scalar = ForecasterBank(config, force_scalar=True)
        if not bank.vectorized:
            pytest.skip("NumPy unavailable")
        snapshot = foreign.row_state_dict(foreign_row)
        rows, mirror = [], []
        for _ in range(3):
            rows.append(bank.new_row())
            mirror.append(scalar.new_row())
        odd_row = bank.new_row()
        bank.load_row_state(odd_row, snapshot)
        odd_mirror = scalar.new_row()
        scalar.load_row_state(odd_mirror, snapshot)
        rows.insert(1, odd_row)
        mirror.insert(1, odd_mirror)
        assert odd_row in bank._obj
        for step in range(12):
            batch = [float(step), 2.0, float(step % 3), 7.0]
            got = bank.observe_rows(rows, batch)
            want = [scalar.observe(r, v) for r, v in zip(mirror, batch)]
            assert got == want
        assert [bank.row_state_dict(r) for r in rows] == [
            scalar.row_state_dict(r) for r in mirror
        ]

    def test_mismatched_seasonal_snapshot_becomes_object_row(self):
        """A snapshot with foreign seasonal parameters still restores and
        behaves like the scalar path (held as an object row)."""
        foreign = ForecasterBank(single_config(season=5, fallback=0.3))
        row = foreign.new_row()
        for value in [3.0, 1.0, 4.0, 1.0, 5.0] * 4:
            foreign.observe(row, value)
        snapshot = foreign.row_state_dict(row)
        assert snapshot["seasonal"] is not None
        bank = ForecasterBank(single_config(season=4, fallback=0.3))
        loaded = bank.new_row()
        bank.load_row_state(loaded, snapshot)
        assert bank.is_seasonal(loaded)
        assert bank.row_state_dict(loaded) == snapshot
        assert bank.forecast(loaded) == foreign.forecast(row)
        # The object row keeps observing correctly (scalar semantics).
        assert bank.observe(loaded, 2.0) == foreign.observe(row, 2.0)
        assert bank.row_state_dict(loaded) == foreign.row_state_dict(row)


class TestNoNumpyFallback:
    """The whole-process python-tier fixture, applied to the bank stack."""

    def test_bank_runs_without_numpy(self, python_tier):
        config = single_config(season=3)
        bank = ForecasterBank(config)
        assert not bank.vectorized
        rows = [bank.new_row() for _ in range(3)]
        forecasts = None
        for step in range(10):
            forecasts = bank.observe_rows(rows, [1.0 + step, 2.0, 0.5 * step])
        assert len(forecasts) == 3
        assert all(bank.is_seasonal(row) for row in rows)
        snapshot = bank.row_state_dict(rows[0])
        clone = bank.clone_row(rows[0], 0.25)
        bank.add_state(clone, bank, rows[1])
        restored = bank.new_row()
        bank.load_row_state(restored, snapshot)
        assert bank.row_state_dict(restored) == snapshot

    def test_fallback_detections_match_vector_backend(self):
        """A full ADA run on the python tier reproduces the vector tier's
        detections bit for bit (reference computed before entering the
        python tier, so the two backends genuinely differ)."""
        reference = _run_ada_workload()
        with python_tier():
            fallback = _run_ada_workload()
        assert fallback == reference

    def test_float_ring_fallback_semantics(self, python_tier):
        ring = FloatRing(3)
        for value in [1.0, 2.0, 3.0, 4.0]:
            ring.append(value)
        assert list(ring) == [2.0, 3.0, 4.0]
        assert ring[-1] == 4.0
        assert ring.scaled(2.0).tolist() == [4.0, 6.0, 8.0]
        other = FloatRing.from_values([10.0], 3)
        assert ring.aligned_add(other).tolist() == [2.0, 3.0, 14.0]


def _run_ada_workload():
    """Run a small ADA workload with split/merge churn; return its outputs."""
    from repro.core.ada import ADAAlgorithm
    from repro.core.config import TiresiasConfig
    from repro.hierarchy.tree import HierarchyTree

    tree = HierarchyTree.from_leaf_paths(
        [("a", f"a{i}") for i in range(4)] + [("b", f"b{i}") for i in range(3)]
    )
    config = TiresiasConfig(
        theta=3.0,
        ratio_threshold=1.5,
        difference_threshold=2.0,
        delta_seconds=60.0,
        window_units=8,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(3,), fallback_alpha=0.4),
    )
    algo = ADAAlgorithm(tree, config)
    outputs = []
    for unit in range(16):
        counts = {
            ("a", "a0"): 4 + unit % 3,
            ("a", "a1"): 2 if unit % 4 else 7,
            ("b", "b0"): 9 if unit == 9 else 3,
            ("b", "b1"): unit % 2,
        }
        result = algo.process_timeunit(counts, unit)
        outputs.append(
            (
                sorted(result.heavy_hitters),
                result.actuals,
                result.forecasts,
                [a.to_dict() for a in result.anomalies],
            )
        )
    import json

    state = algo.state_dict()
    outputs.append(state["series"])
    # Stats rows are emitted in node-id order by the dense store and in
    # first-seen order by the dict store; compare them as a canonical set.
    outputs.append(sorted(json.dumps(row, sort_keys=True) for row in state["stats"]))
    return outputs


class TestViewClasses:
    def test_series_forecaster_shares_bank_on_scaled(self):
        config = single_config()
        forecaster = SeriesForecaster(config)
        for value in [1.0, 2.0, 3.0]:
            forecaster.observe(value)
        clone = forecaster.scaled(0.5)
        assert clone.bank is forecaster.bank
        assert clone.row != forecaster.row
        assert clone.forecast() == pytest.approx(forecaster.forecast() * 0.5)

    def test_node_series_release_recycles_rows(self):
        config = single_config()
        bank = ForecasterBank(config)
        series = NodeTimeSeries(8, config, bank=bank)
        series.append(3.0)
        live_before = len(bank)
        scaled = series.scaled(0.5)
        assert len(bank) == live_before + 1
        scaled.release()
        assert len(bank) == live_before

    def test_replace_actual_reuses_bank(self):
        config = single_config()
        bank = ForecasterBank(config)
        series = NodeTimeSeries(8, config, bank=bank)
        for value in [1.0, 2.0, 3.0]:
            series.append(value)
        live = len(bank)
        series.replace_actual([5.0, 6.0, 7.0])
        assert series.forecaster.bank is bank
        assert len(bank) == live
        assert list(series.actual) == [5.0, 6.0, 7.0]
