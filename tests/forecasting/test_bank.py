"""Unit + property tests for :mod:`repro.forecasting.bank`.

The bank's contract is that its rows produce *bit-identical* forecasts, state
snapshots and split/merge results to the per-object forecaster
(:class:`~repro.forecasting.bank._ScalarRow`, the reference's), whichever
path a call takes — the vectorized kernels or the per-row scalar observe.
Hypothesis drives random value sequences across the seasonal-activation
boundary and through split/fold (SPLIT/MERGE) edges.  A plug-in model's rows
are object rows for their whole life.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig
from repro.forecasting.bank import ForecasterBank, _ScalarRow


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
    """Bank rows == per-object forecasters, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy, season=st.sampled_from([2, 3, 4]))
    def test_observe_rows_matches_scalar_rows(self, values, season):
        config = single_config(season=season)
        bank = ForecasterBank(config)
        n_rows = 3
        rows = [bank.new_row() for _ in range(n_rows)]
        scalar = [_ScalarRow(config) for _ in range(n_rows)]
        for value in values:
            # Distinct per-row values; rows cross seasonal activation at the
            # same step, exercising the mixed active/warm-up kernel.
            batch = [value, value * 0.5, value + 1.0]
            assert bank.observe_rows(rows, batch) == [
                row.observe(v) for row, v in zip(scalar, batch)
            ]
        for row, ref in zip(rows, scalar):
            assert bank.row_state_dict(row) == ref.state_dict()

    @settings(max_examples=30, deadline=None)
    @given(values=values_strategy)
    def test_multi_seasonal_agreement(self, values):
        config = multi_config()
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(8)]
        scalar = [_ScalarRow(config) for _ in range(8)]
        stream = values * 3  # long enough to activate both seasons
        for value in stream:
            batch = [value * (k - 3.5) for k in range(8)]  # vector kernels
            assert bank.observe_rows(rows, batch) == [
                row.observe(v) for row, v in zip(scalar, batch)
            ]
        assert [bank.row_state_dict(r) for r in rows] == [r.state_dict() for r in scalar]

    @settings(max_examples=40, deadline=None)
    @given(
        values=values_strategy,
        ratio=st.floats(min_value=0.05, max_value=0.95),
        offset=st.integers(min_value=0, max_value=5),
    )
    def test_split_and_fold_match_scalar(self, values, ratio, offset):
        """SPLIT (split_row) and MERGE (fold_row) agree with the object
        rows, including phase-misaligned seasonal states."""
        config = single_config(season=3)
        bank = ForecasterBank(config)
        a, b = bank.new_row(), bank.new_row()
        ref_a, ref_b = _ScalarRow(config), _ScalarRow(config)
        for value in values * 2:
            bank.observe(a, value)
            ref_a.observe(value)
        # b starts `offset` steps later: phases disagree when seasonal.
        for value in (values * 2)[offset:]:
            bank.observe(b, value * 2.0)
            ref_b.observe(value * 2.0)
        split = bank.split_row(a, ratio)
        bank.fold_row(a, b)
        ref_split, ref_remainder = ref_a.scaled(ratio), ref_a.scaled(1.0 - ratio)
        ref_remainder.add_state(ref_b)
        assert (
            bank.row_state_dict(split),
            bank.row_state_dict(a),
            bank.forecast(split),
            bank.forecast(a),
        ) == (
            ref_split.state_dict(),
            ref_remainder.state_dict(),
            ref_split.forecast(),
            ref_remainder.forecast(),
        )

    def test_activation_inside_observe_rows_batch(self):
        config = single_config(season=2)  # min_history == 4
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(3)]
        for step in range(6):
            bank.observe_rows(rows, [float(step), float(step * 2), 1.0])
        assert all(bank.row_state_dict(row)["seasonal"] is not None for row in rows)
        # Canonical state round-trips through a fresh bank.
        snapshot = bank.row_state_dict(rows[0])
        other = ForecasterBank(config)
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
        assert bank.row_state_dict(second)["seen"] == 0
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
        snapshot = foreign.row_state_dict(foreign_row)
        rows = [bank.new_row() for _ in range(6)]
        mirror = [_ScalarRow(config) for _ in range(6)]
        odd_row = bank.new_row()
        bank.load_row_state(odd_row, snapshot)
        odd_mirror = _ScalarRow(config)
        odd_mirror.load_state_dict(snapshot)
        rows.insert(1, odd_row)
        mirror.insert(1, odd_mirror)
        assert odd_row in bank._obj
        for step in range(12):
            batch = [float(step), 2.0, float(step % 3), 7.0, 1.0, -2.0, 3.5]
            got = bank.observe_rows(rows, batch)
            want = [r.observe(v) for r, v in zip(mirror, batch)]
            assert got == want
        assert [bank.row_state_dict(r) for r in rows] == [r.state_dict() for r in mirror]

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
        assert bank.row_state_dict(loaded)["seasonal"] is not None
        assert bank.row_state_dict(loaded) == snapshot
        assert bank.forecast(loaded) == foreign.forecast(row)
        # The object row keeps observing correctly (scalar semantics).
        assert bank.observe(loaded, 2.0) == foreign.observe(row, 2.0)
        assert bank.row_state_dict(loaded) == foreign.row_state_dict(row)


class TestPluginRows:
    """A plug-in model's rows hold ``_ScalarRow`` objects beside their matrix
    windows from allocation to release — a correction included."""

    CONFIG = ForecastConfig(season_lengths=(3,), fallback_alpha=0.4, model="seasonal-naive")

    def test_every_row_is_an_object_row_for_its_whole_life(self):
        bank = ForecasterBank(self.CONFIG, window=8)
        rows = [bank.new_row() for _ in range(3)]
        mirror = [_ScalarRow(self.CONFIG) for _ in range(3)]
        for step in range(9):
            batch = [float(step), 2.0 * step, 5.0]
            assert bank.observe_rows(rows, batch) == [
                r.observe(v) for r, v in zip(mirror, batch)
            ]
        child = bank.split_row(rows[0], 0.25)
        mirror.append(mirror[0].scaled(0.25))
        mirror[0] = mirror[0].scaled(0.75)
        bank.fold_row(rows[1], rows[2])
        mirror[1].add_state(mirror[2])
        bank.free_row(rows[2])
        bank.reseed(child, [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0])
        reseeded = _ScalarRow(self.CONFIG)
        reseeded.seed_fast([1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0])
        live = [rows[0], rows[1], child]
        assert set(bank._obj) == set(live)
        assert [bank.row_state_dict(r) for r in live] == [
            mirror[0].state_dict(),
            mirror[1].state_dict(),
            reseeded.state_dict(),
        ]
        assert bank.row_state_dict(child)["seasonal"]["kind"] == "seasonal-naive"
        fresh = bank.new_row()
        bank.load_row_state(fresh, _ScalarRow(self.CONFIG).state_dict())
        assert fresh in bank._obj

    def test_a_named_builtin_model_gets_matrix_rows(self):
        """``model="holt-winters"`` with two periods lays out the named
        single-season model on the first period — no object rows."""
        config = ForecastConfig(season_lengths=(2, 5), fallback_alpha=0.4, model="holt-winters")
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(7)]
        mirror = [_ScalarRow(config) for _ in range(7)]
        for step in range(14):
            batch = [float(step * k % 5) for k in range(7)]
            assert bank.observe_rows(rows, batch) == [
                r.observe(v) for r, v in zip(mirror, batch)
            ]
        assert not bank._obj
        assert [bank.row_state_dict(r) for r in rows] == [r.state_dict() for r in mirror]
        assert bank.row_state_dict(rows[0])["seasonal"]["season_length"] == 2
