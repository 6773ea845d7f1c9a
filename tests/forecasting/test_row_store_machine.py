"""The row store against the reference series, operation by operation.

Every series is one row of the bank matrix and SPLIT / MERGE / correction /
record are whole-row array operations, called on
:class:`~repro.forecasting.bank.ForecasterBank` row numbers directly (and
each series is read as its row's canonical snapshot); the oracle runs the
same calls on
:class:`repro.testing.reference.ReferenceSeries` — ``ScalarRow`` objects and
bounded deques, the historical per-object code.  One hypothesis state
machine drives both worlds through the same random sequence of calls and
compares the canonical state-dict **bytes** of every live series after every
step (JSON prints ``-0.0`` and ``0.0`` differently, so the sign of zero is
part of the contract).

The parameter space covers ℓ below and above ``min_history``, ring wrap,
single-season models and models of two and three seasons, ratios 0.0
and 1.0,
folds with unequal seasonal phases and unequal window / warm-up cursors
(series are appended unevenly), folds into empty destinations (copy, not
add) and into shorter ones (growth), and bank capacity growth while row
numbers are held.

The literal signed-zero cases at the bottom pin what a ratio-0 split of a
negative component leaves behind.  The oracle decides the sign: a fold into
an *empty* destination component copies (``-0.0`` survives), a fold into a
shorter non-empty one pads with ``+0.0`` and adds (``0.0 + -0.0`` is
``+0.0``), window sums always pad and add.
"""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import ForecastConfig
from repro.forecasting.bank import ForecasterBank
from repro.testing.reference import ReferenceSeries

#: (forecast config, window length ℓ): ℓ < min_history, ℓ > min_history
#: (wraps within a few steps), a two-season model, and a three-season one.
SHAPES = (
    (ForecastConfig(season_lengths=(3,), fallback_alpha=0.4), 4),
    (ForecastConfig(season_lengths=(2,), fallback_alpha=0.3), 9),
    (
        ForecastConfig(
            season_lengths=(2, 3), season_weights=(0.6, 0.4), fallback_alpha=0.5
        ),
        5,
    ),
    (ForecastConfig(season_lengths=(2, 3, 4), fallback_alpha=0.3), 7),
)

values = st.one_of(
    st.integers(min_value=-6, max_value=12).map(float),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64),
)
ratios = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0))
picks = st.integers(min_value=0, max_value=10_000)


class World:
    """The row store: one bank, its row operations called directly, and the
    row number of every live series (index-aligned with the oracle's
    series)."""

    def __init__(self, config: ForecastConfig, length: int):
        self.config = config
        self.length = length
        self.bank = ForecasterBank(config, window=length)
        self.series: list[int] = []

    def state(self, i: int) -> dict:
        return self.bank.series_state_dict(self.series[i])

    def new(self) -> None:
        self.series.append(self.bank.new_row())

    def append_each(self, picked, batch) -> list:
        """One close per value: one-row batches, in order."""
        return [
            self.close([i], [value])[0] for i, value in zip(picked, batch)
        ]

    def close(self, picked, batch) -> list:
        """The batched close: one bank observe, then one record per window."""
        rows = np.asarray([self.series[i] for i in picked], dtype=np.intp)
        values = np.asarray(batch, dtype=np.float64)
        forecasts = self.bank.observe_rows(rows, values)
        self.bank.record_rows(rows, values, forecasts)
        return forecasts.tolist()

    def split(self, i, ratio) -> None:
        self.series.append(self.bank.split_row(self.series[i], ratio))

    def fold(self, dst, src) -> None:
        self.bank.fold_row(self.series[dst], self.series[src])
        self.release(src)

    def correct(self, i, corrected) -> None:
        self.bank.reseed(self.series[i], corrected)

    def release(self, i) -> None:
        self.bank.free_row(self.series.pop(i))

    def reload(self, i) -> None:
        old = self.series[i]
        self.series[i] = self.bank.load_series_state(self.state(i))
        self.bank.free_row(old)

    def load(self, state) -> None:
        self.series.append(self.bank.load_series_state(state))

    def transport(self, how) -> None:
        self.bank, self.series = how((self.bank, self.series))

    def canonical(self) -> bytes:
        return json.dumps(
            [self.state(i) for i in range(len(self.series))], sort_keys=True
        ).encode()


class OracleWorld:
    """The same calls on :class:`ReferenceSeries`."""

    def __init__(self, config: ForecastConfig, length: int):
        self.config = config
        self.length = length
        self.series: list[ReferenceSeries] = []

    def new(self) -> None:
        self.series.append(ReferenceSeries(self.length, self.config))

    def append_each(self, picked, batch) -> list:
        return [self.series[i].append(v) for i, v in zip(picked, batch)]

    close = append_each

    def split(self, i, ratio) -> None:
        donor = self.series[i]
        self.series[i] = donor.scaled(1.0 - ratio)
        self.series.append(donor.scaled(ratio))

    def fold(self, dst, src) -> None:
        self.series[dst].merge_from(self.series[src])
        self.series.pop(src)

    def correct(self, i, corrected) -> None:
        self.series[i].replace_actual(corrected)

    def release(self, i) -> None:
        self.series.pop(i)

    def reload(self, i) -> None:
        self.series[i] = ReferenceSeries.from_state_dict(
            self.series[i].state_dict(), self.config
        )

    def load(self, state) -> None:
        self.series.append(ReferenceSeries.from_state_dict(state, self.config))

    def transport(self, how) -> None:
        self.series = how(self.series)

    def canonical(self) -> bytes:
        return json.dumps([s.state_dict() for s in self.series], sort_keys=True).encode()


class RowStoreMachine(RuleBasedStateMachine):
    """Every rule runs on the row store, then on the reference series."""

    def __init__(self):
        super().__init__()
        self.row = None
        self.oracle = None

    def both(self, method, *args):
        result = getattr(self.row, method)(*args)
        expected = getattr(self.oracle, method)(*args)
        assert result == expected
        assert self.row.canonical() == self.oracle.canonical()

    @initialize(shape=st.sampled_from(SHAPES))
    def build(self, shape):
        config, length = shape
        self.row = World(config, length)
        self.oracle = OracleWorld(config, length)
        for _ in range(2):
            self.both("new")

    def pick(self, draw: int) -> int:
        return draw % len(self.row.series)

    @rule()
    def new_series(self):
        self.both("new")

    @precondition(lambda self: self.row.series)
    @rule(mask=st.integers(min_value=1, max_value=2**12), batch=st.lists(values, min_size=12, max_size=12))
    def append_subset(self, mask, batch):
        picked = [i for i in range(len(self.row.series)) if mask >> (i % 12) & 1]
        self.both("append_each", picked, [batch[i % 12] for i in picked])

    @precondition(lambda self: self.row.series)
    @rule(skip=picks, batch=st.lists(values, min_size=1, max_size=1))
    def close_all_but_one(self, skip, batch):
        """The batched close over (almost) everything, as ADA's close
        sends it."""
        live = len(self.row.series)
        picked = [i for i in range(live) if live == 1 or i != skip % live]
        self.both("close", picked, [batch[0] + i for i in range(len(picked))])

    @precondition(lambda self: self.row.series)
    @rule(i=picks, ratio=ratios)
    def split(self, i, ratio):
        self.both("split", self.pick(i), ratio)

    @precondition(lambda self: len(self.row.series) >= 2)
    @rule(dst=picks, src=picks)
    def fold(self, dst, src):
        dst, src = self.pick(dst), self.pick(src)
        if dst != src:
            self.both("fold", dst, src)

    @precondition(lambda self: self.row.series)
    @rule(i=picks, corrected=st.lists(values, min_size=0, max_size=12))
    def reference_correction(self, i, corrected):
        self.both("correct", self.pick(i), corrected)

    @precondition(lambda self: self.row.series)
    @rule(
        i=picks,
        ratio=ratios,
        corrected=st.lists(values, min_size=0, max_size=12),
        closes=st.lists(values, max_size=3),
    )
    def cascade(self, i, ratio, corrected, closes):
        """ADA's shape: SPLIT, correct the child from a reference series,
        close a few timeunits over everything, MERGE the child back."""
        donor = self.pick(i)
        self.both("split", donor, ratio)
        child = len(self.row.series) - 1
        self.both("correct", child, corrected)
        everyone = list(range(child + 1))
        for value in closes:
            self.both("close", everyone, [value + k for k in everyone])
        self.both("fold", donor, child)

    @precondition(lambda self: len(self.row.series) >= 2)
    @rule(i=picks)
    def release(self, i):
        self.both("release", self.pick(i))

    @precondition(lambda self: self.row.series)
    @rule(i=picks)
    def checkpoint_round_trip(self, i):
        self.both("reload", self.pick(i))

    @rule(how=st.sampled_from([copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))]))
    def transport(self, how):
        self.both("transport", how)

    @invariant()
    def slots_outside_the_live_ranges_hold_positive_zero(self):
        """What lets a fold be one add over the whole row."""
        if self.row is None:
            return
        bank = self.row.bank
        for row in self.row.series:
            dead = np.ones(bank._width, dtype=bool)
            ints = bank._ints[row].tolist()
            seen, alen, flen, active, hlen, wpos = ints[:6]
            dead[0] = False
            if active:
                dead[1 : bank._hist_off] = False
            dead[bank._hist_off : bank._hist_off + hlen] = False
            for off, size in ((bank._actual_off, alen), (bank._forecast_off, flen)):
                for back in range(1, size + 1):
                    dead[off + (wpos - back) % bank.window] = False
            slots = bank._state[row][dead]
            assert not slots.any() and not np.signbit(slots).any()

    @invariant()
    def rows_are_accounted_for(self):
        if self.row is None:
            return
        assert len(self.row.bank) == len(self.row.series)
        rows = self.row.series
        assert len(set(rows)) == len(rows)


RowStoreMachine.TestCase.settings = settings(
    max_examples=120,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestRowStoreMachine = RowStoreMachine.TestCase


# ----------------------------------------------------------------------
# Literal signed-zero cases
# ----------------------------------------------------------------------
CONFIG = ForecastConfig(season_lengths=(2,), fallback_alpha=0.5)  # min_history 4
LENGTH = 6


def _zero_share(world: World, history) -> int:
    """A series fed ``history``, split with ratio 0.0: returns the index of
    the child, whose every component is a signed zero."""
    world.new()
    donor = len(world.series) - 1
    world.append_each([donor] * len(history), history)
    world.split(donor, 0.0)
    return len(world.series) - 1


def _both_worlds(scenario) -> tuple[bytes, bytes]:
    row = World(CONFIG, LENGTH)
    scenario(row)
    oracle = OracleWorld(CONFIG, LENGTH)
    scenario(oracle)
    return row.canonical(), oracle.canonical()


#: Crosses activation (4 values): the second cycle's deviations from the
#: level (3.5) put a negative entry in the seasonal buffer, and the oldest
#: window entry is negative too.
FALLING = [-1.0, 9.0, 5.0, 1.0, 2.0]


def test_zero_share_has_negative_zeros():
    row = World(CONFIG, LENGTH)
    child = row.state(_zero_share(row, FALLING))
    assert any(str(v) == "-0.0" for v in child["forecaster"]["seasonal"]["seasonals"])
    assert str(child["actual"][0]) == "-0.0"


def test_fold_into_a_fresh_series_copies_the_negative_zeros():
    def scenario(world):
        child = _zero_share(world, FALLING)
        world.new()
        world.fold(len(world.series) - 1, child)

    got, expected = _both_worlds(scenario)
    assert got == expected
    fresh = json.loads(got)[-1]
    assert any(str(v) == "-0.0" for v in fresh["forecaster"]["seasonal"]["seasonals"])


def test_fold_into_a_shorter_series_grows_the_window():
    """The destination is still in warm-up with a shorter window: it adopts
    the seasonal components (a copy: ``-0.0`` kept) while the window sum pads
    with ``+0.0`` on the old end, as the oracle's ``aligned_add`` does."""

    def scenario(world):
        child = _zero_share(world, FALLING)
        world.new()
        short = len(world.series) - 1
        world.append_each([short, short], [3.0, 4.0])
        world.fold(short, child)

    got, expected = _both_worlds(scenario)
    assert got == expected
    grown = json.loads(got)[-1]
    assert len(grown["actual"]) == len(FALLING)
    assert any(str(v) == "-0.0" for v in grown["forecaster"]["seasonal"]["seasonals"])
    assert str(grown["actual"][0]) == "0.0"


def test_fold_of_warm_up_histories():
    """A zero share still in warm-up carries ``-0.0`` history entries: an
    empty destination takes a copy, a shorter non-empty one the padded sum."""
    negative = [-3.0, -2.0, -1.0]

    def into_empty(world):
        child = _zero_share(world, negative)
        world.new()
        world.fold(len(world.series) - 1, child)

    got, expected = _both_worlds(into_empty)
    assert got == expected
    assert [str(v) for v in json.loads(got)[-1]["forecaster"]["history"]] == ["-0.0"] * 3

    def into_shorter(world):
        child = _zero_share(world, negative)
        world.new()
        short = len(world.series) - 1
        world.append_each([short], [5.0])
        world.fold(short, child)

    got, expected = _both_worlds(into_shorter)
    assert got == expected
    assert [str(v) for v in json.loads(got)[-1]["forecaster"]["history"]] == [
        "0.0",
        "0.0",
        "5.0",
    ]


def test_phase_rotated_fold_carries_leftover_warm_up_history():
    """Two series that adopted seasonal state while still holding warm-up
    history (equal lengths), one of them with restarted phases: the fold
    rotates the seasonal buffers and still sums the histories."""

    def scenario(world):
        for _ in range(2):
            world.new()  # the seasonal donors
        world.append_each([0] * 5, FALLING)
        world.append_each([1] * 7, FALLING + [4.0, 6.0])  # another phase
        for donor in (0, 1):
            world.new()
            keeper = len(world.series) - 1
            world.append_each([keeper] * 2, [1.5, -2.5])  # warm-up: 2 values
            world.fold(keeper, 0)  # adopts; donor 0 is popped each time
        world.fold(0, 1)

    got, expected = _both_worlds(scenario)
    assert got == expected
    merged = json.loads(got)[0]["forecaster"]
    assert merged["history"] == [3.0, -5.0]
    assert merged["seasonal"] is not None


def test_fold_of_active_rows_without_an_ewma_level():
    """Only a hand-made snapshot has seasonal state but no EWMA level; the
    aligned fold must treat the missing level as absent, not as NaN."""
    donor = World(CONFIG, LENGTH)
    donor.new()
    donor.append_each([0] * 5, FALLING)
    with_level = donor.state(0)
    without = json.loads(json.dumps(with_level))
    without["forecaster"]["ewma_level"] = None

    def scenario(world, first, second):
        for state in (first, second):
            world.load(state)
        world.fold(0, 1)

    for first, second in ((with_level, without), (without, with_level), (without, without)):
        got, expected = _both_worlds(lambda world: scenario(world, first, second))
        assert got == expected
