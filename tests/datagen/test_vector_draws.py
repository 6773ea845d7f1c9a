"""The array draws of :mod:`repro.datagen.arrival` against ``random.Random``.

Each helper must return exactly what the matching ``random.Random`` calls
return and leave the generator in exactly the state those calls leave it in
(its cached ``gauss`` value included), so the calls that follow — ``gauss``,
the Poisson loop, the next unit's draws — continue the same stream.
"""

from __future__ import annotations

import random
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.arrival import (
    random_draws,
    spread_uniformly,
    weighted_choices,
    zipf_weights,
)

SEEDS = st.integers(min_value=0, max_value=2**64)


def twins(seed: int, warm: int) -> tuple[random.Random, random.Random]:
    """Two generators in one state, part-way through the stream and with a
    cached ``gauss`` value (``gauss`` draws in pairs)."""
    pair = random.Random(seed), random.Random(seed)
    for rng in pair:
        for _ in range(warm):
            rng.random()
        rng.gauss(0.0, 1.0)
    return pair


def assert_same_continuation(ours: random.Random, theirs: random.Random) -> None:
    assert ours.getstate() == theirs.getstate()
    assert ours.gauss(0.0, 1.0) == theirs.gauss(0.0, 1.0)
    assert ours.random() == theirs.random()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, warm=st.integers(0, 700), count=st.integers(0, 3000))
def test_random_draws_equal_random(seed, warm, count):
    ours, theirs = twins(seed, warm)
    assert random_draws(ours, count).tolist() == [theirs.random() for _ in range(count)]
    assert_same_continuation(ours, theirs)


def test_one_hundred_thousand_draws():
    ours, theirs = random.Random(909), random.Random(909)
    assert random_draws(ours, 100_000).tolist() == [theirs.random() for _ in range(100_000)]
    assert_same_continuation(ours, theirs)


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    count=st.integers(0, 500),
    start=st.floats(0.0, 2e9),
    delta=st.sampled_from([1.0, 60.0, 900.0, 3600.0]),
)
def test_spread_uniformly_equals_sorted_draws(seed, count, start, delta):
    ours, theirs = twins(seed, 3)
    expected = sorted(start + theirs.random() * delta for _ in range(count))
    assert spread_uniformly(count, start, delta, ours).tolist() == expected
    assert_same_continuation(ours, theirs)


WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=60
).filter(lambda w: sum(w) > 0)


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, weights=WEIGHTS, count=st.integers(0, 1000))
def test_weighted_choices_equal_choices(seed, weights, count):
    ours, theirs = twins(seed, 1)
    cum = list(accumulate(weights))
    expected = theirs.choices(range(len(weights)), weights=weights, k=count)
    assert weighted_choices(ours, cum, count).tolist() == expected
    assert_same_continuation(ours, theirs)


def test_zipf_choices_at_trace_width():
    weights = zipf_weights(5000, 1.1)
    ours, theirs = random.Random(7), random.Random(7)
    expected = theirs.choices(range(5000), weights=weights, k=1000)
    assert weighted_choices(ours, list(accumulate(weights)), 1000).tolist() == expected
    assert_same_continuation(ours, theirs)


class _FixedWords(random.Random):
    """Every 32-bit word the same: all ones puts ``random()`` at its largest,
    1 - 2**-53, all zeros at 0.0."""

    def __init__(self, ones: bool):
        super().__init__(0)
        self.ones = ones

    def getrandbits(self, k):
        return (1 << k) - 1 if self.ones else 0

    def random(self):
        return 1.0 - 2.0**-53 if self.ones else 0.0


EDGE_WEIGHTS = ([1.0], [1.0, 2.0, 3.0], [0.3, 0.7, 0.0, 0.0], [0.0, 0.0, 5.0, 0.0], [5.0, 0.0])


def test_the_extreme_draws_pick_weighted_leaves_only():
    # ``choices`` bisects to the right with ``hi = n - 1``: the largest draw
    # lands on the last index with weight, never past the end, and the
    # smallest skips leading zero weights.
    for weights in EDGE_WEIGHTS:
        cum = list(accumulate(weights))
        positive = [i for i, w in enumerate(weights) if w > 0]
        for ones, expected in ((True, positive[-1]), (False, positive[0])):
            stdlib = _FixedWords(ones).choices(range(len(weights)), cum_weights=cum, k=4)
            assert stdlib == [expected] * 4
            assert weighted_choices(_FixedWords(ones), cum, 4).tolist() == stdlib


def test_a_draw_that_rounds_to_the_total_is_capped_at_the_last_index():
    # With a subnormal total, ``random() * total`` can round up to the total
    # itself; ``choices``' ``hi = n - 1`` then returns the last index, zero
    # weight or not, and so must the array bisection.
    for weights in ([5e-324], [5e-324, 0.0], [0.0, 5e-324, 0.0, 0.0]):
        cum = list(accumulate(weights))
        stdlib = _FixedWords(True).choices(range(len(weights)), cum_weights=cum, k=3)
        assert stdlib == [len(weights) - 1] * 3
        assert weighted_choices(_FixedWords(True), cum, 3).tolist() == stdlib
