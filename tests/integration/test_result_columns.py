"""Column-backed results against eagerly built ones.

A :class:`~repro.core.results.TimeunitResult` holds a path table, the
lex-ordered heavy row ids into it and two float64 columns; its
``heavy_hitters`` / ``actuals`` / ``forecasts`` views are built on first read.
One hypothesis test generates a hierarchy three or four levels deep and runs
its stream through a serial session record by record, a serial session on
dictionary-coded batches and (for configurations sharding admits) a
subtree-sharded engine, then checks, in this order, that

* nothing the pass did built a view, and ``num_heavy_hitters`` answers
  without building one;
* a retained result references only arrays sized by its heavy set, so
  ``session.results`` cannot pin a batch's ``(units, nodes)`` sweep matrices;
* a result survives a pickle round trip — a shard's reply — carrying its
  heavy hitters' paths only, never the path table it indexes;
* every per-unit result equals the eagerly built result of
  :class:`~repro.testing.reference.ReferenceADA`, compared in both
  directions, with warm-up units' anomalies suppressed;
* the views list their items in lex order, as the oracle's do.

``REPRO_SHARD_TRANSPORT`` (``pipe``/``shm``/``tcp``) steers the sharded leg.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.results import TimeunitResult
from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.streaming.batch import iter_record_batches
from tests.integration.test_reference_oracle import make_case, reference_run

TRANSPORT = os.environ.get("REPRO_SHARD_TRANSPORT", "pipe")


def views_built(result: TimeunitResult) -> bool:
    return any(
        view is not None
        for view in (result._heavy, result._actuals, result._forecasts)
    )


def owned_bytes(array: np.ndarray) -> int:
    """Bytes of the buffer at the root of ``array``'s base chain."""
    base = array
    while getattr(base, "base", None) is not None:
        base = base.base
    return memoryview(base).nbytes


def serial_results(tree, clock, records, config, batch_size):
    engine = DetectionEngine()
    engine.add_session("p", tree, config, clock=clock)
    if batch_size is None:
        return engine.process_stream(records)["p"]
    return engine.process_batches(iter_record_batches(records, batch_size))["p"]


def sharded_results(tree, clock, records, config, batch_size):
    with ShardedDetectionEngine(num_workers=2, transport=TRANSPORT) as engine:
        engine.add_session("p", tree, config, clock=clock, subtree_shards=2)
        return engine.process_batches(iter_record_batches(records, batch_size))["p"]


def check_unread(results) -> None:
    """What a pass leaves behind before anyone reads a view."""
    for result in results:
        assert not views_built(result)
        heavy = result.num_heavy_hitters
        assert not views_built(result)
        for array in (result._actual, result._forecast, result._rows):
            if array is not None:
                assert owned_bytes(array) <= 16 * heavy
        clone = pickle.loads(pickle.dumps(result))
        assert not views_built(result) and not views_built(clone)
        paths, actual, forecast = result.columns()
        compact = TimeunitResult(
            result.timeunit, paths, actual, forecast, result.anomalies
        )
        assert pickle.dumps(result) == pickle.dumps(compact)
        assert clone == result and result == clone


def check_against_oracle(results, want) -> None:
    assert len(results) == len(want)
    for got, expected in zip(results, want):
        assert got == expected and expected == got
        assert list(got.actuals.items()) == list(expected.actuals.items())
        assert list(got.forecasts.items()) == list(expected.forecasts.items())
        assert list(got.actuals) == sorted(got.heavy_hitters)
        assert got.heavy_hitters == expected.heavy_hitters
        assert got.num_heavy_hitters == len(got.heavy_hitters)
        assert repr(got) == repr(expected)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    root=st.sampled_from(["excluded", "qualifies", "tracked"]),
    batch_size=st.sampled_from([1, 23, 400]),
    sharded=st.booleans(),
)
def test_column_results_equal_eager_ones(seed, root, batch_size, sharded):
    tree, clock, records, config = make_case(seed, root)
    _oracle, want, _anomalies = reference_run(tree, clock, records, config)
    warmup = config.forecast.min_history
    runs = [
        serial_results(tree, clock, records, config, cut)
        for cut in (None, batch_size)
    ]
    if sharded and root == "excluded":
        runs.append(sharded_results(tree, clock, records, config, batch_size))
    for results in runs:
        check_unread(results)
        check_against_oracle(results, want)
        assert not any(result.anomalies for result in results[:warmup])


def test_warmup_suppression_keeps_the_columns():
    """``without_anomalies`` drops the anomalies and shares everything else."""
    tree, clock, records, config = make_case(17, "excluded")
    for result in serial_results(tree, clock, records, config, 64):
        quiet = result.without_anomalies()
        assert quiet.anomalies == () and quiet.timeunit == result.timeunit
        assert quiet._actual is result._actual and quiet._rows is result._rows
        assert quiet.actuals == result.actuals
        assert quiet.forecasts == result.forecasts
