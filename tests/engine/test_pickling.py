"""Process-transport guarantees: sessions and their state graphs pickle.

The sharded engine ships sessions between processes and the ``fork``-less
start methods (``spawn``/``forkserver``) round-trip everything through
pickle, so the whole mutable object graph — session, algorithm, forecasters,
series, report store, columnar batches — must survive ``pickle`` and
``copy.deepcopy`` with no lambdas, open handles or process-local references.
Observers are the one deliberate exception: they are process-local callbacks
and are dropped by ``__getstate__``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.timeseries import NodeTimeSeries, SeriesForecaster
from repro.engine.hooks import CallbackObserver
from repro.engine.session import DetectionSession
from repro.forecasting.bank import ForecasterBank
from repro.streaming.batch import RecordBatch
from repro.streaming.record import OperationalRecord


@pytest.fixture
def running_session(small_tree, fast_config, clock):
    session = DetectionSession(small_tree, fast_config, clock=clock, name="pkl")
    rng_paths = small_tree.leaf_paths()
    records = [
        OperationalRecord(unit * 900.0 + offset * 90.0, rng_paths[(unit + offset) % len(rng_paths)])
        for unit in range(12)
        for offset in range(7)
    ]
    session.ingest_batch(records)
    return session, records


def _semantic_state(session) -> dict:
    """state_dict stripped of wall-clock timing (varies run to run)."""
    state = session.state_dict()
    state.pop("reading_seconds")
    state["algorithm_state"].pop("stage_seconds")
    return state


@pytest.mark.parametrize("transport", ["pickle", "deepcopy"])
def test_session_round_trips_and_continues_identically(running_session, transport):
    session, records = running_session
    if transport == "pickle":
        clone = pickle.loads(pickle.dumps(session))
    else:
        clone = copy.deepcopy(session)
    # Continue both with the same tail and compare everything observable.
    tail = [
        OperationalRecord(record.timestamp + 12 * 900.0, record.category)
        for record in records
    ]
    original_results = session.ingest_batch(tail) + session.flush()
    clone_results = clone.ingest_batch(tail) + clone.flush()
    assert clone_results == original_results
    assert [a.to_dict() for a in clone.anomalies] == [
        a.to_dict() for a in session.anomalies
    ]
    assert _semantic_state(clone) == _semantic_state(session)


def test_pickle_drops_observers_but_preserves_state(running_session):
    session, _ = running_session
    fired: list = []
    session.subscribe(CallbackObserver(on_anomaly=lambda s, a: fired.append(a)))
    clone = pickle.loads(pickle.dumps(session))  # lambda must not break this
    assert clone._observers == []
    assert session._observers != []
    assert clone.state_dict() == session.state_dict()


def test_bank_and_series_views_pickle_exactly():
    config = ForecastConfig(season_lengths=(4,), fallback_alpha=0.3)
    bank = ForecasterBank(config, window=16)
    row, seeded = bank.new_row(), bank.new_row()
    for value in [3.0, 4.0, 6.0, 5.0, 7.0, 9.0, 8.0, 6.0, 5.0, 11.0]:
        bank.record(row, value, bank.observe(row, value))
    bank.seed_fast(seeded, [1.0, 2.0, 3.0] * 4)
    series = NodeTimeSeries(16, config, SeriesForecaster(config, bank, row))
    clone = pickle.loads(pickle.dumps(series))
    assert list(clone.actual) == list(series.actual)
    assert list(clone.forecast) == list(series.forecast)
    assert clone.state_dict() == series.state_dict()
    # Future forecasts must continue bit-identically, seeded rows included.
    revived = clone.forecaster.bank
    for value in [4.0, 8.0, 2.0]:
        for r in (row, seeded):
            assert revived.observe(r, value) == bank.observe(r, value)
    assert revived.row_state_dict(seeded) == bank.row_state_dict(seeded)


def test_record_batch_pickles_with_and_without_attributes():
    plain = RecordBatch.from_records(
        [OperationalRecord(float(i), ("a", f"l{i % 3}")) for i in range(10)]
    )
    tagged = RecordBatch.from_records(
        [
            OperationalRecord(float(i), ("a", f"l{i % 3}"), {"stream": "x"})
            for i in range(10)
        ]
    )
    for batch in (plain, tagged):
        clone = pickle.loads(pickle.dumps(batch))
        assert list(clone.timestamps) == list(batch.timestamps)
        assert clone.categories == batch.categories
        assert (clone.attributes is None) == (batch.attributes is None)
        assert clone.to_records() == batch.to_records()


def test_state_dict_is_json_pure(running_session):
    """No lambdas, handles or exotic objects hide inside the snapshot."""
    import json

    session, _ = running_session
    state = session.state_dict()
    assert json.loads(json.dumps(state)) == state
