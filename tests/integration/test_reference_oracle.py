"""Every production path against the slow reference, on generated hierarchies.

One hypothesis test generates a hierarchy three or four levels deep, a
bursty stream with late records (dropped by the session's policy) and a
detector configuration, then runs the stream through

* a serial session, record by record (``process_stream``),
* a serial session fed dictionary-coded batches (``process_batches``: the
  dense close),
* the service leg: the stream encoded as NDJSON, decoded by the daemon's
  :class:`~repro.io.jsonl_io.NdjsonDecoder` and fed in process (no socket)
  to a tenant through :meth:`SessionManager.ingest_batch
  <repro.service.manager.SessionManager.ingest_batch>` and ``flush``, and
* the sharded engine over ``REPRO_SHARD_TRANSPORT`` (two worker
  processes): an unsplit session for every root mode, and a session split
  into two subtree shards for the configurations that admits (the root
  neither tracked nor qualifying),

each with the forecasting model ``"auto"``, ``"holt-winters"`` (a built-in
model by registry name) or ``"seasonal-naive"``, the plug-in model
``tests/conftest.py`` registers.  The oracle is
:class:`repro.testing.reference.ReferenceADA`, fed the same stream's
per-timeunit counts: every path's per-unit results (heavy hitters, actuals,
forecasts, anomalies) and reported anomalies must equal it, and the serial
sessions' adaptation counters and checkpoints (``stats`` rows sorted) too.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.exceptions import OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.io.jsonl_io import NdjsonDecoder
from repro.service.config import TenantSpec
from repro.service.manager import SessionManager
from repro.streaming.batch import RecordBatch, iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord
from repro.testing.reference import ReferenceADA
from tests.conftest import canonical_checkpoint

DELTA = 600.0
MODELS = ("auto", "holt-winters", "seasonal-naive")


def make_case(seed: int, model: str, root: str):
    """(tree, clock, records, config) of one generated example."""
    rng = random.Random(seed)
    paths = []
    for top in range(rng.randint(2, 4)):
        for mid in range(rng.randint(1, 3)):
            for leaf in range(rng.randint(1, 3)):
                path = (f"t{top}", f"m{top}{mid}", f"l{top}{mid}{leaf}")
                if rng.random() < 0.4:
                    paths.extend(path + (f"d{i}",) for i in range(rng.randint(1, 2)))
                else:
                    paths.append(path)
    tree = HierarchyTree.from_leaf_paths(paths)
    popularity = [rng.random() ** 2 + 0.05 for _ in paths]
    drafts = []
    for unit in range(rng.randint(14, 26)):
        start = unit * DELTA
        if rng.random() < 0.2:  # a burst on one subtree
            hot = paths[rng.randrange(len(paths))][: rng.randint(2, 3)]
            under = [p for p in paths if p[: len(hot)] == hot]
            drafts.extend(
                (start + rng.random() * DELTA, rng.choice(under))
                for _ in range(rng.randint(8, 25))
            )
        drafts.extend(
            (start + rng.random() * DELTA, rng.choices(paths, weights=popularity)[0])
            for _ in range(rng.randint(2, 20))
        )
    drafts.sort()
    records = [
        OperationalRecord(
            max(0.0, ts - DELTA * rng.randint(1, 2)) if rng.random() < 0.05 else ts, path
        )
        for ts, path in drafts
    ]
    season = rng.choice([(3,), (4,), (2, 3)])
    config = TiresiasConfig(
        theta=rng.choice([2.0, 4.0, 7.0]),
        ratio_threshold=rng.choice([1.5, 2.0]),
        difference_threshold=rng.choice([1.0, 3.0]),
        delta_seconds=DELTA,
        window_units=rng.choice([6, 9, 16]),
        split_rule=rng.choice(["uniform", "last-time-unit", "long-term-history", "ewma"]),
        reference_levels=rng.choice([0, 1, 2]),
        track_root=root == "tracked",
        allow_root_heavy=root != "excluded",
        out_of_order_policy="drop",
        forecast=ForecastConfig(season_lengths=season, fallback_alpha=0.4, model=model),
    )
    return tree, SimulationClock(delta=DELTA), records, config


def reference_run(tree, clock, records, config, oracle_class=ReferenceADA):
    """The oracle's results and reported anomalies for the stream, under the
    session's out-of-order policy (``drop``) and warm-up suppression."""
    units: dict[int, Counter] = {}
    open_unit = None
    for record in records:
        unit = clock.timeunit_of(record.timestamp)
        if open_unit is not None and unit < open_unit:
            continue  # late: dropped
        open_unit = unit
        units.setdefault(unit, Counter())[record.category] += 1
    oracle = oracle_class(tree, config)
    results = []
    for position, unit in enumerate(range(min(units), max(units) + 1)):
        result = oracle.process_timeunit(dict(units.get(unit, {})), unit)
        if position < config.forecast.min_history:
            result = result.without_anomalies()
        results.append(result)
    anomalies = [a.to_dict() for result in results for a in result.anomalies]
    return oracle, results, anomalies


def serial_run(tree, clock, records, config, batch_size=None):
    engine = DetectionEngine()
    engine.add_session("p", tree, config, clock=clock)
    if batch_size is None:
        results = engine.process_stream(records)["p"]
    else:
        results = engine.process_batches(iter_record_batches(records, batch_size))["p"]
    anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
    return engine.sessions["p"].algorithm, results, anomalies


def service_run(tree, clock, records, config, batch_size):
    """The daemon's path, in process and without a socket: the stream as an
    NDJSON body, decoded the way ``POST /ingest`` decodes one, each batch
    handed to the tenant through the session manager, then a flush."""
    body = b"".join(json.dumps(record.to_dict()).encode() + b"\n" for record in records)
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        manager = SessionManager(
            [TenantSpec("p", tree, config, clock=clock, max_results=None)], checkpoint_dir
        )
        decoder = NdjsonDecoder(
            batch_size, default_tenant="p", is_known_tenant=manager.is_known
        )
        for tenant, batch in decoder.feed(body, final=True):
            manager.ingest_batch(tenant, batch)
        manager.flush("p")
        return manager.session("p").results, manager.anomalies("p")


def sharded_run(tree, clock, records, config, batch_size, shards):
    """The sharded engine over ``REPRO_SHARD_TRANSPORT`` (default ``pipe``):
    results, reported anomalies and the merged session's algorithm state."""
    transport = os.environ.get("REPRO_SHARD_TRANSPORT", "pipe")
    with ShardedDetectionEngine(num_workers=2, transport=transport) as engine:
        engine.add_session("p", tree, config, clock=clock, subtree_shards=shards)
        results = engine.process_batches(iter_record_batches(records, batch_size))["p"]
        anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
        return results, anomalies, engine.merged_session_state("p")["algorithm_state"]


def rows_by_path(algo_state):
    """``algo_state`` with its series and reference rows in path order: a
    merged split session lists them shard by shard, and loaders key them by
    path."""
    return {
        key: sorted(rows, key=lambda row: row[0]) if key in ("series", "reference") else rows
        for key, rows in algo_state.items()
    }


def check_case(seed: int, model: str, root: str, batch_size: int, sharded: bool) -> None:
    tree, clock, records, config = make_case(seed, model, root)
    oracle, want_results, want_anomalies = reference_run(tree, clock, records, config)
    want_state = canonical_checkpoint(oracle.state_dict(), row_sorted=True)
    for cut in (None, batch_size):
        algo, results, anomalies = serial_run(tree, clock, records, config, cut)
        assert results == want_results, cut
        assert anomalies == want_anomalies, cut
        assert canonical_checkpoint(algo.state_dict(), row_sorted=True) == want_state, cut
        stats = algo.adaptation_stats()
        assert (stats["split_operations"], stats["merge_operations"]) == (
            oracle.split_operations,
            oracle.merge_operations,
        )
    assert service_run(tree, clock, records, config, batch_size) == (
        want_results,
        want_anomalies,
    )
    if sharded:
        # The unsplit leg admits every root mode; the split leg only a root
        # neither tracked nor qualifying.
        for shards in (1, 2) if root == "excluded" else (1,):
            results, anomalies, algo_state = sharded_run(
                tree, clock, records, config, batch_size, shards
            )
            assert results == want_results, shards
            assert anomalies == want_anomalies, shards
            if shards == 1:
                assert canonical_checkpoint(algo_state, row_sorted=True) == want_state
            else:
                assert canonical_checkpoint(
                    rows_by_path(algo_state), row_sorted=True
                ) == canonical_checkpoint(rows_by_path(oracle.state_dict()), row_sorted=True)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    model=st.sampled_from(MODELS),
    root=st.sampled_from(["excluded", "qualifies", "tracked"]),
    batch_size=st.sampled_from([1, 23, 400]),
    sharded=st.booleans(),
)
def test_every_path_equals_the_reference(seed, model, root, batch_size, sharded):
    check_case(seed, model, root, batch_size, sharded)


@pytest.mark.parametrize("root", ["excluded", "qualifies", "tracked"])
@pytest.mark.parametrize("model", MODELS)
def test_each_model_on_every_path(model, root):
    """Every model through every path under every root mode at least once,
    whatever hypothesis draws."""
    check_case(17, model, root, 64, sharded=True)


class CountingReference(ReferenceADA):
    corrections = 0

    def correct(self, path):
        self.corrections += bool(self.reference.get(path))
        super().correct(path)


def test_the_cases_exercise_the_cascade():
    """The equality above would say little if the generated streams never
    split, merged or corrected: across a few seeds they do all three."""
    splits = merges = corrections = 0
    for seed in range(6):
        tree, clock, records, config = make_case(seed, "auto", "excluded")
        oracle, _results, _anomalies = reference_run(
            tree, clock, records, config.replace(reference_levels=2), CountingReference
        )
        splits += oracle.split_operations
        merges += oracle.merge_operations
        corrections += oracle.corrections
    assert splits > 10 and merges > 10 and corrections > 5


@pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "per-batch"])
def test_unsplit_session_continues_like_serial_after_a_raise(streamed):
    """``out_of_order_policy="raise"`` with two unsplit sessions, ``q`` on
    worker 0 and ``p`` on worker 1, every batch routed ``q`` first.  The
    batches cover timeunits 0-9; 10-12, then a late row at 11 and rows at
    15 (``p`` raises after closing 10 and 11, while the coordinator had
    already moved its watermark to 15); 13-14; 15-17.  Bursts put anomalies
    past warm-up into 11 on both sessions and 13 on ``q``.

    Each session continues exactly like a serial one fed what its worker
    ingested — on the streamed path the 13-14 batch goes out to ``q``'s
    worker before ``p``'s error is read, and never to ``p``'s: the same
    results after the raise, anomalies (those of the timeunits closed in
    the failing and the dropped round included), unit counts and
    checkpoint."""
    tree = HierarchyTree.from_leaf_paths(
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x")]
    )
    leaves = tree.leaf_paths()
    clock = SimulationClock(delta=DELTA)
    config = TiresiasConfig(
        theta=2.0,
        ratio_threshold=1.5,
        difference_threshold=1.0,
        delta_seconds=DELTA,
        window_units=9,
        track_root=True,
        out_of_order_policy="raise",
        forecast=ForecastConfig(season_lengths=(3,), fallback_alpha=0.4),
    )
    bursts = {("p", 11): leaves[1], ("q", 11): leaves[3], ("q", 13): leaves[0]}

    def rows(name, unit, offset=0.0):
        out = [(unit * DELTA + offset + i * 7.0, leaf) for i, leaf in enumerate(leaves)]
        if (name, unit) in bursts:
            out += [(unit * DELTA + offset + 50.0 + i, bursts[name, unit]) for i in range(30)]
        return [OperationalRecord(ts, leaf, {"stream": name}) for ts, leaf in out]

    def batch(units, late=()):
        records = [r for unit in units for r in rows("q", unit)]
        records += [r for unit in units for r in rows("p", unit)]
        records += [r for unit, offset in late for r in rows("p", unit, offset)]
        return RecordBatch.from_records(records)

    batches = [
        batch(range(10)),
        batch([10, 11, 12], late=[(11, 300.0), (15, 0.0)]),
        batch([13, 14]),
        batch([15, 16, 17]),
    ]
    q_only = RecordBatch.from_records([r for unit in (13, 14) for r in rows("q", unit)])

    def observed(engine):
        state = canonical_checkpoint(engine.state_dict())
        return engine.anomalies(), engine.units_processed(), state

    serial = DetectionEngine()
    for name in ("q", "p"):
        serial.add_session(name, tree, config, clock=clock)
    serial.ingest_record_batch(batches[0])
    with pytest.raises(OutOfOrderRecordError):
        serial.ingest_record_batch(batches[1])
    third = serial.ingest_record_batch(q_only if streamed else batches[2])
    # Results returned after the raise; the dropped batch returns none.
    want_results = [] if streamed else [third]
    want_results.append(serial.process_batches(iter(batches[3:])))
    want = observed(serial)
    reported = {
        (name, a.timeunit) for name, found in want[0].items() for a in found
    }
    assert {("p", 11), ("q", 11), ("q", 13)} <= reported

    transport = os.environ.get("REPRO_SHARD_TRANSPORT", "pipe")
    with ShardedDetectionEngine(num_workers=2, transport=transport) as engine:
        for name in ("q", "p"):
            engine.add_session(name, tree, config, clock=clock)
        if streamed:
            with pytest.raises(OutOfOrderRecordError):
                engine.process_batches(iter(batches[:3]))
        else:
            engine.ingest_record_batch(batches[0])
            with pytest.raises(OutOfOrderRecordError):
                engine.ingest_record_batch(batches[1])
        got_results = [] if streamed else [engine.ingest_record_batch(batches[2])]
        got_results.append(engine.process_batches(iter(batches[3:])))
        assert got_results == want_results
        assert observed(engine) == want
