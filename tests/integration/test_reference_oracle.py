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
* a subtree-sharded engine (two worker processes; only for configurations
  sharding admits: the root neither tracked nor qualifying),

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
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.hierarchy.tree import HierarchyTree
from repro.io.jsonl_io import NdjsonDecoder
from repro.service.config import TenantSpec
from repro.service.manager import SessionManager
from repro.streaming.batch import iter_record_batches
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


def sharded_run(tree, clock, records, config, batch_size):
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session("p", tree, config, clock=clock, subtree_shards=2)
        results = engine.process_stream(records, batch_size=batch_size)["p"]
        return results, [a.to_dict() for a in engine.anomalies()["p"]]


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
    if sharded and root == "excluded":
        assert sharded_run(tree, clock, records, config, batch_size) == (
            want_results,
            want_anomalies,
        )


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


@pytest.mark.parametrize("model", MODELS)
def test_each_model_on_every_path(model):
    """Every model through every path at least once, whatever hypothesis
    draws."""
    check_case(17, model, "excluded", 64, sharded=True)


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
