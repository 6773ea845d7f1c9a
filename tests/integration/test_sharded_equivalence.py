"""Property-based equivalence: record path == batch path == sharded path.

A seeded generator produces random hierarchies, random (bursty, optionally
out-of-order) workloads and random detector configurations; hypothesis
explores the space and every example asserts that the three ingestion paths
produce identical results:

* per-record through ``DetectionEngine.process_stream``,
* columnar batches through ``DetectionEngine.process_batches``,
* multi-process through ``ShardedDetectionEngine`` (subtree-sharded).

``out_of_order_policy`` edge cases are part of the space: ``drop`` and
``clamp`` must agree bit-for-bit on late records, and ``raise`` must raise
:class:`OutOfOrderRecordError` from every path.

``REPRO_SHARD_TRANSPORT`` (``pipe``/``shm``/``tcp``, default ``pipe``)
steers every sharded engine this module builds — the CI
``sharded-transports`` job runs the whole suite once per transport to pin
the transport-independence guarantee.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.exceptions import OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

DELTA = 600.0

#: Transport every sharded engine in this module runs on (CI matrixes it).
DEFAULT_TRANSPORT = os.environ.get("REPRO_SHARD_TRANSPORT", "pipe")


def make_workload(seed: int, lateness: float):
    """Random (tree, clock, records): bursty counts over a random hierarchy.

    ``lateness`` is the probability that a record's timestamp is pushed back
    1-3 timeunits after an in-order draft, creating out-of-order arrivals.
    """
    rng = random.Random(seed)
    paths = []
    for top in range(rng.randint(3, 6)):
        for mid in range(rng.randint(1, 3)):
            for leaf in range(rng.randint(1, 3)):
                paths.append((f"t{top}", f"m{top}{mid}", f"l{top}{mid}{leaf}"))
    tree = HierarchyTree.from_leaf_paths(paths)
    clock = SimulationClock(delta=DELTA)
    units = rng.randint(16, 28)
    popularity = [rng.random() ** 2 + 0.05 for _ in paths]
    records = []
    for unit in range(units):
        start = unit * DELTA
        count = rng.randint(3, 25)
        if rng.random() < 0.15:  # burst on one leaf
            hot = rng.randrange(len(paths))
            for _ in range(rng.randint(10, 30)):
                records.append((start + rng.random() * DELTA, paths[hot]))
        for _ in range(count):
            leaf = rng.choices(range(len(paths)), weights=popularity)[0]
            records.append((start + rng.random() * DELTA, paths[leaf]))
    records.sort()
    out = []
    for timestamp, path in records:
        if rng.random() < lateness:
            timestamp = max(0.0, timestamp - DELTA * rng.randint(1, 3))
        out.append(OperationalRecord(timestamp, path))
    return tree, clock, out


def make_config(seed: int, policy: str) -> TiresiasConfig:
    rng = random.Random(seed + 71)
    return TiresiasConfig(
        theta=rng.choice([2.0, 4.0, 8.0]),
        ratio_threshold=rng.choice([1.5, 2.0, 3.0]),
        difference_threshold=rng.choice([2.0, 5.0]),
        delta_seconds=DELTA,
        window_units=rng.choice([8, 16, 32]),
        split_rule=rng.choice(
            ["uniform", "last-time-unit", "long-term-history", "ewma"]
        ),
        reference_levels=rng.choice([0, 1, 2]),
        track_root=False,
        allow_root_heavy=False,
        out_of_order_policy=policy,
        forecast=ForecastConfig(season_lengths=(rng.choice([4, 6]),), fallback_alpha=0.3),
    )


def run_record_path(tree, clock, config, algorithm, records):
    engine = DetectionEngine()
    engine.add_session("p", tree, config, algorithm=algorithm, clock=clock)
    results = engine.process_stream(records)["p"]
    return results, [a.to_dict() for a in engine.anomalies()["p"]]


def run_batch_path(tree, clock, config, algorithm, records, batch_size):
    engine = DetectionEngine()
    engine.add_session("p", tree, config, algorithm=algorithm, clock=clock)
    results = engine.process_batches(iter_record_batches(records, batch_size))["p"]
    return results, [a.to_dict() for a in engine.anomalies()["p"]]


def run_sharded_path(
    tree,
    clock,
    config,
    algorithm,
    records,
    batch_size,
    workers,
    shards,
    depth=1,
    transport=DEFAULT_TRANSPORT,
):
    with ShardedDetectionEngine(num_workers=workers, transport=transport) as engine:
        engine.add_session(
            "p",
            tree,
            config,
            algorithm=algorithm,
            clock=clock,
            subtree_shards=shards,
            subtree_depth=depth,
        )
        results = engine.process_batches(iter_record_batches(records, batch_size))["p"]
        return results, [a.to_dict() for a in engine.anomalies()["p"]]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(["drop", "clamp"]),
    algorithm=st.sampled_from(["ada", "sta"]),
    lateness=st.sampled_from([0.0, 0.08]),
    batch_size=st.sampled_from([1, 17, 256]),
    shards=st.sampled_from([2, 3]),
)
def test_three_paths_agree(seed, policy, algorithm, lateness, batch_size, shards):
    tree, clock, records = make_workload(seed, lateness)
    config = make_config(seed, policy)
    record_out = run_record_path(tree, clock, config, algorithm, records)
    batch_out = run_batch_path(tree, clock, config, algorithm, records, batch_size)
    sharded_out = run_sharded_path(
        tree, clock, config, algorithm, records, batch_size, workers=2, shards=shards
    )
    assert batch_out[0] == record_out[0]
    assert batch_out[1] == record_out[1]
    assert sharded_out[0] == record_out[0]
    assert sharded_out[1] == record_out[1]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_raise_policy_raises_on_every_path(seed):
    tree, clock, records = make_workload(seed, lateness=0.3)
    config = make_config(seed, "raise")
    units = {clock.timeunit_of(r.timestamp) for r in records}
    has_late = any(
        clock.timeunit_of(b.timestamp) < clock.timeunit_of(a.timestamp)
        for a, b in zip(records, records[1:])
    )
    if not (has_late and len(units) > 1):
        return  # nothing out of order was generated; vacuous example
    with pytest.raises(OutOfOrderRecordError):
        run_record_path(tree, clock, config, "ada", records)
    with pytest.raises(OutOfOrderRecordError):
        run_batch_path(tree, clock, config, "ada", records, 64)
    with pytest.raises(OutOfOrderRecordError):
        run_sharded_path(
            tree, clock, config, "ada", records, 64, workers=2, shards=2
        )


@pytest.mark.parametrize("algorithm", ["ada", "sta"])
@pytest.mark.parametrize("policy", ["drop", "clamp"])
def test_seeded_matrix_agrees(algorithm, policy):
    """Deterministic (hypothesis-free) sweep kept as a cheap smoke matrix."""
    for seed in (1, 2):
        tree, clock, records = make_workload(seed, lateness=0.05)
        config = make_config(seed, policy)
        record_out = run_record_path(tree, clock, config, algorithm, records)
        sharded_out = run_sharded_path(
            tree, clock, config, algorithm, records, 128, workers=3, shards=3
        )
        assert sharded_out[0] == record_out[0]
        assert sharded_out[1] == record_out[1]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_depth_k_matrix_agrees(depth, workers):
    """Depth-k cuts at every worker count, drop and clamp policies.

    The workload's leaves sit at depth 3, so ``depth=3`` cuts at the leaves
    themselves; every depth needs ``min_heavy_depth >= depth`` (a config the
    serial baseline runs identically).
    """
    for policy in ("drop", "clamp"):
        seed = 31 + depth
        tree, clock, records = make_workload(seed, lateness=0.05)
        config = make_config(seed, policy).replace(min_heavy_depth=depth)
        record_out = run_record_path(tree, clock, config, "ada", records)
        sharded_out = run_sharded_path(
            tree,
            clock,
            config,
            "ada",
            records,
            128,
            workers=workers,
            shards=3,
            depth=depth,
        )
        assert sharded_out[0] == record_out[0]
        assert sharded_out[1] == record_out[1]


def test_raise_policy_raises_at_depth2():
    for seed in range(20):  # first seed whose workload is actually late
        tree, clock, records = make_workload(seed, lateness=0.3)
        has_late = any(
            clock.timeunit_of(b.timestamp) < clock.timeunit_of(a.timestamp)
            for a, b in zip(records, records[1:])
        )
        if has_late:
            break
    else:  # pragma: no cover - seeds above always generate lateness
        pytest.fail("no late workload generated")
    config = make_config(seed, "raise").replace(min_heavy_depth=2)
    with pytest.raises(OutOfOrderRecordError):
        run_sharded_path(
            tree, clock, config, "ada", records, 64, workers=2, shards=2, depth=2
        )


@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
def test_transports_agree_with_serial(transport):
    tree, clock, records = make_workload(3, lateness=0.05)
    config = make_config(3, "drop")
    record_out = run_record_path(tree, clock, config, "ada", records)
    sharded_out = run_sharded_path(
        tree,
        clock,
        config,
        "ada",
        records,
        128,
        workers=2,
        shards=2,
        transport=transport,
    )
    assert sharded_out[0] == record_out[0]
    assert sharded_out[1] == record_out[1]


def test_midstream_rebalance_keeps_equivalence():
    """A forced cut-unit migration halfway through the stream changes the
    layout but not a single detection, result or report."""
    for seed in range(40):  # need >= 4 top-level units so a group owns two
        tree, clock, records = make_workload(seed, lateness=0.0)
        if len({leaf[0] for leaf in tree.leaf_paths()}) >= 4:
            break
    else:  # pragma: no cover - seeds above always produce such a tree
        pytest.fail("no workload with >= 4 top-level subtrees generated")
    config = make_config(seed, "drop")
    record_out = run_record_path(tree, clock, config, "ada", records)
    with ShardedDetectionEngine(num_workers=2, transport=DEFAULT_TRANSPORT) as engine:
        engine.add_session("p", tree, config, clock=clock, subtree_shards=3)
        results = []
        batches = list(iter_record_batches(iter(records), 150))
        for i, batch in enumerate(batches):
            results.extend(engine.ingest_record_batch(batch)["p"])
            if i == len(batches) // 2:
                report = engine.rebalance_session("p", churn_threshold=0.0)
                assert report["moved"] is not None
        results.extend(engine.flush()["p"])
        anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
        assert engine.adaptation_stats()["p"]["rebalances"] == 1
    assert results == record_out[0]
    assert anomalies == record_out[1]


@pytest.mark.parametrize("depth", [1, 2])
def test_serial_and_depth_k_checkpoints_cross_restore(depth):
    """Serial half-run -> sharded resume, and sharded half-run -> serial
    resume, both finish exactly like an uninterrupted serial run."""
    tree, clock, records = make_workload(23, lateness=0.0)
    config = make_config(23, "drop").replace(min_heavy_depth=depth)
    cut = len(records) // 2
    head, tail = records[:cut], records[cut:]

    reference = run_record_path(tree, clock, config, "ada", records)

    # Leg 1: serial head, checkpoint, sharded depth-k tail.
    serial = DetectionEngine()
    serial.add_session("p", tree, config, clock=clock)
    results = []
    for batch in iter_record_batches(iter(head), 128):
        results.extend(serial.ingest_record_batch(batch)["p"])
    with ShardedDetectionEngine.from_state_dict(
        serial.state_dict(),
        num_workers=2,
        subtree_shards=3,
        subtree_depth=depth,
        transport=DEFAULT_TRANSPORT,
    ) as engine:
        for batch in iter_record_batches(iter(tail), 128):
            results.extend(engine.ingest_record_batch(batch)["p"])
        results.extend(engine.flush()["p"])
        anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
    assert results == reference[0]
    assert anomalies == reference[1]

    # Leg 2: sharded depth-k head, merged checkpoint, serial tail.
    results = []
    with ShardedDetectionEngine(num_workers=2, transport=DEFAULT_TRANSPORT) as engine:
        engine.add_session(
            "p", tree, config, clock=clock, subtree_shards=3, subtree_depth=depth
        )
        for batch in iter_record_batches(iter(head), 128):
            results.extend(engine.ingest_record_batch(batch)["p"])
        state = engine.state_dict()
    serial = DetectionEngine.from_state_dict(state)
    for batch in iter_record_batches(iter(tail), 128):
        results.extend(serial.ingest_record_batch(batch)["p"])
    results.extend(serial.flush()["p"])
    assert results == reference[0]
    assert [a.to_dict() for a in serial.anomalies()["p"]] == reference[1]


def test_sharded_end_state_matches_serial_checkpoint():
    """After a full run, the merged sharded state equals the serial state."""
    import json

    tree, clock, records = make_workload(9, lateness=0.0)
    config = make_config(9, "drop")
    serial = DetectionEngine()
    serial.add_session("p", tree, config, clock=clock)
    serial.process_batches(iter_record_batches(records, 200))
    serial_state = serial.state_dict()["sessions"][0]
    with ShardedDetectionEngine(num_workers=2, transport=DEFAULT_TRANSPORT) as engine:
        engine.add_session("p", tree, config, clock=clock, subtree_shards=2)
        engine.process_batches(iter_record_batches(records, 200))
        sharded_state = engine.merged_session_state("p")
    for key in serial_state:
        if key in ("reading_seconds",):
            continue
        if key == "algorithm_state":
            for sub_key in serial_state[key]:
                if sub_key == "stage_seconds":
                    continue
                serial_value = serial_state[key][sub_key]
                sharded_value = sharded_state[key][sub_key]
                if isinstance(serial_value, list):
                    canonical = lambda rows: sorted(
                        json.dumps(row, sort_keys=True) for row in rows
                    )
                    assert canonical(serial_value) == canonical(sharded_value), sub_key
                else:
                    assert serial_value == sharded_value, sub_key
        else:
            assert serial_state[key] == sharded_state[key], key
