"""The sharded coordinator's dispatcher: routing by dictionary code.

``ShardedDetectionEngine._dispatch_subtree`` used to walk every record in
Python — ``partition.route(category)`` per row, then a per-row loop cutting
each shard group's rows into watermark segments.  It now routes through a
per-dictionary table and computes the cuts with cumulative maxima.  The old
loop lives on here, as the oracle the new dispatcher is driven against, and
the end-to-end legs pin sharded == serial (detections *and* checkpoints) on
batches that carry attributes: ``.rcol``-born (encoded column), NDJSON-born
(tuple categories, list column) and across a supervisor kill + replay.

``REPRO_SHARD_TRANSPORT`` narrows the end-to-end legs to one transport (the
CI ``sharded-transports`` job runs this module once per transport); unset,
they run on all three.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine, _SubtreeUnit
from repro.engine.session import DetectionSession
from repro.hierarchy.tree import HierarchyTree
from repro.io.checkpoint import SubtreePartition, split_session_state
from repro.io.columnar import read_batches_columnar, write_trace_columnar
from repro.io.jsonl_io import NdjsonDecoder
from repro.streaming.attributes import EncodedAttributes
from repro.streaming.batch import RecordBatch
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord
from repro.testing.faults import FaultPlan, FaultSpec, active

from tests.conftest import python_tier

DELTA = 600.0
TRANSPORTS = (
    [os.environ["REPRO_SHARD_TRANSPORT"]]
    if os.environ.get("REPRO_SHARD_TRANSPORT")
    else ["pipe", "shm", "tcp"]
)


# ----------------------------------------------------------------------
# The oracle: the per-row dispatcher this PR deleted from src/
# ----------------------------------------------------------------------
def oracle_dispatch(partition, num_groups, clock, carried, batch):
    """``({gid: [(segment_w, rows | None), ...]}, new_carried)`` exactly as
    the per-record loop produced them (``rows`` index into ``batch``)."""
    units_col = [int(u) for u in batch.timeunit_indices(clock)]
    fresh = carried is None
    anchor = units_col[0] if fresh else carried
    w_before, high = [], anchor
    for u in units_col:
        w_before.append(high)
        if u > high:
            high = u
    new_carried = high

    rows_by_gid: dict[int, list[int]] = {}
    for i, category in enumerate(batch.categories):
        gid = partition.route(category)
        rows_by_gid.setdefault(0 if gid is None else gid, []).append(i)

    out = {}
    for gid in range(num_groups):
        segments = []
        pending_rows: list[int] = []
        segment_w = anchor
        progress = anchor
        for row in rows_by_gid.get(gid, []):
            w = w_before[row]
            if w > progress:
                segments.append((segment_w, pending_rows or None))
                pending_rows = []
                segment_w = w
                progress = w
            pending_rows.append(row)
            if units_col[row] > progress:
                progress = units_col[row]
        if pending_rows or (fresh and not segments):
            segments.append((segment_w, pending_rows or None))
        if new_carried > progress:
            segments.append((new_carried, None))
        if segments:
            out[gid] = segments
    return out, new_carried


# ----------------------------------------------------------------------
# Driving the real dispatcher without worker processes
# ----------------------------------------------------------------------
def make_tree():
    paths = [
        (f"t{top}", f"m{top}{mid}", f"l{top}{mid}{leaf}")
        for top in range(4)
        for mid in range(2)
        for leaf in range(2)
    ]
    paths.append(("solo",))  # a leaf shallower than a depth-2 cut
    return HierarchyTree.from_leaf_paths(paths)


def make_config(depth: int = 1) -> TiresiasConfig:
    return TiresiasConfig(
        theta=4.0,
        ratio_threshold=2.0,
        difference_threshold=3.0,
        delta_seconds=DELTA,
        window_units=16,
        reference_levels=1,
        track_root=False,
        allow_root_heavy=False,
        min_heavy_depth=depth,
        out_of_order_policy="clamp",
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )


def make_unit(depth: int, shards: int, pending_unit=None) -> _SubtreeUnit:
    """A coordinator-side subtree unit, as ``attach_session_state`` builds it."""
    from repro.engine.sharded import plan_subtree_groups

    tree = make_tree()
    state = DetectionSession(
        tree, make_config(depth), clock=SimulationClock(delta=DELTA), name="s"
    ).state_dict()
    groups = plan_subtree_groups(state["tree"]["leaves"], shards, depth)
    sub_states, withheld = split_session_state(state, groups, depth)
    unit = _SubtreeUnit(
        "s", state, groups, sub_states, list(range(len(groups))), withheld, depth=depth
    )
    unit.carried = pending_unit
    return unit


def dispatch(unit: _SubtreeUnit, batch: RecordBatch):
    """Run the real ``_dispatch_subtree``; returns segments in the oracle's
    shape: ``{gid: [(segment_w, rows | None), ...]}`` with ``rows`` indexing
    into ``batch``."""
    engine = ShardedDetectionEngine.__new__(ShardedDetectionEngine)  # no workers
    ops: dict[int, list] = {}
    new_carried = ShardedDetectionEngine._dispatch_subtree(engine, unit, batch, ops)
    position = {float(t): [] for t in batch.timestamps}
    for i, t in enumerate(batch.timestamps):
        position[float(t)].append(i)
    out = {}
    for worker, queued in ops.items():
        for key, kind, (group, segments) in queued:
            assert kind == "sub" and unit.workers[key[2]] == worker
            if group is None:
                group_rows = []
            else:
                # Timestamps are unique in these workloads: they identify rows.
                group_rows = [position[float(t)][0] for t in group.timestamps]
                assert group_rows == sorted(group_rows)
                assert group.to_records() == [batch.record(i) for i in group_rows]
            out[key[2]] = [
                (w, group_rows[start:stop] or None) for w, start, stop in segments
            ]
            covered = [row for _, rows in out[key[2]] for row in rows or []]
            assert covered == group_rows  # every shipped row sits in a segment
    return out, new_carried


def random_batch(rng: random.Random, tree: HierarchyTree, coded: bool, attrs: bool):
    """Out-of-order rows over 1..6 timeunits, in-tree leaves plus band,
    out-of-tree and root-like categories."""
    leaves = [tuple(path) for path in tree.leaf_paths()]
    extras = [("t0",), ("t1", "m10"), ("ghost", "x"), ("t2", "nowhere"), ("t3",)]
    base = rng.randrange(0, 50)
    span = rng.choice([1, 1, 2, 4, 6])
    count = rng.choice([1, 2, 5, 20, 60])
    timestamps = sorted(
        {round((base + rng.random() * span) * DELTA, 3) for _ in range(count)}
    )
    if rng.random() < 0.7:  # shuffle some rows out of order
        for _ in range(len(timestamps) // 3):
            i, j = rng.randrange(len(timestamps)), rng.randrange(len(timestamps))
            timestamps[i], timestamps[j] = timestamps[j], timestamps[i]
    hot = rng.sample(leaves, rng.randint(1, len(leaves)))  # some groups stay empty
    categories = [
        rng.choice(extras) if rng.random() < 0.15 else rng.choice(hot)
        for _ in timestamps
    ]
    rows = None
    if attrs:
        rows = [{"label": f"r{i}"} if rng.random() < 0.4 else {} for i in timestamps]
    batch = RecordBatch(timestamps, categories, rows)
    return batch.coded() if coded else batch, base


@pytest.mark.parametrize("python", [False, True], ids=["numpy", "python"])
@pytest.mark.parametrize("depth, shards", [(1, 2), (1, 3), (2, 2), (2, 4)])
def test_dispatcher_equals_the_per_row_loop(python, depth, shards):
    from contextlib import nullcontext

    with python_tier() if python else nullcontext():
        rng = random.Random(1000 * depth + shards)
        for trial in range(120):
            unit = make_unit(depth, shards)
            tree = make_tree()
            first, base = random_batch(rng, tree, coded=trial % 2 == 0, attrs=trial % 3 == 0)
            # Fresh vs carried watermark (below, inside and above the batch).
            unit.carried = rng.choice([None, None, base - 2, base, base + 1, base + 9])
            for batch in (first, random_batch(rng, tree, trial % 2 == 1, False)[0]):
                expected, expected_carried = oracle_dispatch(
                    unit.partition, unit.num_groups, unit.clock, unit.carried, batch
                )
                got, got_carried = dispatch(unit, batch)
                assert got == expected
                assert got_carried == expected_carried == unit.carried


def test_named_edges_of_the_segment_rule():
    """The cases the issue names, pinned as literals (depth-1 cut, 2 groups).

    Group 0 owns t0/t2/solo, group 1 owns t1/t3 (LPT over equal subtrees)."""
    unit = make_unit(1, 2)
    g = {tuple(p): unit.partition.route(p) for p in [("t0",), ("t1",), ("t2",), ("t3",)]}
    a, b = ("t0", "m00", "l000"), ("t1", "m10", "l100")
    assert (g[("t0",)], g[("t1",)]) == (0, 1)

    def run(carried, rows):
        unit.carried = carried
        batch = RecordBatch([(u + 0.5) * DELTA + i for i, (u, _) in enumerate(rows)],
                            [c for _, c in rows])
        return dispatch(unit, batch)

    # One timeunit, fresh: a single segment per group that has rows; a group
    # with no rows is still anchored.
    assert run(None, [(5, a), (5, a)]) == ({0: [(5, [0, 1])], 1: [(5, None)]}, 5)
    # Carried watermark ahead of the batch: no anchoring segment for the
    # empty group, rows ride the anchor segment.
    assert run(7, [(5, a)]) == ({0: [(7, [0])]}, 7)
    # A cut on the first row of a group: the other group moved the watermark.
    assert run(5, [(6, b), (6, a)]) == (
        {0: [(5, None), (6, [1])], 1: [(5, [0])]},
        6,
    )
    # Many timeunits: one cut per distinct watermark beyond own progress; a
    # group's own rows advance its progress without a cut.
    got, carried = run(0, [(1, a), (2, a), (3, b), (3, a), (3, a), (4, b)])
    assert got == {
        0: [(0, [0, 1]), (3, [3, 4]), (4, None)],
        1: [(0, None), (2, [2, 5])],
    }
    assert carried == 4
    # Out-of-order rows never cut backwards.
    got, _ = run(2, [(4, a), (3, a), (2, b), (5, b), (1, a)])
    assert got == {0: [(2, [0, 1]), (5, [4])], 1: [(2, None), (4, [2, 3])]}


def test_route_is_called_once_per_dictionary_entry(tmp_path, monkeypatch):
    """Call count, not timing: a multi-batch pass over one columnar file asks
    ``SubtreePartition.route`` once per dictionary entry, total."""
    tree = make_tree()
    leaves = [tuple(path) for path in tree.leaf_paths()]
    rng = random.Random(5)
    records = [
        OperationalRecord(i * 7.0, rng.choice(leaves), {"label": "x"} if i % 3 else {})
        for i in range(2000)
    ]
    path = tmp_path / "trace.rcol"
    write_trace_columnar(records, path)
    batches = list(read_batches_columnar(path, batch_size=128))
    assert len(batches) > 10
    dictionary = batches[0].code_dictionary

    calls = []
    real_route = SubtreePartition.route

    def counting_route(self, path, default=0):
        calls.append(tuple(path))
        return real_route(self, path, default)

    unit = make_unit(1, 2)
    monkeypatch.setattr(SubtreePartition, "route", counting_route)
    for batch in batches:
        dispatch(unit, batch)
    assert sorted(calls) == sorted(dictionary)  # once each, never per record

    # Tuple-born batches bring a dictionary each: once per entry of each.
    calls.clear()
    plain = [RecordBatch.from_records(list(batch)) for batch in batches[:4]]
    for batch in plain:
        dispatch(unit, batch)
    assert len(calls) == sum(len(set(batch.categories)) for batch in plain)


# ----------------------------------------------------------------------
# End to end: sharded == serial on batches that carry attributes
# ----------------------------------------------------------------------
def attribute_workload(seed: int = 77):
    """(tree, clock, records): bursty, mildly out of order, ~40 % of rows
    carry attributes (none of them a stream key: one session gets it all)."""
    rng = random.Random(seed)
    tree = make_tree()
    leaves = [tuple(path) for path in tree.leaf_paths()]
    popularity = [rng.random() ** 2 + 0.05 for _ in leaves]
    records = []
    for unit in range(30):
        for _ in range(rng.randint(8, 40)):
            leaf = rng.choices(leaves, weights=popularity)[0]
            records.append((unit * DELTA + rng.random() * DELTA, leaf))
        if rng.random() < 0.2:
            hot = rng.choice(leaves)
            records += [(unit * DELTA + rng.random() * DELTA, hot) for _ in range(40)]
    records.sort()
    out = []
    for timestamp, leaf in records:
        if rng.random() < 0.04:
            timestamp = max(0.0, timestamp - DELTA * rng.randint(1, 2))
        attrs = {}
        if rng.random() < 0.4:
            attrs = {"injected": True, "label": f"flash-{rng.randrange(9)}", "n": [1, {"é": None}]}
        out.append(OperationalRecord(timestamp, leaf, attrs))
    return tree, SimulationClock(delta=DELTA), out


def canonical_state(state) -> str:
    state = json.loads(json.dumps(state))
    state.pop("reading_seconds", None)
    algo = state["algorithm_state"]
    algo["stage_seconds"] = {}
    for field, rows in list(algo.items()):
        if isinstance(rows, list):
            algo[field] = sorted(json.dumps(row, sort_keys=True) for row in rows)
    state["pending"] = sorted(state["pending"], key=lambda kv: kv[0])
    return json.dumps(state, sort_keys=True)


def serial_run(tree, clock, batches, flush=True):
    engine = DetectionEngine()
    engine.add_session("s", tree, make_config(), clock=clock)
    results = []
    for batch in batches:
        results += engine.ingest_record_batch(batch)["s"]
    if flush:
        results += engine.flush()["s"]
    return (
        results,
        [a.to_dict() for a in engine.anomalies()["s"]],
        canonical_state(engine.state_dict()["sessions"][0]),
    )


def sharded_run(tree, clock, batches, transport, flush=True, **engine_options):
    with ShardedDetectionEngine(
        num_workers=2, transport=transport, **engine_options
    ) as engine:
        engine.add_session("s", tree, make_config(), clock=clock, subtree_shards=2)
        results = []
        for batch in batches:
            results += engine.ingest_record_batch(batch)["s"]
        if flush:
            results += engine.flush()["s"]
        return (
            results,
            [a.to_dict() for a in engine.anomalies()["s"]],
            canonical_state(engine.merged_session_state("s")),
            engine,
        )


@pytest.fixture(scope="module")
def rcol_batches(tmp_path_factory):
    tree, clock, records = attribute_workload()
    path = tmp_path_factory.mktemp("dispatch") / "attrs.rcol"
    write_trace_columnar(records, path)

    def batches():
        out = list(read_batches_columnar(path, batch_size=97))
        assert any(isinstance(b.attributes, EncodedAttributes) for b in out)
        return out

    return tree, clock, batches


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("flush", [True, False], ids=["flushed", "mid-timeunit"])
def test_rcol_with_attributes_sharded_equals_serial(rcol_batches, transport, flush):
    tree, clock, batches = rcol_batches
    results, anomalies, state = serial_run(tree, clock, batches(), flush)
    assert anomalies, "the workload must detect something"
    got_results, got_anomalies, got_state, _ = sharded_run(
        tree, clock, batches(), transport, flush
    )
    assert got_results == results
    assert got_anomalies == anomalies
    assert got_state == state  # checkpoints, not only detections


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_ndjson_born_batches_sharded_equals_serial(transport, monkeypatch):
    """What the service's decoder builds — dictionary codes + a ``list``
    attribute column — is routed by code and framed as it is: nothing
    between the decoder and the shard worker codes a batch again."""
    tree, clock, records = attribute_workload(seed=78)
    body = b"".join(
        json.dumps(record.to_dict(), sort_keys=True).encode() + b"\n" for record in records
    )

    def batches():
        decoder = NdjsonDecoder(113)
        out = [batch for _, batch in decoder.feed(body, final=True)]
        assert all(b.category_codes is not None for b in out)
        assert any(isinstance(b.attributes, list) for b in out)
        return out

    results, anomalies, state = serial_run(tree, clock, batches())

    recoded = []
    code_batch = RecordBatch.coded

    def spy(batch):
        if batch.category_codes is None:
            recoded.append(len(batch))
        return code_batch(batch)

    monkeypatch.setattr(RecordBatch, "coded", spy)
    got_results, got_anomalies, got_state, _ = sharded_run(
        tree, clock, batches(), transport
    )
    assert not recoded
    assert anomalies
    assert got_results == results
    assert got_anomalies == anomalies
    assert got_state == state


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_kill_and_oplog_replay_with_attribute_columns(rcol_batches, transport):
    """A worker killed mid-stream is rebuilt by replaying logged rounds —
    rounds whose batches carry encoded attribute columns."""
    tree, clock, batches = rcol_batches
    results, anomalies, state = serial_run(tree, clock, batches())
    plan = FaultPlan([FaultSpec("kill_worker", worker=1, op="ship", n=5)], seed=0)
    with active(plan):
        got_results, got_anomalies, got_state, engine = sharded_run(
            tree, clock, batches(), transport, op_timeout=20.0
        )
    assert plan.fired
    assert engine.recoveries_total >= 1 and engine.replayed_batches_total >= 1
    assert got_results == results
    assert got_anomalies == anomalies
    assert got_state == state
