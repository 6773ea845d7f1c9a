"""The sharded coordinator's dispatcher: routing by dictionary code, and
cutting a shard's rows only where a late row needs the session watermark.

``ShardedDetectionEngine._dispatch_subtree`` routes through a per-dictionary
table, gathers each shard group's rows once and ships them as
``(watermark, start, stop)`` segments.  A segment boundary costs the worker
one ``ingest_record_batch`` call (one count matrix, one hierarchy sweep), so
the dispatcher keeps a cut only where leaving it out would change what the
shard computes: on a row that is late against a session watermark the shard
has not reached.  The per-row loop that cuts at *every* watermark ahead of
the shard's progress lives on here as the reference segmentation, and the
dispatcher is held to it by **effect**: both segmentations are executed by
the real worker verb against real shard sessions and must close the same
timeunits into the same state.  The end-to-end legs pin sharded == serial
(detections *and* checkpoints) on batches that carry attributes:
``.rcol``-born (encoded column), NDJSON-born (list column) and across a
supervisor kill + replay — and that no attribute column reaches a worker.

``REPRO_SHARD_TRANSPORT`` narrows the end-to-end legs to one transport (the
CI ``sharded-transports`` job runs this module once per transport); unset,
they run on all three.
"""

from __future__ import annotations

import copy
import json
import os
import random

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.shard_worker import worker_handle
from repro.engine.sharded import (
    ShardedDetectionEngine,
    _merge_close_profiles,
    _SessionUnit,
)
from repro.engine.session import DetectionSession
from repro.engine.subtree import SubtreePartition, plan_subtree_groups, split_session_state
from repro.engine.transport import TRANSPORTS as TRANSPORT_CLASSES
from repro.exceptions import OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.io.columnar import read_batches_columnar, write_trace_columnar
from repro.io.jsonl_io import NdjsonDecoder
from repro.streaming.attributes import EncodedAttributes
from repro.streaming.batch import RecordBatch
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord
from repro.testing.faults import FaultPlan, FaultSpec, active

from tests.conftest import canonical_checkpoint

DELTA = 600.0
TRANSPORTS = (
    [os.environ["REPRO_SHARD_TRANSPORT"]]
    if os.environ.get("REPRO_SHARD_TRANSPORT")
    else ["pipe", "shm", "tcp"]
)


# ----------------------------------------------------------------------
# The reference segmentation: every watermark ahead of progress cuts
# ----------------------------------------------------------------------
def oracle_dispatch(partition, num_groups, clock, carried, batch):
    """``({gid: [(segment_w, rows | None), ...]}, new_carried)`` as the
    per-record loop cuts them (``rows`` index into ``batch``): a shard is
    advanced to the session watermark before *every* row whose watermark is
    ahead of the shard's progress, late or not."""
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


def oracle_ops(unit: _SessionUnit, batch: RecordBatch, segmentation) -> list:
    """The ``"ingest"`` ops of a reference segmentation, in group order: each
    group's rows gathered from ``batch`` as it is (attributes included)."""
    ops = []
    for gid in sorted(segmentation):
        rows, segments = [], []
        for watermark, segment_rows in segmentation[gid]:
            start = len(rows)
            rows += segment_rows or []
            segments.append((watermark, start, len(rows)))
        group = batch.take(rows) if rows else None
        ops.append((unit.keys[gid], group, segments))
    return ops


def cuts_of(segments) -> list[tuple[int, int]]:
    """``(watermark, first row)`` of every segment that cuts a group's rows:
    all but the anchor segment and a row-less trailing advance."""
    return [(w, rows[0]) for w, rows in segments[1:] if rows]


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


def make_config(depth: int = 1, policy: str = "clamp") -> TiresiasConfig:
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
        out_of_order_policy=policy,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )


def make_unit(
    depth: int, shards: int, pending_unit=None, policy="clamp", algorithm="ada"
) -> _SessionUnit:
    """A coordinator-side subtree unit, as ``attach_session_state`` builds it
    (``unit.sub_states`` are the shard states a worker would be sent), from a
    session whose open timeunit is ``pending_unit`` (None: fresh)."""
    session = DetectionSession(
        make_tree(),
        make_config(depth, policy),
        algorithm=algorithm,
        clock=SimulationClock(delta=DELTA),
        name="s",
    )
    if pending_unit is not None:
        session.advance_to(pending_unit)
    state = session.state_dict()
    groups = plan_subtree_groups(state["tree"]["leaves"], shards, depth)
    sub_states, withheld = split_session_state(state, groups, depth)
    unit = _SessionUnit(
        "s", state, groups, sub_states, list(range(len(groups))), withheld, depth=depth
    )
    assert unit.carried == pending_unit
    return unit


def dispatch_ops(unit: _SessionUnit, batch: RecordBatch):
    """Run the real ``_dispatch_subtree``: the ``"ingest"`` ops it queued, in
    group order, and the new session watermark."""
    engine = ShardedDetectionEngine.__new__(ShardedDetectionEngine)  # no workers
    queued: dict[int, list] = {}
    new_carried = ShardedDetectionEngine._dispatch_subtree(engine, unit, batch, queued)
    ops = []
    for worker, worker_ops in queued.items():
        for key, _, _ in worker_ops:
            assert unit.workers[key[2]] == worker
        ops += worker_ops
    return sorted(ops, key=lambda op: op[0]), new_carried


def dispatch(unit: _SessionUnit, batch: RecordBatch):
    """The real dispatcher's segments in the oracle's shape:
    ``{gid: [(segment_w, rows | None), ...]}`` with ``rows`` indexing into
    ``batch``."""
    ops, new_carried = dispatch_ops(unit, batch)
    position = {float(t): i for i, t in enumerate(batch.timestamps)}
    assert len(position) == len(batch)  # unique timestamps identify rows
    out = {}
    for key, group, segments in ops:
        if group is None:
            group_rows = []
        else:
            assert group.attributes is None  # workers get two columns
            group_rows = [position[float(t)] for t in group.timestamps]
            assert group_rows == sorted(group_rows)
            assert group.categories == [batch.categories[i] for i in group_rows]
        out[key[2]] = [
            (w, group_rows[start:stop] or None) for w, start, stop in segments
        ]
        covered = [row for _, rows in out[key[2]] for row in rows or []]
        assert covered == group_rows  # every shipped row sits in a segment
    return out, new_carried


def random_batch(rng: random.Random, tree: HierarchyTree, cumulative: bool, attrs: bool):
    """Out-of-order rows over 1..6 timeunits, in-tree leaves plus band,
    out-of-tree and root-like categories.  ``cumulative``: over a reader's
    kind of dictionary (every path the stream has ever carried) instead of
    the batch's own paths in first-appearance order."""
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
    if not cumulative:
        return RecordBatch(timestamps, categories, rows), base
    dictionary = extras + leaves
    codes = [dictionary.index(category) for category in categories]
    return RecordBatch.from_dictionary_codes(timestamps, codes, dictionary, rows), base


def run_ingest(workers: dict, ops: list):
    """One ``"ingest"`` verb against a worker's unit table: its reply, or the
    late record that stopped it under ``raise``; and every unit's state
    (wall-clock fields aside, ``pending`` row order included) afterwards."""
    try:
        outcome = worker_handle(workers, "ingest", ops)
    except OutOfOrderRecordError as exc:
        outcome = ("raised", exc.timestamp, exc.window_start)
    states = [state for _, state in worker_handle(workers, "state", sorted(workers))]
    return outcome, canonical_checkpoint(states)


@pytest.mark.parametrize("algorithm", ["ada", "sta"])
@pytest.mark.parametrize("policy", ["drop", "clamp", "raise"])
@pytest.mark.parametrize("depth, shards", [(1, 2), (1, 3), (2, 2), (2, 4)])
def test_dispatcher_equals_the_per_row_loop(algorithm, policy, depth, shards):
    """Effect, not shape: the dispatcher's ops and the reference
    segmentation's, each run by ``worker_handle`` against its own copy of
    the shard sessions, close the same ``TimeunitResult``s with the same
    frontier weights (ADA's; STA shards capture none) and leave the same
    session states after every batch — for ADA's dense close and STA's
    per-run loop."""
    rng = random.Random(1000 * depth + shards)
    tree = make_tree()
    for trial in range(40):
        first, base = random_batch(rng, tree, trial % 2 == 0, attrs=trial % 3 == 0)
        # Fresh vs carried watermark (below, inside and above the batch).
        carried = rng.choice([None, None, base - 2, base, base + 1, base + 9])
        unit = make_unit(depth, shards, carried, policy, algorithm)
        adds = [
            (key, state, unit.capture_depth)
            for key, state in zip(unit.keys, unit.sub_states)
        ]
        reference_workers, dispatcher_workers = {}, {}
        worker_handle(reference_workers, "add", copy.deepcopy(adds))
        worker_handle(dispatcher_workers, "add", copy.deepcopy(adds))
        for batch in (first, random_batch(rng, tree, trial % 2 == 1, False)[0]):
            segmentation, expected_carried = oracle_dispatch(
                unit.partition, unit.num_groups, unit.clock, unit.carried, batch
            )
            ops, got_carried = dispatch_ops(unit, batch)
            assert got_carried == expected_carried == unit.carried
            expected = run_ingest(
                reference_workers, oracle_ops(unit, batch, segmentation)
            )
            got = run_ingest(dispatcher_workers, ops)
            assert got == expected
            if got[0][0] == "raised":
                break  # the engine would surface the error here


@pytest.mark.parametrize("depth, shards", [(1, 2), (2, 4)])
def test_kept_cuts_sit_on_late_rows_and_dropped_cuts_on_in_order_ones(depth, shards):
    """Against the reference segmentation on shuffled batches: the dispatcher
    keeps exactly the reference cuts whose row is late against its watermark
    (``unit < watermark``) and drops exactly those on an in-order row."""
    rng = random.Random(77 * depth + shards)
    tree = make_tree()
    kept = dropped = 0
    for trial in range(200):
        batch, base = random_batch(rng, tree, trial % 2 == 0, attrs=False)
        unit = make_unit(depth, shards)
        unit.carried = rng.choice([None, base - 2, base, base + 1])
        units_col = batch.timeunit_indices(unit.clock)
        reference, _ = oracle_dispatch(
            unit.partition, unit.num_groups, unit.clock, unit.carried, batch
        )
        got, _ = dispatch(unit, batch)
        assert sorted(got) == sorted(reference)
        for gid, segments in reference.items():
            reference_cuts, got_cuts = cuts_of(segments), cuts_of(got[gid])
            late = [(w, row) for w, row in reference_cuts if units_col[row] < w]
            assert got_cuts == late
            kept += len(late)
            dropped += len(reference_cuts) - len(late)
    assert kept >= 30 and dropped >= 30  # the workload exercises both sides


def test_named_edges_of_the_segment_rule():
    """The cases the rule names, pinned as literals (depth-1 cut, 2 groups).

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
    # empty group, the (late) row rides the anchor segment.
    assert run(7, [(5, a)]) == ({0: [(7, [0])]}, 7)
    # An in-order row past the watermark another group moved: no cut — the
    # row closes what the advance would have.
    assert run(5, [(6, b), (6, a)]) == ({0: [(5, [1])], 1: [(5, [0])]}, 6)
    # Many timeunits in order: one segment per group, whoever moved the
    # watermark; only the group left behind gets the trailing advance.
    got, carried = run(0, [(1, a), (2, a), (3, b), (3, a), (3, a), (4, b)])
    assert got == {0: [(0, [0, 1, 3, 4]), (4, None)], 1: [(0, [2, 5])]}
    assert carried == 4
    # A late row behind a watermark its group has not reached: the cut is
    # kept, at that watermark.
    assert run(2, [(4, b), (3, a)]) == (
        {0: [(2, None), (4, [1])], 1: [(2, [0])]},
        4,
    )
    # Late rows sharing one watermark: one cut, on the first of them.
    got, _ = run(2, [(4, a), (5, b), (3, a), (2, a), (4, a), (6, b)])
    assert got == {0: [(2, [0]), (5, [2, 3, 4]), (6, None)], 1: [(2, [1, 5])]}
    # Out-of-order rows never cut backwards: a late row's own timeunit does
    # not lower the progress its group has made.
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
def attribute_workload(seed: int = 77, late: float = 0.04, units: int = 30):
    """(tree, clock, records): ``units`` bursty timeunits, mildly out of
    order (a ``late`` share of the rows arrives one or two timeunits behind),
    ~40 % of rows carry attributes (none of them a stream key: one session
    gets it all)."""
    rng = random.Random(seed)
    tree = make_tree()
    leaves = [tuple(path) for path in tree.leaf_paths()]
    popularity = [rng.random() ** 2 + 0.05 for _ in leaves]
    records = []
    for unit in range(units):
        for _ in range(rng.randint(8, 40)):
            leaf = rng.choices(leaves, weights=popularity)[0]
            records.append((unit * DELTA + rng.random() * DELTA, leaf))
        if rng.random() < 0.2:
            hot = rng.choice(leaves)
            records += [(unit * DELTA + rng.random() * DELTA, hot) for _ in range(40)]
    records.sort()
    out = []
    for timestamp, leaf in records:
        if rng.random() < late:
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
    between the decoder and the shard worker numbers a batch's paths again
    (only ``RecordBatch(...)`` does; gathers and frames share dictionaries)."""
    tree, clock, records = attribute_workload(seed=78)
    body = b"".join(
        json.dumps(record.to_dict(), sort_keys=True).encode() + b"\n" for record in records
    )

    def batches():
        decoder = NdjsonDecoder(113)
        out = [batch for _, batch in decoder.feed(body, final=True)]
        assert any(isinstance(b.attributes, list) for b in out)
        return out

    results, anomalies, state = serial_run(tree, clock, batches())

    recoded = []
    from_tuples = RecordBatch.__init__

    def spy(batch, timestamps, *columns):
        recoded.append(len(timestamps))
        from_tuples(batch, timestamps, *columns)

    monkeypatch.setattr(RecordBatch, "__init__", spy)
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


# ----------------------------------------------------------------------
# The property the segment rule buys: one ingest call per (shard, batch)
# ----------------------------------------------------------------------
def recording_transport(shipped: list):
    """A transport (the first kind under test) that appends every ``"ingest"``
    op it ships to ``shipped``."""

    class Recording(TRANSPORT_CLASSES[TRANSPORTS[0]]):
        def ship(self, worker_id, verb, ops, **options):
            if verb == "ingest":
                shipped.extend(ops)
            super().ship(worker_id, verb, ops, **options)

    return Recording()


def test_in_order_batches_reach_each_shard_whole_and_close_densely(tmp_path):
    """An in-order trace with attributes, 2 subtree shards: every ``"ingest"``
    op is one segment (plus at most a trailing advance) over a batch with no
    attribute column, so the shards close their timeunits from batch count
    matrices — all but the final flush and the odd trailing advance."""
    tree, clock, records = attribute_workload(seed=79, late=0.0, units=120)
    path = tmp_path / "in_order.rcol"
    write_trace_columnar(records, path)
    batches = list(read_batches_columnar(path, batch_size=640))
    assert len(batches) > 5
    assert all(isinstance(b.attributes, EncodedAttributes) for b in batches)

    shipped = []
    with ShardedDetectionEngine(num_workers=2, transport=recording_transport(shipped)) as engine:
        engine.add_session("s", tree, make_config(), clock=clock, subtree_shards=2)
        for batch in batches:
            engine.ingest_record_batch(batch)
        engine.flush()
        profile = engine.close_profile()["s"]

    assert len(shipped) >= 2 * (len(batches) - 1)  # both shards, batch after batch
    for _, group, segments in shipped:
        assert group is None or group.attributes is None
        assert len(segments) <= 2
        assert all(start == stop for _, start, stop in segments[1:])
    assert profile["fused_units"] == 2 * 120
    assert profile["dense_close_units"] >= 0.95 * profile["fused_units"]
    assert sum(profile["close_time"]["counts"]) == profile["close_time"]["count"]


def test_unsplit_session_parts_ship_whole_without_attributes():
    """An unsplit session's part is one op: every row, one segment anchored
    at the first row's timeunit, no attribute column."""
    _, clock, records = attribute_workload(seed=80)
    batch = RecordBatch.from_records(records[:200])
    shipped = []
    with ShardedDetectionEngine(num_workers=1, transport=recording_transport(shipped)) as engine:
        engine.add_session("s", make_tree(), make_config(), clock=clock)
        engine.ingest_record_batch(batch)
    [(_, group, segments)] = shipped
    assert len(group) == 200 and group.attributes is None
    assert segments == [(int(batch.timeunit_indices(clock)[0]), 0, 200)]


def test_close_profiles_merge_bucket_by_bucket():
    """``close_profile()`` of a subtree-sharded session (what ``/metrics``
    shows): unit counters and histogram buckets add across shards, the
    slowest close is the slowest of any shard."""

    def profile(fused, dense, counts, total, slowest):
        return {
            "fused_units": fused,
            "staged_units": 0,
            "dense_close_units": dense,
            "close_time": {
                "bucket_upper_seconds": [0.001, 0.01],
                "counts": counts,
                "count": sum(counts),
                "total_seconds": total,
                "max_seconds": slowest,
            },
        }

    merged = _merge_close_profiles(
        [profile(5, 4, [3, 2, 0], 0.25, 0.004), None, profile(7, 7, [1, 5, 1], 0.5, 0.02)]
    )
    assert merged == profile(12, 11, [4, 7, 1], 0.75, 0.02)
    assert _merge_close_profiles([{}, None]) == {}
