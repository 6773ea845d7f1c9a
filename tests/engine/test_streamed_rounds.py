"""The pipelined coordinator loop: same answers, a stated schedule.

``ShardedDetectionEngine.process_batches`` prepares round *k+1* and merges
round *k-1* while the workers compute round *k*; ``ingest_record_batch``
runs the same phases back to back.  This module pins

* **equivalence** — the streamed loop against ``ingest_record_batch`` per
  batch plus ``flush()`` on fresh engines (results, observer events,
  checkpoint files), and both against the serial engine;
* **the schedule** — over a recording transport, without timing asserts:
  one command in flight per channel, ``ship(w, k+1)`` right after
  ``collect(w, k)``, ``prepare(k+1)`` before every ``collect(., k)``,
  ``merge(k)`` after every ``ship(., k+1)``, the batch iterator never more
  than one round ahead of the merge;
* **failures with a round in flight** — iterator errors, worker-reported
  errors, engine calls from observers;
* **faults through the streamed exchange** (``-k Faults``, also run by the
  CI ``chaos-smoke`` job) — kills between ``collect`` and ``ship``,
  worker-side exits mid-round, snapshot refreshes inside the exchange;
* **the merge** — ``_merge_unit_results`` concatenating the shards' columns
  against the per-path union it replaced, kept here as the oracle.

``REPRO_SHARD_TRANSPORT`` (``pipe``/``shm``/``tcp``, default ``pipe``)
steers every sharded engine this module builds.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import random

import numpy as np
import pytest

from repro.core.detector import Anomaly
from repro.core.results import TimeunitResult
from repro.engine.engine import DetectionEngine
from repro.engine.hooks import CallbackObserver
from repro.engine.sharded import ShardedDetectionEngine
from repro.engine.transport import TRANSPORTS
from repro.exceptions import OutOfOrderRecordError, ShardingError, StreamError
from repro.streaming.batch import RecordBatch, iter_record_batches
from repro.streaming.record import OperationalRecord
from repro.testing.faults import FaultPlan, FaultSpec, active

from tests.engine.test_dispatch_subtree import make_unit
from tests.integration.test_fault_recovery import canonical_state
from tests.integration.test_sharded_equivalence import make_config, make_workload

TRANSPORT = os.environ.get("REPRO_SHARD_TRANSPORT", "pipe")
SEED = 35


# ----------------------------------------------------------------------
# Workload: a whole-session unit and a subtree unit fed by one stream
# ----------------------------------------------------------------------
def two_session_workload():
    """(tree, clock, config, records): the streams of sessions ``"w"``
    (kept whole) and ``"s"`` (subtree-sharded), merged by timestamp."""
    tree, clock, for_sub = make_workload(SEED, 0.05)
    _, _, for_whole = make_workload(SEED, 0.0)
    tagged = [
        OperationalRecord(r.timestamp, r.category, {"stream": name})
        for name, records in (("s", for_sub), ("w", for_whole[::2]))
        for r in records
    ]
    tagged.sort(key=lambda r: r.timestamp)
    return tree, clock, make_config(SEED, "clamp"), tagged


def batch_streams(records):
    """Stream shapes by name: none, one batch, many small ones that mostly
    close nothing (with empty batches between them), a few large ones that
    close many timeunits each."""
    small = []
    for batch in iter_record_batches(records, 9):
        small += [batch, RecordBatch.from_records([])]
    return {
        "no-batches": [],
        "one-batch": [RecordBatch.from_records(records)],
        "small+empty": [RecordBatch.from_records([])] + small,
        "large": list(iter_record_batches(records, 120)),
    }


def watch(engine_like) -> list:
    events: list = []
    engine_like.subscribe(
        CallbackObserver(
            on_timeunit_closed=lambda s, r: events.append((s.name, "unit", r.timeunit)),
            on_anomaly=lambda s, a: events.append((s.name, "anomaly", a.to_dict())),
            on_warmup_complete=lambda s, u: events.append((s.name, "warmup", u)),
        )
    )
    return events


def of_session(events, name):
    return [event[1:] for event in events if event[0] == name]


def checkpoint_bytes(engine, path) -> bytes:
    """The ``save_checkpoint`` file minus its wall-clock fields (the only
    content that differs between two runs of one stream)."""
    engine.save_checkpoint(path)
    document = json.loads(path.read_bytes())
    document["sessions"] = [canonical_state(s) for s in document["sessions"]]
    return json.dumps(document).encode()


def sharded_engine(workload, workers, **options):
    tree, clock, config, _ = workload
    options.setdefault("transport", TRANSPORT)
    engine = ShardedDetectionEngine(num_workers=workers, **options)
    engine.add_session("s", tree, config, clock=clock, subtree_shards=max(2, workers))
    engine.add_session("w", tree, config, clock=clock)
    return engine


def per_batch(engine, batches) -> dict:
    closed = {name: [] for name in engine.session_names}
    for batch in batches:
        for name, results in engine.ingest_record_batch(batch).items():
            closed[name] += results
    for name, results in engine.flush().items():
        closed[name] += results
    return closed


@pytest.fixture(scope="module")
def workload():
    return two_session_workload()


@pytest.fixture(scope="module")
def serial_reference(workload):
    tree, clock, config, records = workload
    engine = DetectionEngine()
    engine.add_session("s", tree, config, clock=clock)
    engine.add_session("w", tree, config, clock=clock)
    events = watch(engine)
    results = engine.process_batches(iter_record_batches(records, 120))
    assert any(r.anomalies for r in results["s"]), "the workload must detect something"
    return results, events


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["no-batches", "one-batch", "small+empty", "large"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streamed_equals_per_batch_ingest(
    workload, serial_reference, tmp_path, workers, shape
):
    batches = batch_streams(workload[3])[shape]
    with sharded_engine(workload, workers) as streamed:
        streamed_events = watch(streamed)
        streamed_results = streamed.process_batches(iter(batches))
        streamed_file = checkpoint_bytes(streamed, tmp_path / "streamed.json")
    with sharded_engine(workload, workers) as stepped:
        stepped_events = watch(stepped)
        stepped_results = per_batch(stepped, batches)
        stepped_file = checkpoint_bytes(stepped, tmp_path / "stepped.json")
    assert streamed_results == stepped_results
    assert streamed_events == stepped_events
    assert streamed_file == stepped_file
    if batches:
        serial_results, serial_events = serial_reference
        assert streamed_results == serial_results
        for name in ("s", "w"):
            assert of_session(streamed_events, name) == of_session(serial_events, name)
    else:
        assert streamed_results == {"s": [], "w": []} and not streamed_events


def reverse_routed_batches(records, per_batch=150) -> list:
    """``records`` in batches tagged for sessions ``"b"``, ``"a"`` and
    ``"s"``, each batch listing every row of ``"b"`` first, then ``"a"``,
    then ``"s"``: the routing order of every batch."""
    batches = []
    for start in range(0, len(records), per_batch):
        chunk = records[start : start + per_batch]
        batches.append(
            RecordBatch.from_records(
                [
                    OperationalRecord(r.timestamp, r.category, {"stream": name})
                    for name in ("b", "a", "s")
                    for r in chunk
                ]
            )
        )
    return batches


@pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "per-batch"])
def test_observer_events_fire_in_routing_order_across_sessions(workload, streamed):
    """Unsplit ``"a"`` and ``"b"`` sit on workers 0 and 1 and split ``"s"``
    on both, but every batch routes ``"b"`` before ``"a"``: the events of
    all three sessions interleave exactly as the serial engine fires them —
    routing order per batch, registration order at the flush."""
    tree, clock, config, records = workload
    batches = reverse_routed_batches(records[::3])
    serial = DetectionEngine()
    for name in ("a", "b", "s"):
        serial.add_session(name, tree, config, clock=clock)
    serial_events = watch(serial)
    serial_results = serial.process_batches(iter(batches))

    with ShardedDetectionEngine(num_workers=2, transport=TRANSPORT) as engine:
        engine.add_session("a", tree, config, clock=clock)
        engine.add_session("b", tree, config, clock=clock)
        engine.add_session("s", tree, config, clock=clock, subtree_shards=2)
        layout = engine.sharding_info()["sessions"]
        assert (layout["a"]["worker"], layout["b"]["worker"]) == (0, 1)
        events = watch(engine)
        if streamed:
            results = engine.process_batches(iter(batches))
        else:
            results = per_batch(engine, batches)
    assert results == serial_results
    assert {name for name, *_ in events} == {"a", "b", "s"}
    assert events == serial_events


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
def recording_engine(workload, workers, log):
    """An engine whose transport logs every ship/collect and which logs its
    own prepare/merge phases, all into ``log`` in program order."""

    class Recording(TRANSPORTS[TRANSPORT]):
        def ship(self, worker_id, verb, ops, **options):
            log.append(("ship", worker_id, verb))
            super().ship(worker_id, verb, ops, **options)

        def collect(self, worker_id, timeout=None):
            reply = super().collect(worker_id, timeout)
            log.append(("collect", worker_id))
            return reply

    class Phased(ShardedDetectionEngine):
        def _prepare_round(self, batch, index=None):
            round_ = super()._prepare_round(batch, index)
            if round_ is not None:
                log.append(("prepare", round_.index))
            return round_

        def _merge_round(self, round_, closed):
            log.append(("merge", round_.index))
            super()._merge_round(round_, closed)

    tree, clock, config, _ = workload
    engine = Phased(num_workers=workers, transport=Recording())
    engine.add_session("s", tree, config, clock=clock, subtree_shards=max(2, workers))
    engine.add_session("w", tree, config, clock=clock)
    return engine


def label_rounds(log):
    """``log`` with every ingest ship/collect labelled by its round.

    A ship belongs to the round prepared last; a collect to the command it
    answers.  Pairing them is also the one-in-flight check: a channel must
    be idle when a command goes out and busy when a reply is read.
    """
    in_flight: dict = {}
    prepared = None
    out = []
    for event in log:
        if event[0] == "prepare":
            prepared = event[1]
            out.append(event)
        elif event[0] == "ship":
            _, worker, verb = event
            if verb == "stop":  # close(): acknowledged outside collect()
                continue
            assert worker not in in_flight, f"two commands in flight on channel {worker}"
            in_flight[worker] = prepared if verb == "ingest" else None
            if verb == "ingest":
                out.append(("ship", worker, prepared))
        elif event[0] == "collect":
            round_ = in_flight.pop(event[1])
            if round_ is not None:
                out.append(("collect", event[1], round_))
        else:
            out.append(event)
    assert not in_flight
    return out


@pytest.mark.parametrize("workers", [2, 3])
def test_schedule_of_the_streamed_loop(workload, workers):
    batches = batch_streams(workload[3])["small+empty"][:45]
    log: list = []

    def source():
        for number, batch in enumerate(batches):
            log.append(("pull", number))
            yield batch

    with recording_engine(workload, workers, log) as engine:
        engine.process_batches(source())
    events = label_rounds(log)
    where = {event: position for position, event in enumerate(events)}
    rounds = max(event[1] for event in events if event[0] == "prepare") + 1
    assert rounds >= 20
    shipped = {
        k: [e[1] for e in events if e[0] == "ship" and e[2] == k] for k in range(rounds)
    }
    for k in range(rounds):
        assert shipped[k] == sorted(shipped[k]) and shipped[k]
        collects = [where[("collect", w, k)] for w in shipped[k]]
        assert where[("merge", k)] > max(collects)
        if k + 1 == rounds:
            continue
        # prepare(k+1) happens while round k computes ...
        assert where[("prepare", k + 1)] < min(collects)
        for w in shipped[k + 1]:
            # ... a worker is fed round k+1 the moment its reply to k lands ...
            if w in shipped[k]:
                assert where[("ship", w, k + 1)] == where[("collect", w, k)] + 1
            # ... and merge(k) runs once every worker has round k+1.
            assert where[("merge", k)] > where[("ship", w, k + 1)]
        # The iterator is never advanced past k+1 before round k is merged.
        between = events[where[("prepare", k + 1)] : where[("merge", k)]]
        assert not [event for event in between if event[0] == "pull"]
    # No barrier: some worker was fed round k+1 before a peer answered round k.
    assert any(
        where[("ship", shipped[k + 1][0], k + 1)] < where[("collect", shipped[k][-1], k)]
        for k in range(rounds - 1)
        if len(shipped[k]) > 1 and shipped[k + 1][0] != shipped[k][-1]
    )


def test_per_batch_ingest_stays_synchronous(workload):
    """``ingest_record_batch``: prepare, ship all, collect all, merge — every
    result merged and nothing in flight when it returns."""
    batches = batch_streams(workload[3])["large"]
    log: list = []
    with recording_engine(workload, 2, log) as engine:
        engine._ensure_started()
        del log[:]
        engine.ingest_record_batch(batches[0])
        kinds = [event[0] for event in log]  # before close() ships its stops
    ships = kinds.count("ship")
    assert kinds == ["prepare"] + ["ship"] * ships + ["collect"] * ships + ["merge"]


# ----------------------------------------------------------------------
# Failures with a round in flight
# ----------------------------------------------------------------------
class TestFailureSemantics:
    def test_iterator_error_surfaces_after_the_round_in_flight_is_merged(
        self, workload
    ):
        batches = batch_streams(workload[3])["large"]

        def failing():
            yield from batches[:3]
            raise OSError("trace file vanished")

        with sharded_engine(workload, 2) as streamed:
            events = watch(streamed)
            with pytest.raises(OSError, match="vanished"):
                streamed.process_batches(failing())
            # Nothing is left on a channel: the next round trips are clean.
            tail = streamed.flush()
            anomalies = streamed.anomalies()
        with sharded_engine(workload, 2) as stepped:
            expected = watch(stepped)
            for batch in batches[:3]:
                stepped.ingest_record_batch(batch)
            seen_before_error = list(expected)
            assert stepped.flush() == tail
            assert stepped.anomalies() == anomalies
        assert seen_before_error and events == expected
        assert events[: len(seen_before_error)] == seen_before_error

    def test_unroutable_batch_surfaces_after_the_round_in_flight_is_merged(
        self, workload
    ):
        batches = batch_streams(workload[3])["large"]
        ghost = RecordBatch.from_records(
            [OperationalRecord(batches[2].timestamps[-1], ("t0",), {"stream": "ghost"})]
        )
        with sharded_engine(workload, 2) as streamed:
            events = watch(streamed)
            with pytest.raises(StreamError, match="ghost"):
                streamed.process_batches(iter([*batches[:3], ghost, *batches[3:]]))
            seen = list(events)
        with sharded_engine(workload, 2) as stepped:
            expected = watch(stepped)
            for batch in batches[:3]:
                stepped.ingest_record_batch(batch)
        assert seen and seen == expected

    @pytest.mark.parametrize("failing", [0, 1])
    def test_worker_error_leaves_no_stale_reply(self, workload, failing):
        """A worker-reported error for round k: round k+1 goes to no further
        worker, what was shipped of it is read and dropped, the error is
        raised, and every later round trip pairs with its own reply."""
        tree, clock, config, records = workload
        in_order = sorted(
            (r for r in records if r.attributes["stream"] == "s"),
            key=lambda r: r.timestamp,
        )
        batches = list(iter_record_batches(in_order, 60))
        strict = (tree, clock, config.replace(out_of_order_policy="raise"), records)
        log: list = []
        with recording_engine(strict, 2, log) as engine:
            layout = engine.sharding_info()["sessions"]["s"]
            top = layout["groups"][layout["workers"].index(failing)][0][0]
            victim = next(r.category for r in in_order if r.category[0] == top)
            late = RecordBatch.from_records(
                [OperationalRecord(0.0, victim, {"stream": "s"})]
            )  # round 4, one row, for the failing worker only
            with pytest.raises(OutOfOrderRecordError):
                engine.process_batches(iter([*batches[:4], late, *batches[4:]]))
            events = label_rounds(log)  # also: every channel is idle again
            assert [e for e in events if e[0] == "ship" and e[2] == 4] == [
                ("ship", failing, 4)
            ]
            # Worker 0 is served first: it had round 5 before worker 1's error
            # was read, and never gets it once its own error has been.
            assert [e for e in events if e[0] == "ship" and e[2] == 5] == (
                [("ship", 0, 5)] if failing == 1 else []
            )
            assert [e for e in events if e[0] == "collect" and e[2] == 5] == (
                [("collect", 0, 5)] if failing == 1 else []
            )
            assert max(e[1] for e in events if e[0] == "merge") == 3
            assert max(e[1] for e in events if e[0] == "prepare") == 5
            assert engine.memory_units() > 0  # a query answered by a query reply
            label_rounds(log)

    @pytest.mark.parametrize(
        "call",
        [
            lambda engine, tmp_path: engine.adaptation_stats(),
            lambda engine, tmp_path: engine.state_dict(),
            lambda engine, tmp_path: engine.save_checkpoint(tmp_path / "x.json"),
            lambda engine, tmp_path: engine.ingest_record_batch(
                RecordBatch.from_records(
                    [OperationalRecord(1e9, ("t0",), {"stream": "w"})]
                )
            ),
        ],
        ids=["adaptation_stats", "state_dict", "save_checkpoint", "ingest"],
    )
    def test_engine_call_from_an_observer_with_a_round_in_flight(
        self, workload, tmp_path, call
    ):
        batches = batch_streams(workload[3])["large"]
        refused: list = []

        def on_closed(session, result):
            if not refused:
                try:
                    call(engine, tmp_path)
                except ShardingError as exc:
                    refused.append(str(exc))
                    raise

        with sharded_engine(workload, 2) as engine:
            engine.subscribe(CallbackObserver(on_timeunit_closed=on_closed))
            with pytest.raises(ShardingError, match="in flight"):
                engine.process_batches(iter(batches))
            assert "round 1" in refused[0] and "ingest_record_batch" in refused[0]
            # The refused call put nothing on a channel, and the round that
            # was in flight has been read: the engine answers as usual.
            stats = engine.transport_stats()
            assert stats["collects"] == stats["ships"]
            engine.flush()
            engine.state_dict()

    def test_worker_error_behind_an_observer_error_reanchors_an_unsplit_session(
        self, workload
    ):
        """An observer raises while round 0 is merged, and the round in
        flight meanwhile raises on the worker at a late row, after the
        coordinator moved the unsplit session's watermark past it.  The
        observer's error surfaces; the session's open timeunit is read back
        from its worker, so the session continues exactly like a serial
        one fed the same batches."""
        tree, clock, config, _ = workload
        config = config.replace(out_of_order_policy="raise")
        leaves = tree.leaf_paths()[:4]

        def batch(*units):
            return RecordBatch.from_records(
                [
                    OperationalRecord(unit * clock.delta + i * 7.0, leaf, {"stream": "w"})
                    for unit in units
                    for i, leaf in enumerate(leaves)
                ]
            )

        batches = [batch(0, 1, 2, 3), batch(4, 5, 2, 9), batch(6, 7)]
        serial = DetectionEngine()
        serial.add_session("w", tree, config, clock=clock)
        serial.ingest_record_batch(batches[0])
        with pytest.raises(OutOfOrderRecordError):
            serial.ingest_record_batch(batches[1])
        serial.ingest_record_batch(batches[2])
        serial.flush()

        def fail_once(session, result):
            if not failed:
                failed.append(result.timeunit)
                raise RuntimeError("hook failed")

        failed: list = []
        with ShardedDetectionEngine(num_workers=1, transport=TRANSPORT) as engine:
            engine.add_session("w", tree, config, clock=clock)
            engine.subscribe(CallbackObserver(on_timeunit_closed=fail_once))
            with pytest.raises(RuntimeError, match="hook failed"):
                engine.process_batches(iter(batches[:2]))
            engine.ingest_record_batch(batches[2])
            engine.flush()
            assert failed == [0]
            assert engine.units_processed() == serial.units_processed()
            assert engine.anomalies() == serial.anomalies()
            assert canonical_state(engine.merged_session_state("w")) == canonical_state(
                serial.sessions["w"].state_dict()
            )

    def test_anomalies_answer_from_an_observer_with_a_round_in_flight(self, workload):
        """Every session's reports are held on the coordinator, so
        ``anomalies()`` needs no round trip: it answers from a hook while a
        streamed round is on the workers."""
        batches = batch_streams(workload[3])["large"]
        answers: list = []

        def on_closed(session, result):
            answers.append(len(engine.anomalies()[session.name]))

        with sharded_engine(workload, 2) as engine:
            engine.subscribe(CallbackObserver(on_timeunit_closed=on_closed))
            engine.process_batches(iter(batches))
            final = engine.anomalies()
        assert answers and max(answers) > 0
        assert max(answers) <= max(len(found) for found in final.values())

    def test_engine_call_from_an_observer_under_per_batch_ingest(self, workload):
        """Synchronous ingest has nothing in flight while hooks fire: the
        same calls go through (``state_dict`` subject to its own
        batch-boundary rule), exactly as before the loop was pipelined."""
        batches = batch_streams(workload[3])["large"]
        answers: list = []

        def on_closed(session, result):
            answers.append(len(engine.anomalies()["w"]))

        with sharded_engine(workload, 2) as engine:
            engine.subscribe(CallbackObserver(on_timeunit_closed=on_closed))
            per_batch(engine, batches)
        assert answers and answers == sorted(answers) and answers[-1] > 0


# ----------------------------------------------------------------------
# Faults through the streamed exchange
# ----------------------------------------------------------------------
def canonical(engine) -> str:
    return json.dumps(
        [canonical_state(engine.merged_session_state(n)) for n in engine.session_names],
        sort_keys=True,
    )


class TestFaults:
    """Workers die inside the exchange; the run must equal an uninterrupted
    one and the recovery counters must read as the op log predicts.

    Worker 0 hosts session ``"w"`` and one group of ``"s"``, worker 1 the
    other group, so worker 0's ship (and collect) ordinals 1-2 are start-up
    ``add`` rounds and ordinal ``n >= 3`` is streamed round ``n - 3``; on
    worker 1 it is round ``n - 2``.  A round goes out to a worker right
    after its reply to the previous one was read, while its peer may still
    be computing.
    """

    BATCH = 120

    @pytest.fixture(scope="class")
    def uninterrupted(self, workload):
        batches = list(iter_record_batches(workload[3], self.BATCH))
        assert len(batches) >= 6
        with sharded_engine(workload, 2, op_timeout=20.0) as engine:
            results = engine.process_batches(iter(batches))
            return batches, results, engine.anomalies(), canonical(engine)

    def run(self, workload, batches, plan=None, streamed=True, **options):
        options.setdefault("op_timeout", 20.0)
        with active(plan) if plan is not None else contextlib.nullcontext():
            with sharded_engine(workload, 2, **options) as engine:
                if streamed:
                    results = engine.process_batches(iter(batches))
                else:
                    results = per_batch(engine, batches)
                return (
                    (results, engine.anomalies(), canonical(engine)),
                    engine.recoveries_total,
                    engine.replayed_batches_total,
                )

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "per-batch"])
    @pytest.mark.parametrize("ordinal", [3, 5, 7])
    def test_kill_between_collect_and_ship(
        self, workload, uninterrupted, ordinal, streamed
    ):
        """Worker 0 is killed as round ``ordinal - 3`` is about to go out to
        it: it is rebuilt from its snapshot plus the rounds it had answered."""
        batches, *expected = uninterrupted
        plan = FaultPlan([FaultSpec("kill_worker", worker=0, op="ship", n=ordinal)], seed=0)
        got, recoveries, replayed = self.run(workload, batches, plan, streamed)
        assert plan.fired
        assert got == tuple(expected)
        assert (recoveries, replayed) == (1, ordinal - 3)

    @pytest.mark.parametrize("worker, ordinal", [(0, 5), (1, 4)])
    def test_kill_while_the_reply_is_awaited(
        self, workload, uninterrupted, worker, ordinal
    ):
        """The reply to round 2 never comes: the dead worker is rebuilt from
        rounds 0-1 and round 2 is shipped to it again."""
        batches, *expected = uninterrupted
        plan = FaultPlan(
            [FaultSpec("kill_worker", worker=worker, op="collect", n=ordinal)], seed=0
        )
        got, recoveries, replayed = self.run(workload, batches, plan)
        assert plan.fired
        assert got == tuple(expected)
        assert (recoveries, replayed) == (1, 2)

    def test_worker_exit_mid_round(self, workload, uninterrupted, monkeypatch):
        """Worker 1 hard-exits while handling its 4th message (round 2), with
        worker 0 already computing the same round."""
        batches, *expected = uninterrupted
        plan = FaultPlan([FaultSpec("worker_exit", worker=1, n=4)], seed=0)
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_env())
        got, recoveries, replayed = self.run(workload, batches, op_timeout=5.0)
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert got == tuple(expected)
        assert (recoveries, replayed) == (1, 2)

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "per-batch"])
    def test_snapshot_refresh_inside_the_exchange(
        self, workload, uninterrupted, streamed
    ):
        """``replay_buffer_ops=2``: each worker's third logged round triggers
        a ``state`` round trip between reading its reply and sending it the
        next command.  Ship ordinals of worker 0: add, add, rounds 0-2,
        state, rounds 3-5, state, ... — the 8th is round 4, sent with only
        round 3 in the log."""
        batches, *expected = uninterrupted
        plan = FaultPlan([FaultSpec("kill_worker", worker=0, op="ship", n=8)], seed=0)
        got, recoveries, replayed = self.run(
            workload, batches, plan, streamed, replay_buffer_ops=2
        )
        assert plan.fired
        assert got == tuple(expected)
        assert (recoveries, replayed) == (1, 1)

    def test_kill_during_the_refresh_itself(self, workload, uninterrupted):
        """The 5th collect of worker 1 is the reply to its first refresh: the
        rebuilt worker replays all three logged rounds, then answers it."""
        batches, *expected = uninterrupted
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, op="collect", n=5)], seed=0)
        got, recoveries, replayed = self.run(
            workload, batches, plan, replay_buffer_ops=2
        )
        assert plan.fired
        assert got == tuple(expected)
        assert (recoveries, replayed) == (1, 3)


# ----------------------------------------------------------------------
# The merge concatenates shard columns
# ----------------------------------------------------------------------
def merge_by_path(timeunit, parts):
    """The per-path merge the column concatenation replaced, kept as the
    oracle: the sorted union of the shards' heavy sets, each path's values
    read from its shard's dicts."""
    actuals, forecasts = {}, {}
    for part in parts:
        actuals.update(part.actuals)
        forecasts.update(part.forecasts)
    paths = sorted(actuals)
    anomalies = tuple(
        sorted((a for part in parts for a in part.anomalies), key=lambda a: a.node_path)
    )
    return TimeunitResult(
        timeunit,
        paths,
        np.array([actuals[path] for path in paths]),
        np.array([forecasts[path] for path in paths]),
        anomalies,
    )


@pytest.mark.parametrize("shards", [2, 3, 4, 5], ids="{}-shards".format)
def test_merge_concatenates_disjoint_shard_columns(shards):
    """Shards own disjoint subtrees and the root is never heavy: each
    reports its own lex-ordered heavy hitters, over a pickle round trip (the
    reply), and the merge equals the per-path union, views in lex order —
    whether or not the groups' paths interleave."""
    rng = random.Random(10 + shards)
    unit = make_unit(shards)
    nodes = sorted(
        {
            tuple(leaf[:d])
            for leaf in unit.base_state["tree"]["leaves"]
            for d in range(1, len(leaf) + 1)
        }
    )
    owner = {path: unit.partition.route(path) for path in nodes}
    interleaved = False
    for timeunit in range(40):
        reported: list[list] = [[] for _ in range(unit.num_groups)]
        for path in nodes:
            if rng.random() < 0.5:
                reported[owner[path]].append(path)
        parts = []
        for paths in reported:
            values = np.array([rng.random() * 100 for _ in paths])
            anomalies = tuple(
                Anomaly(path, timeunit, value, value / 2, len(path))
                for path, value in zip(paths, values.tolist())
                if rng.random() < 0.2
            )
            part = TimeunitResult(timeunit, paths, values, values / 2, anomalies)
            parts.append(pickle.loads(pickle.dumps(part)))
        runs = [paths for paths in reported if paths]
        interleaved |= any(a[-1] > b[0] for a, b in zip(runs, runs[1:]))
        merged = ShardedDetectionEngine._merge_unit_results(timeunit, parts)
        expected = merge_by_path(timeunit, parts)
        assert merged == expected and expected == merged
        assert list(merged.actuals) == sorted(merged.heavy_hitters)
        assert list(merged.forecasts.items()) == list(expected.forecasts.items())
    groups = unit.partition.groups
    # The reordering branch ran wherever the layout lets paths interleave
    # (not at 4 shards: solo+t0, t1, t2, t3 are already in lex order).
    assert interleaved == any(max(a) > min(b) for a, b in zip(groups, groups[1:]))
