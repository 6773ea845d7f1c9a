"""A batch closes its timeunits together — and nobody can tell.

``DetectionSession._ingest_batch_dense`` builds one count matrix for every
timeunit a batch closes and has the algorithm sweep it once; the units then
close in order from their rows; a unit no run of the batch lands in closes
from a one-row sweep, so every close is a swept row's.  The contract:
results, the observer event sequence and ``save_checkpoint`` bytes equal
record-by-record ingestion of the same records — for a batch that closes no,
one or many units, late runs under every out-of-order policy (``raise``
included: the exception leaves the session where the records before the late
one put it), an open unit carried in from the previous batch, categories the
tree does not know and a shadow session attached — for batches built from
tuples and batches built the way a reader builds them, with ADA and with STA:
both take the dense close, through the hierarchy front end they share.

``TestHeldRows`` follows the open timeunit, held as the node ids of its
records until the unit closes: the state between any two batches (cuts of
every shape, quarter-unit cuts that never close a unit of their own runs
included), a restore from it, pickling, and a code buffer overwritten after
ingest.

The last part pins the bug the count matrix fixes: two dictionary codes
naming one path used to overwrite each other's counts.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine import session as session_module
from repro.engine.hooks import CallbackObserver
from repro.engine.session import DetectionSession
from repro.exceptions import OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import ColumnAccumulator, RecordBatch
from repro.streaming.record import OperationalRecord
from tests.conftest import canonical_checkpoint

#: Both close batches densely; only ADA reports ``close_profile()``.
ALGORITHMS = ("ada", "sta")
DELTA = 10.0

LEAVES = [
    ("a", "a1"),
    ("a", "a2"),
    ("b", "b1", "x"),
    ("b", "b1", "y"),
    ("b", "b2"),
    ("c",),
]
#: What a record may be classified to: the leaves, an interior node and two
#: paths the tree does not know.
CATEGORIES = LEAVES + [("b", "b1"), ("zz", "nowhere"), ("a", "a9")]


def make_tree() -> HierarchyTree:
    return HierarchyTree(LEAVES)


def make_config(policy: str = "drop", **overrides) -> TiresiasConfig:
    defaults = dict(
        theta=3.0,
        ratio_threshold=1.5,
        difference_threshold=1.0,
        delta_seconds=DELTA,
        window_units=8,
        reference_levels=1,
        track_root=False,
        allow_root_heavy=False,
        out_of_order_policy=policy,
        forecast=ForecastConfig(season_lengths=(2,), fallback_alpha=0.4),
    )
    defaults.update(overrides)
    return TiresiasConfig(**defaults)


def records_of(stream) -> list[OperationalRecord]:
    """``[(timestamp, category index), ...]`` as records."""
    return [OperationalRecord.create(float(ts), CATEGORIES[c]) for ts, c in stream]


def cut_batches(records, cuts, built: str = "tuples") -> list[RecordBatch]:
    """``records`` cut at the row numbers ``cuts``: each batch ``built`` from
    its own ``"tuples"`` (a dictionary per batch), or all of them by one
    accumulator, as a ``"reader"`` does (one cumulative dictionary)."""
    bounds = [0, *sorted(set(cuts)), len(records)]
    spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    if built == "tuples":
        return [RecordBatch.from_records(records[a:b]) for a, b in spans]
    accumulator = ColumnAccumulator()
    batches = []
    for a, b in spans:
        for record in records[a:b]:
            accumulator.add_record(record)
        batches.append(accumulator.flush())
    return batches


class Run:
    """One session fed one way, with everything the contract compares."""

    def __init__(
        self, policy="drop", shadow=False, warmup_units=2, algorithm="ada", **config
    ):
        self.session = DetectionSession(
            make_tree(),
            make_config(policy, **config),
            algorithm=algorithm,
            warmup_units=warmup_units,
        )
        self.events: list[tuple] = []
        self.session.subscribe(
            CallbackObserver(
                on_timeunit_closed=lambda _s, r: self.events.append(
                    ("closed", r.timeunit, self.session._pending_unit)
                ),
                on_anomaly=lambda _s, a: self.events.append(
                    ("anomaly", a.timeunit, a.node_path)
                ),
                on_warmup_complete=lambda _s, unit: self.events.append(("warm", unit)),
                on_shadow_divergence=lambda _p, _s, unit, a, b: self.events.append(
                    ("diverged", unit, len(a), len(b))
                ),
            )
        )
        if shadow:
            self.session.start_shadow(make_config(policy, theta=2.0, **config))
        self.results: list = []
        self.error: "Exception | None" = None

    def feed(self, calls) -> "Run":
        try:
            for call in calls:
                self.results += call(self.session)
            self.results += self.session.flush()
        except OutOfOrderRecordError as exc:
            self.error = exc
        return self

    def outcome(self, tmp_path, name: str) -> dict:
        path = tmp_path / f"{name}.ckpt.json"
        self.session.save_checkpoint(path)
        return {
            # A call that raises returns nothing: what it closed first is in
            # the events and the checkpoint.
            "results": self.results if self.error is None else None,
            # The shadow mirrors an ingest call after the primary finished
            # it, so divergences interleave per call, not per unit.
            "events": [e for e in self.events if e[0] != "diverged"],
            "divergences": [e for e in self.events if e[0] == "diverged"],
            "error": None if self.error is None else str(self.error),
            "checkpoint": canonical_checkpoint(
                json.loads(path.read_text(encoding="utf-8")), row_sorted=True
            ),
            "shadow": self.session.shadow_report() if self.session.has_shadow else None,
        }


def by_record(records, **options) -> Run:
    return Run(**options).feed(
        [lambda s, r=r: s.ingest_record(r) for r in records]
    )


def by_batch(records, cuts, built: str = "tuples", **options) -> Run:
    return Run(**options).feed(
        [
            lambda s, b=b: s.ingest_record_batch(b)
            for b in cut_batches(records, cuts, built)
        ]
    )


def assert_batches_equal_records(
    tmp_path, stream, cuts, built: str = "tuples", **options
) -> Run:
    records = records_of(stream)
    reference = by_record(records, **options)
    batched = by_batch(records, cuts, built, **options)
    assert batched.outcome(tmp_path, "batched") == reference.outcome(tmp_path, "reference")
    # Where a ``raise`` left the two sessions (equal too when nothing raised).
    assert batched.session.results == reference.session.results
    assert open_unit(batched.session) == open_unit(reference.session)
    assert batched.session._pending_unit == reference.session._pending_unit
    return batched


@pytest.fixture(params=ALGORITHMS)
def algorithm(request):
    return request.param


def dense_units(session) -> int:
    return session.close_profile().get("dense_close_units", 0)


def open_unit(session) -> list:
    """The open timeunit's ``[path, count]`` rows, as checkpointed."""
    return session.state_dict()["pending"]


def assert_every_close_swept(session, algorithm) -> None:
    """ADA counts each unit closed from a swept row: that is every unit."""
    swept = session.units_processed if algorithm == "ada" else 0
    assert dense_units(session) == swept


#: Units 0..6 busy (1 is a gap), interior and unknown categories included.
BUSY = [
    (1, 0), (2, 0), (3, 0), (4, 1), (5, 6),           # unit 0
    (21, 2), (22, 2), (23, 2), (24, 3), (25, 5),      # unit 2
    (31, 0), (32, 0), (33, 0), (34, 0), (35, 7),      # unit 3
    (41, 4), (42, 4), (43, 4), (44, 6), (45, 2),      # unit 4
    (51, 0), (52, 1), (53, 1), (54, 1), (55, 5),      # unit 5
    (61, 2), (62, 3), (63, 3), (64, 3), (65, 0),      # unit 6
]


class TestBatchEqualsRecords:
    @pytest.mark.parametrize(
        "cuts",
        [
            [],                     # one batch closes every unit
            [3],                    # the first batch closes nothing
            [5, 10],                # cuts on unit boundaries: one unit, then many
            [7, 13, 22],            # an open unit carried into the next batch
            list(range(1, 30)),     # one record per batch
        ],
        ids=["whole", "none-then-many", "on-boundaries", "mid-unit", "single-rows"],
    )
    def test_closing_no_one_and_many_units(self, algorithm, tmp_path, cuts):
        """Every unit closes from a swept row: from a batch's matrix when a
        run of that batch lands in it, from a one-row sweep otherwise (the
        gap unit 1, the flushed unit 6, a unit whose records all arrived in
        earlier batches)."""
        batched = assert_batches_equal_records(
            tmp_path, BUSY, cuts, algorithm=algorithm
        )
        assert batched.session.units_processed == 7
        assert_every_close_swept(batched.session, algorithm)

    @pytest.mark.parametrize("policy", ["drop", "clamp", "raise"])
    @pytest.mark.parametrize("cuts", [[], [9], [4, 12, 17]], ids=["whole", "two", "four"])
    def test_late_runs_under_every_policy(self, algorithm, tmp_path, policy, cuts):
        stream = list(BUSY)
        # Late runs: inside a batch, first in a batch (cut 12) and last (cut 17).
        stream[11:11] = [(2, 1), (3, 1)]
        stream[12:12] = [(26, 0)]
        stream[16:16] = [(12, 4), (28, 4), (36, 0)]
        batched = assert_batches_equal_records(
            tmp_path, stream, cuts, policy=policy, algorithm=algorithm
        )
        assert (batched.error is not None) == (policy == "raise")

    @pytest.mark.parametrize("built", ["tuples", "reader"])
    @pytest.mark.parametrize(
        "cuts",
        [[9], [9, 19], [19], [10, 15, 19]],
        ids=["middle", "head", "head-of-the-second", "head-after-boundary-cuts"],
    )
    def test_raise_closes_what_came_before_the_late_run(
        self, algorithm, tmp_path, built, cuts
    ):
        """A late run in the middle of a batch and at the head of one: the
        runs before it are ingested (densely, by ADA) and the error is the
        one record-by-record ingestion raises, in the same state."""
        stream = list(BUSY)
        stream[19:19] = [(12, 4), (13, 4)]  # unit 1 while unit 4 is open
        batched = assert_batches_equal_records(
            tmp_path, stream, cuts, built, policy="raise", algorithm=algorithm
        )
        assert isinstance(batched.error, OutOfOrderRecordError)
        assert (batched.error.timestamp, batched.error.window_start) == (12.0, 40.0)
        assert batched.session.units_processed == 4  # units 0..3; 4 stays open
        assert open_unit(batched.session) == [
            [list(CATEGORIES[4]), 3],
            [list(CATEGORIES[6]), 1],
        ]
        assert_every_close_swept(batched.session, algorithm)

    def test_a_batch_built_from_tuples_closes_densely(self, algorithm):
        stamps = [float(ts) for ts, _ in BUSY]
        categories = [CATEGORIES[c] for _, c in BUSY]
        session = Run(algorithm=algorithm).session
        session.ingest_record_batch(RecordBatch(stamps, categories))
        assert session.units_processed == 6
        assert_every_close_swept(session, algorithm)

    @pytest.mark.parametrize("policy", ["drop", "clamp"])
    def test_a_batch_of_nothing_but_late_runs(self, algorithm, tmp_path, policy):
        stream = BUSY[:20] + [(2, 1), (3, 1), (26, 0), (27, 7)] + BUSY[20:]
        assert_batches_equal_records(
            tmp_path, stream, [20, 24], policy=policy, algorithm=algorithm
        )

    def test_a_gap_wider_than_any_matrix_closes_unit_by_unit(self, algorithm, tmp_path):
        stream = BUSY[:10] + [(ts + 4000, c) for ts, c in BUSY[10:]]
        batched = assert_batches_equal_records(tmp_path, stream, [13], algorithm=algorithm)
        assert batched.session.units_processed == 407

    def test_with_a_shadow_session_attached(self, algorithm, tmp_path):
        batched = assert_batches_equal_records(
            tmp_path, BUSY, [7, 22], shadow=True, algorithm=algorithm
        )
        assert batched.session.shadow.units_processed == batched.session.units_processed
        if algorithm == "ada":  # STA's detections do not move with theta here
            assert batched.outcome(tmp_path, "again")["divergences"]

    def test_masks_apply_to_every_row(self, algorithm, tmp_path):
        for masks in (
            dict(track_root=True, allow_root_heavy=True),
            dict(track_root=False, allow_root_heavy=False),
        ):
            assert_batches_equal_records(tmp_path, BUSY, [7], algorithm=algorithm, **masks)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0, 0, 0, 1, 4, 11, 25, -3, -14]),
                st.integers(min_value=0, max_value=len(CATEGORIES) - 1),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=40,
        ),
        cuts=st.lists(st.integers(min_value=1, max_value=120), max_size=6),
        policy=st.sampled_from(["drop", "clamp", "raise"]),
        built=st.sampled_from(["tuples", "reader"]),
    )
    def test_random_streams(self, tmp_path_factory, steps, cuts, policy, built):
        """Random arrival order (late runs included), categories and cuts."""
        now, stream = 5.0, []
        for advance, category, repeat in steps:
            now = max(0.0, now + advance)
            stream += [(now, category)] * repeat
        tmp_path = tmp_path_factory.mktemp("random")
        for algorithm in ALGORITHMS:
            assert_batches_equal_records(
                tmp_path, stream, cuts, built, policy=policy, algorithm=algorithm
            )


def test_a_close_reads_no_environment_variable(monkeypatch):
    """Nothing is resolved per close: with every read of ``os.environ``
    raising, a session built beforehand still closes a coded batch stream."""
    session = Run().session
    batches = cut_batches(records_of(BUSY), [7, 13, 22], "reader")

    def refuse(environ, key):
        raise AssertionError(f"os.environ[{key!r}] was read during a close")

    with monkeypatch.context() as patcher:
        # ``os.environ.get`` and ``in`` are Mapping mixins over ``[]``.
        patcher.setattr(type(os.environ), "__getitem__", refuse)
        results = session.process_batches(iter(batches))
    assert [result.timeunit for result in results] == list(range(7))
    assert session.close_profile()["dense_close_units"] == 7


class TestMatrixBound:
    def test_a_batch_over_the_cell_budget_is_ingested_in_halves(
        self, tmp_path, monkeypatch
    ):
        records = records_of(BUSY)
        reference = by_record(records).outcome(tmp_path, "reference")
        width = Run().session.algorithm.num_node_ids
        swept_rows = []
        for budget in (width, 2 * width, 3 * width, 1 << 20):
            monkeypatch.setattr(session_module, "_DENSE_MATRIX_CELLS", budget)
            run = Run()
            sweep = run.session.algorithm.sweep_timeunits
            rows: list[int] = []

            def recording_sweep(counts, sweep=sweep, rows=rows):
                rows.append(len(counts))
                return sweep(counts)

            run.session.algorithm.sweep_timeunits = recording_sweep
            run.feed([lambda s: s.ingest_record_batch(cut_batches(records, [])[0])])
            assert run.outcome(tmp_path, "bounded") == reference
            assert max(rows) * width <= max(budget, width)
            swept_rows.append(rows)
        # One-row sweeps are single closes (the gap unit, the flush, a half
        # that closes one unit).
        assert [max(rows) for rows in swept_rows] == [1, 2, 2, 5]


# ----------------------------------------------------------------------
# The open timeunit, carried to the batch that closes it
# ----------------------------------------------------------------------
def open_records(state) -> int:
    """Records of the open timeunit in a state (those the tree knows)."""
    return sum(count for _, count in state["pending"])


def attempt(call):
    try:
        return call(), None
    except OutOfOrderRecordError as exc:
        return None, str(exc)


def lockstep(stream, cuts, built, policy="drop", overwrite=False) -> list[int]:
    """Feed the batches of ``stream`` to one session and, beside them, the
    same records one by one to another: after every batch the state bytes
    are equal, and a session restored from them finishes the stream with
    the results a third session whose state is never read produces.
    ``overwrite``: scribble over every batch's code column once it is
    ingested, as a reused transport buffer would.  Returns the open unit's
    record count after each batch."""
    records = records_of(stream)
    batches = cut_batches(records, cuts, built)

    def session():
        return DetectionSession(make_tree(), make_config(policy), warmup_units=2)

    read, by_record, unread = session(), session(), session()
    held, states, closed = [], [], []
    fed = 0
    for batch in batches:
        rows, fed = records[fed : fed + len(batch)], fed + len(batch)
        results, error = attempt(lambda: unread.ingest_record_batch(batch))
        assert attempt(lambda: read.ingest_record_batch(batch)) == (results, error)
        expected = attempt(
            lambda: [r for record in rows for r in by_record.ingest_record(record)]
        )
        assert (results, error) == expected
        if overwrite:
            batch.category_codes[:] = len(batch.code_dictionary)
        state = read.state_dict()
        assert canonical_checkpoint(state) == canonical_checkpoint(by_record.state_dict())
        held.append(open_records(state))
        if error is not None:
            return held
        states.append(state)
        closed.append(results)
    closed.append(unread.flush())
    assert closed[-1] == by_record.flush()
    assert canonical_checkpoint(unread.state_dict()) == canonical_checkpoint(
        by_record.state_dict()
    )
    for index, state in enumerate(states):
        restored = DetectionSession.from_state_dict(state)
        finished = []
        for batch in cut_batches(records, cuts, built)[index + 1 :]:
            finished += restored.ingest_record_batch(batch)
        finished += restored.flush()
        assert finished == [r for results in closed[index + 1 :] for r in results]
    return held


@pytest.mark.parametrize("built", ["tuples", "reader"])
class TestHeldRows:
    """The open unit is the node ids of its records, in arrival order; its
    checkpoint rows are what record-by-record ingestion writes."""

    @pytest.mark.parametrize(
        "cuts", [[7, 13, 22], [3, 6, 8, 14], list(range(2, 30, 3))]
    )
    def test_state_between_batches(self, built, cuts):
        held = lockstep(BUSY, cuts, built)
        assert any(held)

    def test_a_batch_wholly_inside_the_held_unit(self, built):
        # Rows 6-7 are unit 2 only: the batch closes nothing and adds its
        # two records to the one the batch before it left open.
        held = lockstep(BUSY, [6, 8, 13], built)
        assert held[:3] == [1, 3, 3]
        run = by_batch(records_of(BUSY), [6, 8, 13], built)
        assert run.session.close_profile()["dense_close_units"] == 7

    def test_quarter_unit_cuts_close_every_unit_from_a_swept_row(self, built):
        """Cut as a paced feed cuts: no batch closes a unit one of its own
        runs landed in, so each close counts only the held ids (unit 3 is
        a gap and has none)."""
        stream = [
            (0.7 * i, i % len(CATEGORIES))
            for i in range(100)
            if not 30 <= 0.7 * i < 40
        ]
        quarters = [int(ts // (DELTA / 4)) for ts, _ in stream]
        cuts = [i for i in range(1, len(stream)) if quarters[i] != quarters[i - 1]]
        assert any(lockstep(stream, cuts, built))
        run = by_batch(records_of(stream), cuts, built)
        profile = run.session.close_profile()
        assert run.session.units_processed == 7
        assert profile["dense_close_units"] == profile["fused_units"] == 7

    @pytest.mark.parametrize("policy", ["drop", "clamp"])
    def test_late_runs_into_the_held_unit(self, built, tmp_path, policy):
        # Unit 2 is open after the first batch; the second opens with a run
        # of unit 0 and has one of unit 1 after unit 3 began.
        stream = BUSY[:7] + [(3, 1)] + BUSY[7:12] + [(13, 4)] + BUSY[12:]
        held = lockstep(stream, [7, 14, 20], built, policy)
        assert held[:2] == [2, 2 if policy == "drop" else 3]
        assert_batches_equal_records(tmp_path, stream, [7, 14, 20], built, policy=policy)

    def test_raise_whose_prefix_leaves_rows_held(self, built):
        # The late run comes after two rows of unit 3: the prefix closes
        # unit 2 (its held ids in row 0) and holds those two.
        stream = BUSY[:12] + [(13, 4)] + BUSY[12:]
        assert lockstep(stream, [7, 13], built, "raise") == [2, 2]

    def test_codes_outside_the_tree_in_held_rows(self, built):
        # Unit 1 opens with two records the tree does not know, unit 2 with
        # one: they count nowhere and the state leaves them out.
        stream = [(1, 0), (2, 1), (11, 7), (12, 8), (13, 6), (14, 7), (15, 0),
                  (21, 8), (22, 2)]
        assert lockstep(stream, [4, 8], built) == [0, 0, 1]

    def test_an_overwritten_code_column_changes_nothing(self, built):
        """A shm transport reuses the buffer a batch's codes live in: the
        open unit must hold new arrays, not views."""
        assert any(lockstep(BUSY, [7, 13, 22], built, overwrite=True))

    def test_a_unit_over_thirty_batches_holds_every_record(self, built, tmp_path):
        # Unit 0 fills thirty batches of 100 rows; unit 1 a last one of 5.
        stream = [(i * 0.003, i % 7) for i in range(3000)]
        stream += [(10 + i, i % 6) for i in range(5)]
        cuts = list(range(100, 3001, 100))
        session = DetectionSession(make_tree(), make_config(), warmup_units=2)
        held = []
        for batch in cut_batches(records_of(stream), cuts, built):
            session.ingest_record_batch(batch)
            held.append(open_records(session.state_dict()))
        assert held == [100 * k for k in range(1, 31)] + [5]
        assert open_unit(session) == [[list(LEAVES[i]), 1] for i in range(5)]
        assert_batches_equal_records(tmp_path, stream, cuts, built)

    def test_pickle_and_deep_copy_carry_the_open_unit(self, built):
        records = records_of(BUSY)
        batches = cut_batches(records, [7, 13, 22], built)
        reference = DetectionSession(make_tree(), make_config(), warmup_units=2)
        for record in records[:13]:
            reference.ingest_record(record)
        for snapshot in (lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy):
            session = DetectionSession(make_tree(), make_config(), warmup_units=2)
            for batch in batches[:2]:
                session.ingest_record_batch(batch)
            clone = snapshot(session)
            assert open_unit(clone) == open_unit(session) == open_unit(reference)
            assert open_records(clone.state_dict()) == 3
            assert [clone.ingest_record_batch(b) for b in batches[2:]] == [
                session.ingest_record_batch(b) for b in batches[2:]
            ]
            assert clone.flush() == session.flush()


def test_a_unit_fed_one_record_at_a_time_holds_its_ids_compactly():
    """Each one-record batch is a one-id array; small arrays merge, so the
    open unit holds about 8 bytes a record, not an array object (~110 bytes)
    per record."""
    records = records_of([(i * 0.002, i % 6) for i in range(4096)])
    session = DetectionSession(make_tree(), make_config(), warmup_units=2)
    session.ingest_record(records[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for record in records[1:]:
            session.ingest_record(record)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert open_records(session.state_dict()) == len(records)
    assert grown < 24 * len(records)


# ----------------------------------------------------------------------
# Two dictionary codes, one path
# ----------------------------------------------------------------------
REPEATED_DICTIONARY = [("a", "a1"), ("a", "a1"), ("b", "b2")]
#: (timestamp, code): unit 0 holds four ("a", "a1") records under two codes,
#: unit 1 three, unit 2 stays open.
REPEATED_ROWS = [
    (1, 0), (2, 1), (3, 0), (4, 1), (5, 2),
    (11, 0), (12, 1), (13, 0), (14, 2),
    (21, 0),
]


def repeated_dictionary_batch() -> RecordBatch:
    timestamps = [float(ts) for ts, _ in REPEATED_ROWS]
    codes = [code for _, code in REPEATED_ROWS]
    return RecordBatch.from_dictionary_codes(timestamps, codes, REPEATED_DICTIONARY)


def same_records_from_columns() -> RecordBatch:
    return RecordBatch.from_columns(
        [float(ts) for ts, _ in REPEATED_ROWS],
        [REPEATED_DICTIONARY[code] for _, code in REPEATED_ROWS],
    )


def session_outcome(batches, algorithm="ada") -> tuple:
    session = DetectionSession(
        make_tree(), make_config(), algorithm=algorithm, warmup_units=0
    )
    results = []
    for batch in batches:
        results += session.ingest_record_batch(batch)
    state = canonical_checkpoint(session.state_dict(), row_sorted=True)
    return results + session.flush(), state


class TestRepeatedDictionaryEntry:
    def test_serial_session_counts_every_code_of_a_path(self, algorithm):
        results, state = session_outcome([repeated_dictionary_batch()], algorithm)
        assert results[0].actuals[("a", "a1")] == 4.0
        assert results[1].actuals[("a", "a1")] == 3.0  # theta: either code alone is not
        assert (results, state) == session_outcome([same_records_from_columns()], algorithm)

    def test_rcol_file_with_a_repeated_dictionary_entry(self, algorithm, tmp_path):
        from repro.io.columnar import read_batches_columnar, write_trace_columnar

        distinct = [("a", "a1"), ("a", "a2"), ("b", "b2")]
        path = tmp_path / "repeated.rcol"
        write_trace_columnar(
            [OperationalRecord.create(float(ts), distinct[code]) for ts, code in REPEATED_ROWS],
            path,
        )
        # Nothing refuses a repeated entry; the writer just never emits one.
        # Same length, so every offset in the header stays right.
        blob = path.read_bytes()
        assert blob.count(b'["a", "a2"]') == 1
        path.write_bytes(blob.replace(b'["a", "a2"]', b'["a", "a1"]'))
        for batch_size in (4, 64):
            batches = list(read_batches_columnar(path, batch_size))
            assert batches[0].code_dictionary == REPEATED_DICTIONARY
            assert session_outcome(batches, algorithm) == session_outcome(
                [same_records_from_columns()], algorithm
            )

    def test_subtree_sharded_engine(self):
        from repro.engine.engine import DetectionEngine
        from repro.engine.sharded import ShardedDetectionEngine

        def run(engine, batch, **session_options):
            engine.add_session("s", make_tree(), make_config(), **session_options)
            results = engine.ingest_record_batch(batch)["s"] + engine.flush()["s"]
            return results, [a.to_dict() for a in engine.anomalies()["s"]]

        want = run(DetectionEngine(), same_records_from_columns())
        assert want[0][0].actuals[("a", "a1")] == 4.0
        with ShardedDetectionEngine(num_workers=2) as engine:
            assert run(engine, repeated_dictionary_batch(), subtree_shards=2) == want
