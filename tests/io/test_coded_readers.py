"""Coded at the edge ≡ tuples.

Every trace reader — CSV, the JSONL file reader, :class:`NdjsonDecoder` fed a
whole body or 64 KiB blocks, routed or not — emits dictionary-coded batches:
one ``int32`` code per record into a cumulative first-appearance dictionary.
The first half holds the readers to that representation (what decodes out of
the codes is what ``RecordBatch.from_columns`` of the same rows holds, and a
dictionary a batch was given never grows afterwards); the second half holds
the sessions to it: results, the observer event sequence and
``save_checkpoint`` bytes of reader-born batches (one cumulative dictionary)
equal those of hand-built batches of the same records cut at the same rows
(``RecordBatch.from_columns``: a fresh dictionary per batch), whether the
session's forecaster is chosen automatically or named.

The last part is the hostile edge: a stream of pairwise-distinct categories
must cost a bounded dictionary and linear time.
"""

from __future__ import annotations

import json
import random
import socket
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.hooks import CallbackObserver
from repro.engine.session import DetectionSession
from repro.exceptions import OutOfOrderRecordError, StreamError
from repro.hierarchy.tree import HierarchyTree
from repro.io.csv_io import read_batches_csv, write_records_csv
from repro.io.jsonl_io import (
    READ_BLOCK_BYTES,
    NdjsonDecoder,
    read_batches_jsonl,
    write_records_jsonl,
)
from repro.service import DetectionService, ServiceConfig, TenantSpec
from repro.streaming.batch import CODEBOOK_BATCHES, ColumnAccumulator, RecordBatch
from repro.streaming.record import OperationalRecord
from tests.conftest import canonical_checkpoint


def ndjson(rows, tenants=None) -> bytes:
    """``[(timestamp, category, attributes), ...]`` as an NDJSON body;
    ``tenants[i]`` (when not None) tags row ``i``."""
    lines = []
    for i, (timestamp, category, attributes) in enumerate(rows):
        record = {"timestamp": timestamp, "category": list(category)}
        if attributes:
            record["attributes"] = attributes
        if tenants is not None and tenants[i] is not None:
            record["tenant"] = tenants[i]
        lines.append(json.dumps(record).encode() + b"\n")
    return b"".join(lines)


def feed_blocks(decoder: NdjsonDecoder, body: bytes, block: int):
    out = []
    for start in range(0, len(body), block):
        out += decoder.feed(body[start : start + block])
    return out + decoder.feed(b"", final=True)


def tuple_batches(rows, lengths) -> list[RecordBatch]:
    """``rows`` as batches of the given lengths, each built from tuples."""
    out, start = [], 0
    for length in lengths:
        stamps, categories, attributes = zip(*rows[start : start + length])
        out.append(
            RecordBatch.from_columns(
                stamps, categories, list(attributes) if any(attributes) else None
            )
        )
        start += length
    assert start == len(rows)
    return out


# ----------------------------------------------------------------------
# The readers
# ----------------------------------------------------------------------
BATCH = 256


def reader_rows(count: int = 3000):
    """Time-ordered rows over a pool of 40 paths that opens up gradually (the
    dictionary keeps growing for the first batches, then saturates), one row
    in seven with attributes."""
    rng = random.Random(20)
    pool = [(f"r{i % 5}", f"s{i % 8}", f"leaf{i}") for i in range(40)]
    rows = []
    for i in range(count):
        category = pool[rng.randrange(min(len(pool), 3 + i // 40))]
        attributes = {"n": i, "who": f"c{i % 11}"} if i % 7 == 0 else {}
        rows.append((float(i) / 4.0, category, attributes))
    return rows


def first_appearance(categories) -> list:
    return list(dict.fromkeys(categories))


def assert_coded_equals_rows(batches, rows):
    """``batches`` — one accumulator's flushes, in order — hold ``rows``."""
    assert sum(len(batch) for batch in batches) == len(rows)
    expected = tuple_batches(rows, [len(batch) for batch in batches])
    seen: list = []
    dictionaries: list = []
    previous = None
    for batch, reference in zip(batches, expected):
        assert batch.category_codes.dtype == np.int32
        assert batch.categories == reference.categories
        assert list(batch.timestamps) == list(reference.timestamps)
        assert batch.attributes == reference.attributes
        seen += reference.categories
        assert batch.code_dictionary == first_appearance(seen)
        if previous is not None and len(previous) == len(batch.code_dictionary):
            # Nothing new appeared: the same object, so caches keyed by
            # dictionary identity keep hitting.
            assert batch.code_dictionary is previous
        previous = batch.code_dictionary
        dictionaries.append((previous, len(previous)))
    # Copy-on-write: no dictionary grew after the batch that carried it.
    assert all(len(dictionary) == length for dictionary, length in dictionaries)
    assert len(dictionaries[-1][0]) > len(dictionaries[0][0])


class TestReadersEmitCodedBatches:
    def test_csv(self, tmp_path):
        rows = [(ts, category, {}) for ts, category, _ in reader_rows()]
        path = tmp_path / "trace.csv"
        write_records_csv(
            [OperationalRecord.create(ts, category) for ts, category, _ in rows], path
        )
        batches = []
        for batch in read_batches_csv(path, BATCH):  # checked while it streams
            batches.append(batch)
        assert_coded_equals_rows(batches, rows)

    def test_jsonl_file(self, tmp_path):
        rows = reader_rows()
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(
            [OperationalRecord.create(ts, category, **attrs) for ts, category, attrs in rows],
            path,
        )
        assert_coded_equals_rows(list(read_batches_jsonl(path, BATCH)), rows)

    @pytest.mark.parametrize("block", [None, READ_BLOCK_BYTES], ids=["whole", "64KiB"])
    def test_decoder_unrouted(self, block):
        rows = reader_rows()
        body = ndjson(rows)
        assert len(body) > 2 * READ_BLOCK_BYTES
        decoder = NdjsonDecoder(BATCH, default_tenant="alpha")
        fed = (
            decoder.feed(body, final=True)
            if block is None
            else feed_blocks(decoder, body, block)
        )
        assert {tenant for tenant, _ in fed} == {"alpha"}
        assert_coded_equals_rows([batch for _, batch in fed], rows)

    @pytest.mark.parametrize("block", [None, READ_BLOCK_BYTES], ids=["whole", "64KiB"])
    def test_decoder_routed(self, block):
        """Two tenants interleaved in one body: one codebook per tenant."""
        rows = reader_rows()
        tenants = [("beta" if i % 3 == 0 else None) for i in range(len(rows))]
        body = ndjson(rows, tenants)
        decoder = NdjsonDecoder(
            BATCH, default_tenant="alpha", is_known_tenant={"alpha", "beta"}.__contains__
        )
        fed = (
            decoder.feed(body, final=True)
            if block is None
            else feed_blocks(decoder, body, block)
        )
        for name in ("alpha", "beta"):
            own = [row for row, tag in zip(rows, tenants) if (tag or "alpha") == name]
            assert_coded_equals_rows([b for tenant, b in fed if tenant == name], own)

    def test_a_refused_row_leaves_the_codebook_untouched(self):
        acc = ColumnAccumulator()
        acc.add_trace_row(1.0, ["a"])
        for timestamp, labels in [(float("nan"), ["b"]), ("x", ["c"]), (2.0, [["d"]])]:
            with pytest.raises(StreamError):
                acc.add_trace_row(timestamp, labels)
        acc.add_trace_row(3.0, ["e"])
        batch = acc.flush()
        assert batch.code_dictionary == [("a",), ("e",)]
        assert batch.categories == [("a",), ("e",)]


# ----------------------------------------------------------------------
# The sessions
# ----------------------------------------------------------------------
DELTA = 10.0
LEAVES = [("a", "a1"), ("a", "a2"), ("b", "b1", "x"), ("b", "b1", "y"), ("b", "b2"), ("c",)]
#: The leaves, an interior node and two paths the tree does not know.
CATEGORIES = LEAVES + [("b", "b1"), ("zz", "nowhere"), ("a", "a9")]
#: The forecaster picked by the config, and the same built-in model by name.
MODELS = ("auto", "holt-winters")


def session_rows(late: bool = True):
    """Sixteen busy timeunits over every category; with ``late``, three runs
    that arrive after their timeunit closed."""
    rng = random.Random(5)
    rows = []
    for unit in range(16):
        favourite = CATEGORIES[unit % 3]
        for k in range(14 if unit != 9 else 40):
            category = favourite if k % 2 else rng.choice(CATEGORIES)
            rows.append((unit * DELTA + 0.5 * k, category, {}))
    if late:
        rows[70:70] = [(12.0, LEAVES[1], {}), (13.0, LEAVES[1], {})]
        rows[120:120] = [(31.0, LEAVES[0], {})]
        rows[180:180] = [(5.0, CATEGORIES[7], {}), (95.0, LEAVES[4], {}), (96.0, LEAVES[4], {})]
    return rows


def make_config(policy: str, model: str = "auto", **overrides) -> TiresiasConfig:
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
        forecast=ForecastConfig(season_lengths=(2,), fallback_alpha=0.4, model=model),
    )
    defaults.update(overrides)
    return TiresiasConfig(**defaults)


def outcome(batches, tmp_path, policy="drop", shadow=False, model="auto") -> dict:
    """Everything the contract compares, for one session fed ``batches``."""
    session = DetectionSession(
        HierarchyTree.from_leaf_paths(LEAVES), make_config(policy, model), warmup_units=2
    )
    events: list[tuple] = []
    session.subscribe(
        CallbackObserver(
            on_timeunit_closed=lambda s, r: events.append(
                ("closed", r.timeunit, s._pending_unit)
            ),
            on_anomaly=lambda _s, a: events.append(("anomaly", a.timeunit, a.node_path)),
            on_warmup_complete=lambda _s, unit: events.append(("warm", unit)),
            on_shadow_divergence=lambda _p, _s, unit, a, b: events.append(
                ("diverged", unit, len(a), len(b))
            ),
        )
    )
    if shadow:
        session.start_shadow(make_config(policy, model, theta=2.0))
    results, error = [], None
    try:
        for batch in batches:
            results += session.ingest_record_batch(batch)
        results += session.flush()
    except OutOfOrderRecordError as exc:
        error = str(exc)
    path = tmp_path / "session.ckpt.json"
    session.save_checkpoint(path)
    return {
        "results": results,
        "events": events,
        "error": error,
        "checkpoint": canonical_checkpoint(json.loads(path.read_text(encoding="utf-8"))),
        "shadow": session.shadow_report() if shadow else None,
        "dense_units": session.close_profile()["dense_close_units"],
    }


def assert_coded_equals_tuples(coded, rows, tmp_path, **options) -> dict:
    tuples = tuple_batches(rows, [len(batch) for batch in coded])
    got = outcome(coded, tmp_path, **options)
    expected = outcome(tuples, tmp_path, **options)
    # Same rows, same cuts: the close path is the same too.
    assert got == expected
    assert got["results"] or got["error"]
    return got


@pytest.mark.parametrize("model", MODELS)
class TestSessionsCannotTell:
    @pytest.mark.parametrize("policy", ["drop", "clamp", "raise"])
    @pytest.mark.parametrize("batch_size", [7, 64, 4096])
    def test_late_runs_and_unknown_categories(self, tmp_path, model, policy, batch_size):
        rows = session_rows()
        coded = [b for _, b in NdjsonDecoder(batch_size).feed(ndjson(rows), final=True)]
        got = assert_coded_equals_tuples(coded, rows, tmp_path, policy=policy, model=model)
        assert (got["error"] is not None) == (policy == "raise")
        if batch_size > 7:
            assert got["dense_units"] > 0

    def test_csv_and_jsonl_files(self, tmp_path, model):
        rows = session_rows(late=False)
        records = [OperationalRecord.create(ts, category) for ts, category, _ in rows]
        write_records_csv(records, tmp_path / "t.csv", max_depth=3)
        write_records_jsonl(records, tmp_path / "t.jsonl")
        for batches in (
            list(read_batches_csv(tmp_path / "t.csv", 50)),
            list(read_batches_jsonl(tmp_path / "t.jsonl", 50)),
        ):
            assert_coded_equals_tuples(batches, rows, tmp_path, model=model)

    def test_two_tenants_interleaved_in_one_body(self, tmp_path, model):
        rows = session_rows()
        tenants = [("beta" if i % 2 else "alpha") for i in range(len(rows))]
        decoder = NdjsonDecoder(
            32, default_tenant=None, is_known_tenant={"alpha", "beta"}.__contains__
        )
        fed = decoder.feed(ndjson(rows, tenants), final=True)
        for name in ("alpha", "beta"):
            own = [row for row, tag in zip(rows, tenants) if tag == name]
            coded = [batch for tenant, batch in fed if tenant == name]
            assert_coded_equals_tuples(coded, own, tmp_path, policy="clamp", model=model)

    def test_with_a_shadow_session_attached(self, tmp_path, model):
        rows = session_rows()
        coded = [b for _, b in NdjsonDecoder(48).feed(ndjson(rows), final=True)]
        got = assert_coded_equals_tuples(coded, rows, tmp_path, shadow=True, model=model)
        assert any(event[0] == "diverged" for event in got["events"])

    def test_small_posts(self, tmp_path, model):
        """The paced shape: one decoder (one request) per post, one run per
        post, many posts per timeunit — every post brings a new dictionary
        and at most one unit closes per post."""
        rows = session_rows(late=False)
        coded, start = [], 0
        while start < len(rows):
            stop = start + 1
            while (
                stop < len(rows)
                and stop - start < 4
                and rows[stop][0] // DELTA == rows[start][0] // DELTA
            ):
                stop += 1
            [(_, batch)] = NdjsonDecoder(4096).feed(ndjson(rows[start:stop]), final=True)
            coded.append(batch)
            start = stop
        assert len(coded) > 4 * 16
        got = assert_coded_equals_tuples(coded, rows, tmp_path, model=model)
        # No post closes a unit it has a run in, and still every close (one
        # per unit) is a swept row's.
        assert got["dense_units"] == len(got["results"]) == 16

    def test_a_growing_dictionary_extends_the_code_map(self, tmp_path, model):
        """One connection's codebook grows between flushes; the session maps
        only the entries it has not mapped yet."""
        rows = [  # unit u draws on the first 2 + u categories
            (unit * DELTA + 0.5 * k, CATEGORIES[k % min(len(CATEGORIES), 2 + unit)], {})
            for unit in range(12)
            for k in range(10)
        ]
        coded = [b for _, b in NdjsonDecoder(20).feed(ndjson(rows), final=True)]
        assert_coded_equals_tuples(coded, rows, tmp_path, model=model)
        session = DetectionSession(
            HierarchyTree.from_leaf_paths(LEAVES), make_config("drop", model), warmup_units=2
        )
        mapped: list[int] = []
        map_ids = session.algorithm.dictionary_node_ids

        def recording(dictionary):
            mapped.append(len(dictionary))
            return map_ids(dictionary)

        session.algorithm.dictionary_node_ids = recording
        for batch in coded:
            session.ingest_record_batch(batch)
        assert len(mapped) > 2
        assert sum(mapped) == len(coded[-1].code_dictionary) == len(CATEGORIES)


# ----------------------------------------------------------------------
# The hostile edge: every record a new category
# ----------------------------------------------------------------------
HOSTILE_BATCH = 1024


def hostile_body(count: int, start: int = 0) -> bytes:
    """``count`` records, pairwise-distinct categories (two tree leaves come
    up again and again so there is something to detect)."""
    lines = []
    for i in range(start, start + count):
        category = ["a", "a1"] if i % 50 == 0 else ["zz", f"n{i}"]
        lines.append(b'{"timestamp": %d.5, "category": %s}\n' % (
            i // 400, json.dumps(category).encode()
        ))
    return b"".join(lines)


def feed_hostile(count: int) -> tuple[list, float]:
    """Batches of a ``count``-record all-distinct stream fed in blocks, and
    the decode time."""
    decoder = NdjsonDecoder(HOSTILE_BATCH)
    out = []
    elapsed = 0.0
    for start in range(0, count, 10_000):
        body = hostile_body(min(10_000, count - start), start)
        began = time.perf_counter()
        out += decoder.feed(body)
        elapsed += time.perf_counter() - began
    began = time.perf_counter()
    out += decoder.feed(b"", final=True)
    return [batch for _, batch in out], elapsed + time.perf_counter() - began


class TestHostileDictionaryGrowth:
    def test_codebooks_stay_bounded_and_detections_equal_tuples(self):
        count = 200_000
        batches, _ = feed_hostile(count)
        assert sum(len(batch) for batch in batches) == count
        bound = CODEBOOK_BATCHES * HOSTILE_BATCH
        sizes = [len(batch.code_dictionary) for batch in batches]
        assert max(sizes) <= bound
        assert min(sizes[1:-1]) >= HOSTILE_BATCH * 49 // 50  # and are not rebuilt per batch
        config = make_config("drop", delta_seconds=1.0)
        tree = HierarchyTree.from_leaf_paths(LEAVES)

        def detect(feed):
            session = DetectionSession(tree, config, warmup_units=2)
            results = session.process_batches(feed)
            return results, canonical_checkpoint(session.state_dict())

        coded = detect(batches)
        tuples = detect(
            RecordBatch(batch.timestamps, list(batch.categories)) for batch in batches
        )
        assert coded == tuples
        assert len(coded[0]) == count // 400

    def test_decode_time_is_linear_in_the_stream(self):
        """Per-entry copy-on-write (``entries + [path]``) would be quadratic:
        4× the stream would take ~16× as long."""
        feed_hostile(5_000)  # warm
        small = min(feed_hostile(50_000)[1] for _ in range(2))
        large = min(feed_hostile(200_000)[1] for _ in range(2))
        assert large < 6 * small

    def test_decoder_memory_is_a_fixed_multiple_of_one_batch(self):
        """What a decoder holds at its peak — the codebook, the rows of the
        batch being filled, one block's lines — against what one flushed
        batch holds; a codebook that lived as long as the stream would hold
        sixty batches' worth of paths here."""
        count = 60 * HOSTILE_BATCH
        body = hostile_body(count)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held = NdjsonDecoder(HOSTILE_BATCH).feed(hostile_body(HOSTILE_BATCH))
            one_batch = tracemalloc.get_traced_memory()[0] - base
            del held
            decoder = NdjsonDecoder(HOSTILE_BATCH)
            accepted = 0
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for start in range(0, len(body), READ_BLOCK_BYTES):
                # Batches are dropped as they come, as a front end enqueues
                # and forgets them.
                for _, batch in decoder.feed(body[start : start + READ_BLOCK_BYTES]):
                    accepted += len(batch)
            accepted += sum(len(b) for _, b in decoder.feed(b"", final=True))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert accepted == count
        assert peak < (2 * CODEBOOK_BATCHES + 4) * one_batch

    def test_through_one_raw_socket_connection(self, tmp_path):
        """200 000 all-distinct records down one connection: all accepted,
        every batch the worker sees within the codebook bound, detections
        equal to the tuple-batch run of the same records."""
        count = 200_000
        body = hostile_body(count)
        config = make_config("drop", delta_seconds=1.0)
        tree = HierarchyTree.from_leaf_paths(LEAVES)
        service_config = ServiceConfig(
            tenants=(TenantSpec(name="edge", tree=tree, config=config, warmup_units=2),),
            checkpoint_dir=tmp_path / "ckpt",
            port=0,
            socket_port=0,
            checkpoint_interval=0.0,
            ingest_batch_size=HOSTILE_BATCH,
            queue_max_batches=8,
        )
        service = DetectionService(service_config)
        sizes: list[int] = []
        ingest = service.manager.ingest_batch

        def watching(name, batch):
            sizes.append(len(batch.code_dictionary))
            return ingest(name, batch)

        service.manager.ingest_batch = watching
        with service.start_in_thread():
            with socket.create_connection(
                ("127.0.0.1", service.socket_port), timeout=120
            ) as sock:
                sock.sendall(b'{"tenant": "edge"}\n' + body)
                sock.shutdown(socket.SHUT_WR)
                reply = b""
                while not reply.endswith(b"\n"):
                    data = sock.recv(65536)
                    assert data, "the connection closed without a reply line"
                    reply += data
            assert json.loads(reply) == {"accepted": count}
            service.worker.submit_call(lambda: service.manager.flush("edge"), timeout=120)
            anomalies = service.worker.submit_call(
                lambda: service.manager.anomalies("edge"), timeout=120
            )
        assert sizes and max(sizes) <= CODEBOOK_BATCHES * HOSTILE_BATCH

        session = DetectionSession(tree, config, warmup_units=2, name="edge")
        rows_per_batch = 5_000
        lines = body.splitlines()
        for start in range(0, count, rows_per_batch):
            chunk = [json.loads(line) for line in lines[start : start + rows_per_batch]]
            session.ingest_record_batch(
                RecordBatch.from_columns(
                    [row["timestamp"] for row in chunk],
                    [row["category"] for row in chunk],
                )
            )
        session.flush()
        expected = json.loads(json.dumps([a.to_dict() for a in session.anomalies]))
        assert anomalies == expected
