"""Front-end bugfix sweep: malformed headers, empty tenants, socket framing,
worker stop races.  Every test here failed before the corresponding fix."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.service import DetectionService
from repro.io.jsonl_io import NdjsonDecodeError, NdjsonDecoder
from repro.service.worker import IngestWorker

from tests.service.conftest import http_call, ndjson_payload, wait_until


@pytest.fixture
def daemon(tiny_tenant):
    dataset, config = tiny_tenant
    service = DetectionService(config)
    with service.start_in_thread():
        yield dataset, service
    assert not service.worker.running


def raw_http(port: int, request: bytes) -> tuple[int, dict]:
    """Send a hand-built HTTP request (urllib refuses malformed headers)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def record_lines(dataset, count):
    return [
        (json.dumps(r.to_dict(), sort_keys=True) + "\n").encode()
        for r in list(dataset.records())[:count]
    ]


def socket_exchange(port, lines):
    """Send ``lines``, half-close, return the reply line (b"" if none)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"".join(lines))
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while not reply.endswith(b"\n"):
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    return reply


# ----------------------------------------------------------------------
# Bugfix 1: negative Content-Length must be a 400, not a 500
# ----------------------------------------------------------------------
class TestContentLength:
    def test_negative_content_length_is_400(self, daemon):
        _, service = daemon
        status, body = raw_http(
            service.http_port,
            b"POST /ingest HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: -5\r\n"
            b"\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_garbage_content_length_is_400(self, daemon):
        _, service = daemon
        status, body = raw_http(
            service.http_port,
            b"POST /ingest HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]


# ----------------------------------------------------------------------
# Bugfix 2: empty tenants are explicit 400s, never the default tenant
# ----------------------------------------------------------------------
class TestEmptyTenant:
    def test_empty_query_tenant_is_400(self, daemon):
        dataset, service = daemon
        records = list(dataset.records())[:5]
        result = http_call(
            service.http_port, "/ingest?tenant=", "POST", ndjson_payload(records)
        )
        assert result.status == 400
        assert "tenant must not be empty" in result.body["error"]
        # On every route, not just ingest.
        assert http_call(service.http_port, "/anomalies?tenant=").status == 400
        assert (
            http_call(service.http_port, "/flush?tenant=", "POST").status == 400
        )

    def test_empty_x_tenant_header_is_400(self, daemon):
        _, service = daemon
        status, body = raw_http(
            service.http_port,
            b"GET /anomalies HTTP/1.1\r\nX-Tenant:\r\n\r\n",
        )
        assert status == 400
        assert "tenant must not be empty" in body["error"]

    def test_empty_record_tenant_is_400_with_line_number(self, daemon):
        dataset, service = daemon
        records = [r.to_dict() for r in list(dataset.records())[:3]]
        records[1]["tenant"] = ""
        result = http_call(
            service.http_port, "/ingest", "POST", ndjson_payload(records)
        )
        assert result.status == 400
        assert "line 2" in result.body["error"]
        assert "tenant must not be empty" in result.body["error"]

    def test_absent_and_null_tenant_fall_back_to_default(self, daemon):
        """The key-absent (and explicit-null) forms still mean 'default'."""
        dataset, service = daemon
        records = [r.to_dict() for r in list(dataset.records())[:4]]
        records[1]["tenant"] = None
        result = http_call(
            service.http_port, "/ingest", "POST", ndjson_payload(records)
        )
        assert result.status == 202
        assert result.body["accepted"] == 4

    def test_parse_distinguishes_absent_from_empty(self):
        record = {"timestamp": 0.5, "category": ["a"]}

        def decode(payload):
            decoder = NdjsonDecoder(
                10, default_tenant="dflt", is_known_tenant=lambda name: True
            )
            return decoder.feed(payload, final=True)

        [(tenant, batch)] = decode(ndjson_payload([record]))
        assert tenant == "dflt" and len(batch) == 1
        with pytest.raises(NdjsonDecodeError, match="must not be empty"):
            decode(ndjson_payload([dict(record, tenant="")]))


# ----------------------------------------------------------------------
# Bugfix 3: the socket path must not swallow a header-less first record
# ----------------------------------------------------------------------
class TestSocketFirstLine:
    def test_headerless_first_record_is_counted(self, daemon):
        dataset, service = daemon
        # No header line at all: the first line is already a data record.
        reply = socket_exchange(service.socket_port, record_lines(dataset, 10))
        assert json.loads(reply) == {"accepted": 10}
        wait_until(service.worker.drained)
        snapshot = service.manager.tenant_snapshot()["tiny"]
        assert snapshot["records_ingested"] == 10

    def test_empty_header_tenant_is_an_error(self, daemon):
        _, service = daemon
        reply = socket_exchange(service.socket_port, [b'{"tenant": ""}\n'])
        assert "tenant must not be empty" in json.loads(reply)["error"]

    def test_explicit_header_still_works(self, daemon):
        dataset, service = daemon
        lines = [b'{"tenant": "tiny"}\n', *record_lines(dataset, 6)]
        reply = socket_exchange(service.socket_port, lines)
        assert json.loads(reply) == {"accepted": 6}


# ----------------------------------------------------------------------
# Bugfix 4: IngestWorker.stop must not orphan a still-draining thread
# ----------------------------------------------------------------------
class _BlockingManager:
    """Stub manager whose ingest blocks until released."""

    def __init__(self):
        self.release = threading.Event()
        self.processed = 0

    def ingest_batch(self, tenant, batch):
        self.release.wait(30)
        self.processed += 1
        return []


class _FakeBatch(list):
    pass


class TestWorkerStopRace:
    def test_stop_timeout_raises_and_keeps_the_thread(self):
        manager = _BlockingManager()
        worker = IngestWorker(manager)
        worker.start()
        assert worker.try_submit([("t", _FakeBatch([1]))])
        with pytest.raises(TimeoutError, match="did not stop"):
            worker.stop(timeout=0.2)
        # The bug: _thread was cleared here, making `running` lie and
        # letting start() spawn a duplicate consumer over the live one.
        assert worker.running
        worker.start()  # must be a no-op while the old consumer drains
        manager.release.set()
        worker.stop(timeout=30.0)
        assert not worker.running
        assert manager.processed == 1
        assert worker.drained()

    def test_stop_retry_does_not_enqueue_a_second_sentinel(self):
        manager = _BlockingManager()
        worker = IngestWorker(manager)
        worker.start()
        assert worker.try_submit([("t", _FakeBatch([1]))])
        for _ in range(3):  # repeated timed-out stops
            with pytest.raises(TimeoutError):
                worker.stop(timeout=0.05)
        manager.release.set()
        worker.stop(timeout=30.0)
        # Exactly one stop sentinel was consumed: pending bookkeeping is
        # clean, so drained() is truthful (a stray sentinel would pin
        # _pending above zero forever).
        assert worker.drained()
        assert worker.depth() == 0

    def test_stop_when_never_started_is_a_noop(self):
        worker = IngestWorker(_BlockingManager())
        worker.stop()
        assert not worker.running

    def test_worker_restart_after_clean_stop(self):
        manager = _BlockingManager()
        manager.release.set()
        worker = IngestWorker(manager)
        worker.start()
        assert worker.try_submit([("t", _FakeBatch([1]))])
        wait_until(worker.drained)
        worker.stop(timeout=30.0)
        worker.start()
        assert worker.running
        assert worker.try_submit([("t", _FakeBatch([2]))])
        wait_until(lambda: manager.processed == 2)
        worker.stop(timeout=30.0)


# ----------------------------------------------------------------------
# Ingest fast lane (one NdjsonDecoder behind both edges): three bugfixes.
# Every test in the three classes below failed before the decoder landed.
# ----------------------------------------------------------------------
INVALID_UTF8 = b'{"category": ["\xff"], "timestamp": 1}\n'


class TestInvalidUtf8:
    """Bugfix: bytes that are not UTF-8 were a 500 / a silent hang-up."""

    def test_http_answers_400_with_the_line_number(self, daemon):
        dataset, service = daemon
        good = record_lines(dataset, 2)
        result = http_call(
            service.http_port, "/ingest", "POST", b"".join(good) + INVALID_UTF8
        )
        assert result.status == 400
        assert result.body["error"].startswith("line 3: invalid JSON: ")
        assert "utf-8" in result.body["error"]
        assert service.worker.submitted_batches_total == 0

    def test_socket_replies_with_an_error_line(self, daemon):
        dataset, service = daemon
        good = record_lines(dataset, 2)
        reply = socket_exchange(
            service.socket_port, [b'{"tenant": "tiny"}\n', *good, INVALID_UTF8]
        )
        document = json.loads(reply)  # the parent closed without a reply
        assert document["error"].startswith("line 4: invalid JSON: ")
        assert document["accepted"] == 2

    def test_socket_header_that_is_not_utf8(self, daemon):
        _, service = daemon
        reply = socket_exchange(service.socket_port, [b'{"tenant": "\xff"}\n'])
        assert "first line must be" in json.loads(reply)["error"]


class TestBadValuesAreRefusedAtTheEdge:
    """Bugfix: NaN/Infinity timestamps and string categories were answered
    202 and then failed on the detection thread — taking every good record
    of their batch with them — or were silently mis-split."""

    @pytest.mark.parametrize(
        "bad, complaint",
        [
            (b'{"category": ["a"], "timestamp": NaN}', "not finite"),
            (b'{"category": ["a"], "timestamp": Infinity}', "not finite"),
            (b'{"category": ["a"], "timestamp": -Infinity}', "not finite"),
            (b'{"category": ["a"], "timestamp": "nan"}', "not finite"),
            (b'{"category": ["a"], "timestamp": 1e999}', "not finite"),
            (b'{"category": "TV", "timestamp": 1}', "sequence of labels"),
            (b'{"category": {"TV": 1}, "timestamp": 1}', "sequence of labels"),
            # Admitted with a 202 before this column work: a non-mapping
            # attributes value blew up in partition_by_key on the detection
            # thread of multi-session/sharded tenants, a nested label at
            # classification.
            (
                b'{"timestamp": 1, "category": ["a"], "attributes": [1, 2]}',
                "attributes must be a mapping, got list",
            ),
            (b'{"timestamp": 1, "category": [["a"]]}', "unhashable"),
        ],
    )
    def test_http_400_and_nothing_is_enqueued(self, daemon, bad, complaint):
        dataset, service = daemon
        good = record_lines(dataset, 20)
        payload = b"".join(good[:10]) + bad + b"\n" + b"".join(good[10:])
        result = http_call(service.http_port, "/ingest", "POST", payload)
        assert result.status == 400
        assert result.body["error"].startswith("line 11: ")
        assert complaint in result.body["error"]
        assert service.worker.submitted_batches_total == 0
        # The good records are still welcome, and none was lost to the bad one.
        assert (
            http_call(service.http_port, "/ingest", "POST", b"".join(good)).status
            == 202
        )
        wait_until(service.worker.drained)
        assert service.worker.errors_total == 0
        assert service.worker.processed_records_total == 20

    def test_nesting_past_the_recursion_limit_is_a_400(self, daemon):
        """Bugfix: ``json.loads`` raises ``RecursionError`` (not a
        ``ValueError``) on deep nesting, which escaped the decoder and was
        answered 500 without counting a bad request."""
        dataset, service = daemon
        good = record_lines(dataset, 4)
        deep = b"[" * 100_000 + b"]" * 100_000
        bad = b'{"timestamp": 1, "category": ["a"], "attributes": {"n": ' + deep + b"}}\n"
        payload = b"".join(good[:2]) + bad + b"".join(good[2:])
        result = http_call(service.http_port, "/ingest", "POST", payload)
        assert result.status == 400
        assert result.body["error"].startswith("line 3: invalid JSON: ")
        assert "recursion" in result.body["error"]
        assert service.counters.get("ingest_bad_requests_total") == 1
        assert service.worker.submitted_batches_total == 0

    @pytest.mark.parametrize(
        "bad, complaint",
        [
            (b'{"timestamp": 1, "category": ["a"], "attributes": [1, 2]}\n', "mapping"),
            (b'{"timestamp": 1, "category": [["a"]]}\n', "unhashable"),
        ],
    )
    def test_socket_replies_with_an_error_line(self, daemon, bad, complaint):
        dataset, service = daemon
        good = record_lines(dataset, 3)
        reply = json.loads(
            socket_exchange(
                service.socket_port, [b'{"tenant": "tiny"}\n', *good, bad, *good]
            )
        )
        assert reply["error"].startswith("line 5: ") and complaint in reply["error"]
        assert reply["accepted"] == 3
        wait_until(service.worker.drained)
        assert service.worker.errors_total == 0


class TestSocketReplyIsTruthful:
    """Bugfix: ``accepted`` counted records the error path then dropped, and
    the header's ``batch_size`` went unchecked."""

    def test_accepted_records_before_a_bad_line_are_enqueued(self, daemon):
        dataset, service = daemon
        good = record_lines(dataset, 5)
        reply = json.loads(
            socket_exchange(
                service.socket_port,
                [b'{"tenant": "tiny"}\n', *good[:3], b"not json\n", *good[3:]],
            )
        )
        assert reply["accepted"] == 3
        assert reply["error"].startswith("line 5: invalid JSON: ")
        wait_until(service.worker.drained)
        assert service.worker.submitted_batches_total == 1
        assert service.worker.processed_records_total == 3
        assert service.counters.get("socket_records_total") == 3

    @pytest.mark.parametrize("batch_size", ["x", 0, -3, None, [2]])
    def test_bad_batch_size_is_a_typed_error_line(self, daemon, batch_size):
        dataset, service = daemon
        header = json.dumps({"tenant": "tiny", "batch_size": batch_size}).encode()
        reply = socket_exchange(
            service.socket_port, [header + b"\n", *record_lines(dataset, 2)]
        )
        assert "batch_size must be an integer >= 1" in json.loads(reply)["error"]
        assert service.worker.submitted_batches_total == 0

    def test_header_batch_size_sets_the_flush_points(self, daemon):
        dataset, service = daemon
        reply = socket_exchange(
            service.socket_port,
            [b'{"tenant": "tiny", "batch_size": 2}\n', *record_lines(dataset, 5)],
        )
        assert json.loads(reply) == {"accepted": 5}
        assert service.worker.submitted_batches_total == 3


# ----------------------------------------------------------------------
# The socket edge reads blocks, not lines: where a block ends must not show
# ----------------------------------------------------------------------
class _ScriptedReader:
    """Stands in for the connection's StreamReader: the front end sees
    exactly these reads, so block boundaries fall where the test puts them
    (two ``sendall`` calls may reach a real socket as one segment)."""

    def __init__(self, header: bytes, blocks):
        self.header, self.blocks = header, list(blocks)

    async def readline(self) -> bytes:
        return self.header

    async def read(self, _limit: int) -> bytes:
        return self.blocks.pop(0) if self.blocks else b""


class _RecordingWorker:
    def __init__(self):
        self.rows = []

    def try_submit(self, items) -> bool:
        for tenant, batch in items:
            self.rows += [(tenant, r.timestamp, r.category, r.attributes) for r in batch]
        return True


class TestSocketBlockBoundaries:
    RECORDS = [
        {"timestamp": 1.0, "category": ["a"], "attributes": {}},
        {"timestamp": 2.5, "category": ["café", "€\U0001f600"], "attributes": {"k": "ü"}},
        {"timestamp": 3.0, "category": ["b", "c"], "attributes": {}},
    ]

    def serve(self, config, header, blocks):
        service = DetectionService(config)
        service.worker = _RecordingWorker()
        reader = _ScriptedReader(header, blocks)
        reply = asyncio.run(service.socket._ingest(reader))
        return reply, service.worker.rows

    def test_a_cut_at_any_byte_is_invisible(self, tiny_tenant):
        """Every offset of the stream, so every offset of the middle line —
        including the ones inside its 2-, 3- and 4-byte characters — and the
        ones between ``\\r`` and ``\\n``."""
        _, config = tiny_tenant
        stream = "\r\n".join(
            json.dumps(r, ensure_ascii=False) for r in self.RECORDS
        ).encode()
        expected = [
            ("tiny", r["timestamp"], tuple(r["category"]), r["attributes"])
            for r in self.RECORDS
        ]
        for cut in range(1, len(stream)):  # an empty read is EOF
            reply, rows = self.serve(
                config, b'{"tenant": "tiny"}\n', [stream[:cut], stream[cut:]]
            )
            assert reply == {"accepted": 3}, cut
            assert rows == expected, cut

    def test_headerless_first_record_then_blocks(self, tiny_tenant):
        _, config = tiny_tenant
        lines = [json.dumps(r).encode() + b"\n" for r in self.RECORDS]
        reply, rows = self.serve(
            config, lines[0], [lines[1][:9], lines[1][9:] + lines[2]]
        )
        assert reply == {"accepted": 3}
        assert [row[1] for row in rows] == [1.0, 2.5, 3.0]
        # ... and its line number is 1, there being no header line.
        reply, _ = self.serve(config, b'{"timestamp": NaN, "category": ["a"]}\n', [])
        assert reply["accepted"] == 0 and reply["error"].startswith("line 1: ")


# ----------------------------------------------------------------------
# The event loop never waits for the worker's lock
# ----------------------------------------------------------------------
class TestIngestDoesNotWaitForTheManagerLock:
    """The worker thread holds ``manager._lock`` for a whole batch close (and
    through a sharded tenant's worker recovery).  ``POST /ingest`` asks
    ``manager.is_known`` on the event-loop thread; when that took the lock,
    the loop — ``/healthz`` included — stood still until the close ended."""

    def test_ingest_and_healthz_answer_while_the_lock_is_held(self, daemon):
        dataset, service = daemon
        port = service.http_port
        body = b"".join(record_lines(dataset, 20))
        holding, release = threading.Event(), threading.Event()

        def hold_the_lock():
            with service.manager._lock:
                holding.set()
                release.wait(10)

        holder = threading.Thread(target=hold_the_lock, daemon=True)
        holder.start()
        assert holding.wait(5)
        answers: dict = {}

        def timed(name, *call):
            started = time.perf_counter()
            status = http_call(port, *call).status
            answers[name] = (status, time.perf_counter() - started)

        try:
            posting = threading.Thread(
                target=timed, args=("ingest", "/ingest?tenant=tiny", "POST", body)
            )
            probing = threading.Thread(target=timed, args=("healthz", "/healthz"))
            posting.start()
            probing.start()
            posting.join(5)
            probing.join(5)
            still_held = not release.is_set() and holder.is_alive()
        finally:
            release.set()
            holder.join(5)
        assert still_held and not posting.is_alive() and not probing.is_alive()
        assert answers["ingest"][0] in (202, 429)
        assert answers["healthz"][0] == 200
        assert answers["ingest"][1] < 0.2 and answers["healthz"][1] < 0.2
        assert not holder.is_alive()
        wait_until(lambda: http_call(port, "/healthz").body["drained"])
