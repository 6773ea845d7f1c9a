"""The daemon's network surface: endpoints, backpressure, sockets, alerts."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.engine.session import DetectionSession
from repro.service import DetectionService, ServiceConfig
from repro.service.worker import IngestWorker

from tests.service.conftest import (
    http_call,
    ndjson_payload,
    tenant_spec_for,
    tiny_dataset,
    wait_until,
)


@pytest.fixture
def daemon(tiny_tenant):
    dataset, config = tiny_tenant
    service = DetectionService(config)
    with service.start_in_thread() as handle:
        yield dataset, service
    assert not service.worker.running


def drain(service, port):
    wait_until(lambda: http_call(port, "/healthz").body["drained"])


class TestEndpoints:
    def test_healthz_and_metrics_shape(self, daemon):
        dataset, service = daemon
        port = service.http_port
        health = http_call(port, "/healthz")
        assert health.status == 200
        assert health.body["status"] == "ok"
        assert health.body["drained"] is True
        metrics = http_call(port, "/metrics").body
        assert metrics["service"]["known_tenants"] == 1
        assert metrics["queue"]["capacity"] == service.config.queue_max_batches
        assert metrics["checkpoint"]["written_total"] == 0
        assert metrics["tenants"]["tiny"]["active"] is False

    def test_ingest_flush_anomalies_checkpoint(self, daemon, tmp_path):
        dataset, service = daemon
        port = service.http_port
        records = list(dataset.records())
        result = http_call(
            port, "/ingest", "POST", ndjson_payload(records)
        )
        assert result.status == 202
        assert result.body["accepted"] == len(records)
        drain(service, port)
        closed = http_call(port, "/flush", "POST").body["closed"]
        assert closed["tiny"] == 1
        metrics = http_call(port, "/metrics").body
        tenant = metrics["tenants"]["tiny"]
        assert tenant["records_ingested"] == len(records)
        assert tenant["units_processed"] > 0
        assert tenant["adaptation_stats"]["mode"] in ("delta", "legacy")
        counters = metrics["service"]["http"]
        assert counters["ingest_records_total"] == len(records)
        # Front-end decode is accounted for: every body byte, some time.
        assert counters["ingest_bytes_total"] == len(ndjson_payload(records))
        assert 0.0 < counters["ingest_decode_seconds_total"] < 5.0

        # The daemon's detections equal an in-process serial run.
        serial = service.config.tenants[0].build_session()
        serial.process_stream(iter(records))
        body = http_call(port, "/anomalies?tenant=tiny").body
        assert body["anomalies"] == [a.to_dict() for a in serial.anomalies]

        written = http_call(port, "/checkpoint", "POST").body["checkpoints"]
        assert "tiny" in written
        restored = DetectionSession.load_checkpoint(written["tiny"])
        assert restored.units_processed == serial.units_processed

    def test_tenants_inventory(self, daemon):
        dataset, service = daemon
        port = service.http_port
        body = http_call(port, "/tenants").body
        assert body["default_tenant"] == "tiny"
        assert body["tenants"]["tiny"] == {
            "active": False,
            "resumable": False,
            "configured": True,
        }

    def test_error_routes(self, daemon):
        dataset, service = daemon
        port = service.http_port
        assert http_call(port, "/nope").status == 404
        assert http_call(port, "/anomalies?tenant=ghost").status == 404
        assert (
            http_call(port, "/ingest", "POST", b'{"broken\n').status == 400
        )
        bad_tenant = http_call(
            port,
            "/ingest?tenant=ghost",
            "POST",
            ndjson_payload(list(dataset.records())[:1]),
        )
        assert bad_tenant.status == 400
        assert "unknown tenant" in bad_tenant.body["error"]
        missing_category = http_call(
            port, "/ingest", "POST", b'{"timestamp": 1.0, "category": []}\n'
        )
        assert missing_category.status == 400


class TestBackpressure429:
    @pytest.fixture
    def small_queue_daemon(self, tmp_path):
        dataset = tiny_dataset()
        config = ServiceConfig(
            tenants=(tenant_spec_for("tiny", dataset),),
            checkpoint_dir=tmp_path / "ckpt",
            port=0,
            checkpoint_interval=0.0,
            queue_max_batches=2,
            ingest_batch_size=1,  # one batch per record -> easy to fill
        )
        service = DetectionService(config)
        with service.start_in_thread():
            yield dataset, service

    def test_full_queue_rejects_with_429_and_drops_nothing(
        self, small_queue_daemon
    ):
        dataset, service = small_queue_daemon
        port = service.http_port
        records = list(dataset.records())
        release = threading.Event()
        entered = threading.Event()

        def blocker():
            entered.set()
            assert release.wait(30)

        barrier = threading.Thread(
            target=lambda: service.worker.submit_call(blocker, timeout=60),
            daemon=True,
        )
        barrier.start()
        assert entered.wait(10)

        # Fill the 2-slot queue, then observe explicit backpressure.
        assert http_call(
            port, "/ingest", "POST", ndjson_payload(records[:2])
        ).status == 202
        rejected = http_call(port, "/ingest", "POST", ndjson_payload(records[2:4]))
        assert rejected.status == 429
        assert "retry" in rejected.body["error"]

        metrics = http_call(port, "/metrics").body
        assert metrics["queue"]["depth"] == 2
        assert metrics["queue"]["rejected_batches_total"] == 2
        assert metrics["service"]["http"]["ingest_rejected_total"] == 1

        release.set()
        barrier.join(10)
        drain(service, port)
        # The retried request succeeds; accepted records were never dropped.
        assert http_call(
            port, "/ingest", "POST", ndjson_payload(records[2:4])
        ).status == 202
        drain(service, port)
        assert http_call(port, "/metrics").body["queue"][
            "processed_records_total"
        ] == 4


class TestRawSocket:
    def socket_send(self, port, header, lines, chunk_pause=0.0):
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall((json.dumps(header) + "\n").encode())
            for line in lines:
                sock.sendall(line)
                if chunk_pause:
                    time.sleep(chunk_pause)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while not reply.endswith(b"\n"):
                data = sock.recv(65536)
                if not data:
                    break
                reply += data
        return json.loads(reply)

    def test_socket_ingest_matches_http(self, daemon):
        dataset, service = daemon
        records = list(dataset.records())
        lines = [
            (json.dumps(r.to_dict(), sort_keys=True) + "\n").encode()
            for r in records
        ]
        reply = self.socket_send(service.socket_port, {"tenant": "tiny"}, lines)
        assert reply == {"accepted": len(records)}
        assert service.counters.get("ingest_bytes_total") == sum(map(len, lines))
        assert service.counters.get("ingest_decode_seconds_total") > 0.0
        wait_until(service.worker.drained)
        service.worker.submit_call(lambda: service.manager.flush(None))
        serial = service.config.tenants[0].build_session()
        serial.process_stream(iter(records))
        body = http_call(service.http_port, "/anomalies?tenant=tiny").body
        assert body["anomalies"] == [a.to_dict() for a in serial.anomalies]

    def test_socket_unknown_tenant(self, daemon):
        dataset, service = daemon
        reply = self.socket_send(service.socket_port, {"tenant": "ghost"}, [])
        assert "unknown tenant" in reply["error"]

    @pytest.mark.parametrize("queue_slots", [2, 1])
    def test_socket_backpressure_pauses_without_dropping(self, tmp_path, queue_slots):
        dataset = tiny_dataset()
        config = ServiceConfig(
            tenants=(tenant_spec_for("tiny", dataset),),
            checkpoint_dir=tmp_path / "ckpt",
            port=0,
            socket_port=0,
            checkpoint_interval=0.0,
            queue_max_batches=queue_slots,
            ingest_batch_size=1,
        )
        service = DetectionService(config)
        with service.start_in_thread():
            release = threading.Event()
            entered = threading.Event()

            def blocker():
                entered.set()
                assert release.wait(30)

            barrier = threading.Thread(
                target=lambda: service.worker.submit_call(blocker, timeout=60),
                daemon=True,
            )
            barrier.start()
            assert entered.wait(10)

            records = list(dataset.records())[:50]
            lines = [
                (json.dumps(r.to_dict(), sort_keys=True) + "\n").encode()
                for r in records
            ]
            result = {}
            sender = threading.Thread(
                target=lambda: result.update(
                    self.socket_send(service.socket_port, {"tenant": "tiny"}, lines)
                ),
                daemon=True,
            )
            sender.start()
            # With a blocked worker and a 1- or 2-slot queue the server must pause
            # reading (slow-reader backpressure), not drop or error.
            wait_until(lambda: service.worker.backpressure_waits_total > 0)
            assert not result  # the sender is still being held back
            release.set()
            barrier.join(10)
            sender.join(30)
            assert result == {"accepted": 50}
            wait_until(service.worker.drained)
            assert service.worker.processed_records_total == 50
            metrics = http_call(service.http_port, "/metrics").body
            assert metrics["queue"]["backpressure_waits_total"] > 0


class TestCheckpointTimerAndShutdown:
    def test_rolling_checkpoints_on_a_timer(self, tmp_path):
        dataset = tiny_dataset()
        config = ServiceConfig(
            tenants=(tenant_spec_for("tiny", dataset),),
            checkpoint_dir=tmp_path / "ckpt",
            port=0,
            checkpoint_interval=0.1,
        )
        service = DetectionService(config)
        with service.start_in_thread():
            port = service.http_port
            records = list(dataset.records())
            http_call(port, "/ingest", "POST", ndjson_payload(records))
            wait_until(
                lambda: http_call(port, "/metrics").body["checkpoint"][
                    "written_total"
                ]
                > 0
            )
            assert service.manager.checkpoint_path("tiny").exists()

    def test_graceful_shutdown_writes_final_checkpoint(self, tiny_tenant):
        dataset, config = tiny_tenant
        service = DetectionService(config)
        handle = service.start_in_thread()
        records = list(dataset.records())
        http_call(
            service.http_port, "/ingest", "POST", ndjson_payload(records[:100])
        )
        handle.stop()
        path = service.manager.checkpoint_path("tiny")
        assert path.exists()
        restored = DetectionSession.load_checkpoint(path)
        # Every admitted record is covered by the final checkpoint.
        serial = config.tenants[0].build_session()
        for record in records[:100]:
            serial.ingest_record(record)
        assert restored.units_processed == serial.units_processed
        assert restored.state_dict()["pending"] == serial.state_dict()["pending"]

    def test_shutdown_endpoint(self, tiny_tenant):
        dataset, config = tiny_tenant
        service = DetectionService(config)
        handle = service.start_in_thread()
        assert http_call(service.http_port, "/shutdown", "POST").status == 202
        handle._thread.join(15)
        assert not handle._thread.is_alive()
        assert not service.worker.running


class _WebhookReceiver(BaseHTTPRequestHandler):
    received: list[dict] = []

    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", "0"))
        type(self).received.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):  # silence
        pass


class TestAlertEgress:
    def test_jsonl_sink_and_webhook_receive_anomalies(self, tmp_path):
        receiver = HTTPServer(("127.0.0.1", 0), _WebhookReceiver)
        _WebhookReceiver.received = []
        receiver_thread = threading.Thread(
            target=receiver.serve_forever, daemon=True
        )
        receiver_thread.start()
        try:
            dataset = tiny_dataset(11, duration_days=1.0)
            alerts_path = tmp_path / "alerts.jsonl"
            config = ServiceConfig(
                tenants=(tenant_spec_for("tiny", dataset),),
                checkpoint_dir=tmp_path / "ckpt",
                port=0,
                checkpoint_interval=0.0,
                alert_jsonl_path=alerts_path,
                webhook_url=f"http://127.0.0.1:{receiver.server_port}/hook",
            )
            service = DetectionService(config)
            with service.start_in_thread():
                port = service.http_port
                records = list(dataset.records())
                http_call(port, "/ingest", "POST", ndjson_payload(records))
                drain_deadline = time.monotonic() + 30
                while time.monotonic() < drain_deadline:
                    if http_call(port, "/healthz").body["drained"]:
                        break
                    time.sleep(0.05)
                http_call(port, "/flush", "POST")
                expected = service.manager.anomalies("tiny")
                assert expected, "workload must produce anomalies"
                metrics = http_call(port, "/metrics").body
                assert metrics["alerts"]["jsonl"]["delivered_total"] == len(expected)
                assert metrics["alerts"]["webhook"]["delivered_total"] == len(expected)

            lines = [
                json.loads(line)
                for line in alerts_path.read_text().splitlines()
                if line
            ]
            assert [entry["anomaly"] for entry in lines] == expected
            assert all(entry["tenant"] == "tiny" for entry in lines)
            assert [doc["anomaly"] for doc in _WebhookReceiver.received] == expected
        finally:
            receiver.shutdown()
            receiver.server_close()

    def test_webhook_failure_is_counted_not_fatal(self, tmp_path):
        dataset = tiny_dataset(11, duration_days=1.0)
        config = ServiceConfig(
            tenants=(tenant_spec_for("tiny", dataset),),
            checkpoint_dir=tmp_path / "ckpt",
            port=0,
            checkpoint_interval=0.0,
            # Nothing listens here: every delivery fails fast.
            webhook_url="http://127.0.0.1:9/unreachable",
        )
        service = DetectionService(config)
        with service.start_in_thread():
            port = service.http_port
            records = list(dataset.records())
            http_call(port, "/ingest", "POST", ndjson_payload(records))
            drain(service, port)
            http_call(port, "/flush", "POST")
            metrics = http_call(port, "/metrics").body
            anomalies = metrics["tenants"]["tiny"]["anomalies_total"]
            assert anomalies > 0
            webhook = metrics["alerts"]["webhook"]
            assert webhook["failed_total"] == anomalies
            assert webhook["delivered_total"] == 0
            # Detection was unaffected by the failing egress.
            assert metrics["queue"]["errors_total"] == 0
