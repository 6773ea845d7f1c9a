"""Service surface of online reconfiguration and shadow experiments."""

from __future__ import annotations

import json

import pytest

from repro.engine.reconfig import reconfigured_state
from repro.engine.session import DetectionSession
from repro.service import DetectionService

from tests.service.conftest import (
    http_call,
    ndjson_payload,
    state_bytes,
    wait_until,
)

CANDIDATE_DELTA = {"theta": 2.0, "ratio_threshold": 1.2}


@pytest.fixture
def daemon(tiny_tenant):
    dataset, config = tiny_tenant
    service = DetectionService(config)
    with service.start_in_thread():
        yield dataset, service
    assert not service.worker.running


def post_json(port, path, document):
    return http_call(port, path, "POST", json.dumps(document).encode())


def drain(service):
    wait_until(service.worker.drained)


class TestReconfigureEndpoint:
    def test_reconfigure_applies_and_persists(self, daemon):
        dataset, service = daemon
        port = service.http_port
        records = list(dataset.records())
        cut = len(records) // 2

        assert http_call(
            port, "/ingest", "POST", ndjson_payload(records[:cut])
        ).status == 202
        drain(service)

        result = post_json(port, "/reconfigure?tenant=tiny", CANDIDATE_DELTA)
        assert result.status == 200
        assert result.body["config"]["theta"] == 2.0
        assert (
            http_call(port, "/metrics").body["reconfiguration"][
                "reconfigures_total"
            ]
            == 1
        )

        assert http_call(
            port, "/ingest", "POST", ndjson_payload(records[cut:])
        ).status == 202
        drain(service)
        http_call(port, "/flush", "POST")

        # The service-path swap equals checkpoint surgery on a serial run.
        serial = service.config.tenants[0].build_session()
        serial.ingest_batch(records[:cut])
        swapped = DetectionSession.from_state_dict(
            reconfigured_state(
                serial.state_dict(),
                serial.config.replace(**CANDIDATE_DELTA),
            )
        )
        swapped.ingest_batch(records[cut:])
        swapped.flush()
        written = http_call(port, "/checkpoint", "POST").body["checkpoints"]
        restored = DetectionSession.load_checkpoint(written["tiny"])
        assert state_bytes(restored.state_dict()) == state_bytes(
            swapped.state_dict()
        )

    def test_reconfigure_error_paths(self, daemon):
        _, service = daemon
        port = service.http_port
        # Frozen field -> 400 with the field named.
        result = post_json(port, "/reconfigure?tenant=tiny", {"window_units": 96})
        assert result.status == 400
        assert "window_units" in result.body["error"]
        # Unknown field -> 400; empty body -> 400; unknown tenant -> 404.
        assert (
            post_json(port, "/reconfigure?tenant=tiny", {"thetta": 1}).status
            == 400
        )
        assert post_json(port, "/reconfigure?tenant=tiny", {}).status == 400
        assert (
            post_json(port, "/reconfigure?tenant=ghost", {"theta": 2.0}).status
            == 404
        )
        # Nothing was half-applied.
        config = post_json(port, "/reconfigure?tenant=tiny", {"theta": 5.0})
        assert config.body["config"]["window_units"] == 48


class TestShadowEndpoints:
    def start_shadow(self, port, delta=CANDIDATE_DELTA):
        return post_json(
            port, "/shadow?tenant=tiny", {"action": "start", "config": delta}
        )

    def test_shadow_cycle_start_diverge_promote(self, daemon):
        dataset, service = daemon
        port = service.http_port
        records = list(dataset.records())
        cut = len(records) // 2

        http_call(port, "/ingest", "POST", ndjson_payload(records[:cut]))
        drain(service)
        started = self.start_shadow(port)
        assert started.status == 200
        assert started.body["report"]["shadow_config"]["theta"] == 2.0

        http_call(port, "/ingest", "POST", ndjson_payload(records[cut:]))
        drain(service)
        http_call(port, "/flush", "POST")

        report = http_call(port, "/shadow?tenant=tiny").body
        assert report["units_compared"] > 0
        assert report["units_divergent"] > 0

        # Shadow status is visible in /metrics and the tenant snapshot.
        metrics = http_call(port, "/metrics").body
        assert metrics["reconfiguration"]["shadows_active"] == 1
        assert metrics["reconfiguration"]["shadows_started_total"] == 1
        snapshot = metrics["tenants"]["tiny"]["shadow"]
        assert snapshot["units_compared"] == report["units_compared"]

        promoted = post_json(port, "/shadow?tenant=tiny", {"action": "promote"})
        assert promoted.status == 200
        assert promoted.body["report"]["units_compared"] == report["units_compared"]
        metrics = http_call(port, "/metrics").body
        assert metrics["reconfiguration"]["shadows_active"] == 0
        assert metrics["reconfiguration"]["shadows_promoted_total"] == 1
        assert metrics["tenants"]["tiny"]["shadow"] is None

        # The promoted primary now runs the candidate config.
        config = post_json(port, "/reconfigure?tenant=tiny", {"theta": 2.0})
        assert config.body["config"]["ratio_threshold"] == 1.2

    def test_shadow_conflicts_are_409(self, daemon):
        dataset, service = daemon
        port = service.http_port
        records = list(dataset.records())[:50]
        http_call(port, "/ingest", "POST", ndjson_payload(records))
        drain(service)

        assert post_json(
            port, "/shadow?tenant=tiny", {"action": "stop"}
        ).status == 409
        assert http_call(port, "/shadow?tenant=tiny").status == 409

        assert self.start_shadow(port).status == 200
        assert self.start_shadow(port).status == 409

        stopped = post_json(port, "/shadow?tenant=tiny", {"action": "stop"})
        assert stopped.status == 200
        assert (
            http_call(port, "/metrics").body["reconfiguration"][
                "shadows_stopped_total"
            ]
            == 1
        )

    def test_shadow_bad_requests_are_400(self, daemon):
        dataset, service = daemon
        port = service.http_port
        http_call(
            port, "/ingest", "POST", ndjson_payload(list(dataset.records())[:20])
        )
        drain(service)
        # No/unknown action, missing config, frozen candidate, bad JSON.
        assert post_json(port, "/shadow?tenant=tiny", {}).status == 400
        assert (
            post_json(port, "/shadow?tenant=tiny", {"action": "fork"}).status
            == 400
        )
        assert (
            post_json(port, "/shadow?tenant=tiny", {"action": "start"}).status
            == 400
        )
        assert (
            self.start_shadow(port, delta={"window_units": 96}).status == 400
        )
        assert (
            http_call(port, "/shadow?tenant=tiny", "POST", b"not json").status
            == 400
        )

    def test_shadow_survives_rolling_checkpoint(self, daemon):
        """Shadow state rides in the rolling checkpoint and restores whole."""
        dataset, service = daemon
        port = service.http_port
        records = list(dataset.records())
        cut = len(records) // 2
        http_call(port, "/ingest", "POST", ndjson_payload(records[:cut]))
        drain(service)
        self.start_shadow(port)
        http_call(port, "/ingest", "POST", ndjson_payload(records[cut:]))
        drain(service)

        written = http_call(port, "/checkpoint", "POST").body["checkpoints"]
        restored = DetectionSession.load_checkpoint(written["tiny"])
        assert restored.has_shadow
        live_state = service.worker.submit_call(
            lambda: service.manager.session("tiny").state_dict()
        )
        assert state_bytes(restored.state_dict()) == state_bytes(live_state)
