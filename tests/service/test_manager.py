"""SessionManager: lazy activation, LRU eviction-to-checkpoint, exact resume."""

from __future__ import annotations

import pytest

from repro.engine.hooks import CallbackObserver
from repro.engine.session import DetectionSession
from repro.exceptions import ConfigurationError
from repro.service.manager import SessionManager
from repro.streaming.batch import RecordBatch, iter_record_batches

from tests.service.conftest import (
    state_bytes,
    tenant_spec_for,
    tiny_dataset,
    tiny_detector_config,
)


def make_manager(tmp_path, specs, **kwargs) -> SessionManager:
    return SessionManager(specs, tmp_path / "ckpt", **kwargs)


def batch_of(records) -> RecordBatch:
    return RecordBatch.from_records(records)


class TestActivation:
    def test_lazy_fresh_start(self, tmp_path):
        dataset = tiny_dataset()
        manager = make_manager(tmp_path, [tenant_spec_for("a", dataset)])
        assert manager.active_tenants() == []
        session = manager.session("a")
        assert isinstance(session, DetectionSession)
        assert manager.active_tenants() == ["a"]
        assert manager.fresh_starts_total == 1
        assert manager.resumes_total == 0
        # Second touch reuses the live session.
        assert manager.session("a") is session
        assert manager.activations_total == 1

    @pytest.mark.parametrize(
        "specs, options, message",
        [
            (["a", "a"], {}, "duplicate tenant"),
            (["a"], {"max_active": 0}, "max_active"),
            (["a"], {"checkpoint_retention": 0}, "checkpoint_retention"),
        ],
        ids=["duplicate-tenant", "max-active", "retention"],
    )
    def test_constructor_rejects(self, tmp_path, specs, options, message):
        dataset = tiny_dataset()
        tenants = [tenant_spec_for(name, dataset) for name in specs]
        with pytest.raises(ConfigurationError, match=message):
            make_manager(tmp_path, tenants, **options)

    def test_unknown_tenant_raises(self, tmp_path):
        manager = make_manager(tmp_path, [])
        with pytest.raises(ConfigurationError, match="unknown tenant"):
            manager.session("ghost")
        assert not manager.is_known("ghost")

    def test_checkpoint_only_tenant_is_known_and_resumable(self, tmp_path):
        dataset = tiny_dataset()
        manager = make_manager(tmp_path, [tenant_spec_for("a", dataset)])
        manager.ingest_batch("a", batch_of(list(dataset.records())[:50]))
        manager.evict("a")
        # A second manager with NO spec for "a" can still activate it: the
        # checkpoint is self-contained.
        other = make_manager(tmp_path, [])
        assert other.is_known("a")
        assert other.known_tenants() == ["a"]
        session = other.session("a")
        assert session.name == "a"
        assert other.resumes_total == 1

    def test_observers_subscribed_on_every_activation(self, tmp_path):
        dataset = tiny_dataset()
        closed = []
        observer = CallbackObserver(
            on_timeunit_closed=lambda session, result: closed.append(session.name)
        )
        manager = make_manager(
            tmp_path, [tenant_spec_for("a", dataset)], observers=[observer]
        )
        records = list(dataset.records())
        manager.ingest_batch("a", batch_of(records[:100]))
        first = len(closed)
        assert first > 0
        manager.evict("a")
        manager.ingest_batch("a", batch_of(records[100:200]))
        assert len(closed) > first  # resumed session is subscribed again


class TestEviction:
    def test_lru_eviction_to_checkpoint(self, tmp_path):
        da, db, dc = tiny_dataset(1), tiny_dataset(2), tiny_dataset(3)
        manager = make_manager(
            tmp_path,
            [
                tenant_spec_for("a", da),
                tenant_spec_for("b", db),
                tenant_spec_for("c", dc),
            ],
            max_active=2,
        )
        manager.ingest_batch("a", batch_of(list(da.records())[:40]))
        manager.session("b")
        manager.session("a")  # a is now most recently used
        manager.session("c")  # cap 2 -> evicts b (the LRU)
        assert sorted(manager.active_tenants()) == ["a", "c"]
        assert manager.evictions_total == 1
        assert manager.checkpoint_path("b").exists()
        assert not manager.checkpoint_path("c").exists()

    def test_evict_inactive_raises(self, tmp_path):
        manager = make_manager(tmp_path, [tenant_spec_for("a", tiny_dataset())])
        with pytest.raises(ConfigurationError, match="not active"):
            manager.evict("a")

    def test_eviction_resume_round_trip_is_bit_identical(self, tmp_path):
        """The signature guarantee as an operational feature: a tenant that is
        evicted mid-stream (mid-timeunit!) and lazily reactivated finishes
        with exactly the state and detections of one that stayed resident."""
        dataset = tiny_dataset(11, duration_days=1.0)
        records = list(dataset.records())
        cut = len(records) // 2  # deliberately not timeunit-aligned

        resident = tenant_spec_for("t", dataset).build_session()
        for batch in iter_record_batches(iter(records), 64):
            resident.ingest_record_batch(batch)
        resident.flush()

        manager = make_manager(tmp_path, [tenant_spec_for("t", dataset)])
        for batch in iter_record_batches(iter(records[:cut]), 64):
            manager.ingest_batch("t", batch)
        manager.evict("t")
        assert manager.active_tenants() == []
        for batch in iter_record_batches(iter(records[cut:]), 64):
            manager.ingest_batch("t", batch)  # reactivates from checkpoint
        manager.flush("t")
        assert manager.resumes_total == 1

        restored = manager.session("t")
        assert [a.to_dict() for a in restored.anomalies] == [
            a.to_dict() for a in resident.anomalies
        ]
        assert state_bytes(restored.state_dict()) == state_bytes(
            resident.state_dict()
        )

    def test_sta_eviction_round_trip(self, tmp_path):
        dataset = tiny_dataset(13)
        records = list(dataset.records())
        spec = tenant_spec_for("t", dataset, algorithm="sta")
        resident = spec.build_session()
        resident.ingest_record_batch(batch_of(records))
        resident.flush()

        manager = make_manager(tmp_path, [spec])
        manager.ingest_batch("t", batch_of(records[: len(records) // 2]))
        manager.evict("t")
        manager.ingest_batch("t", batch_of(records[len(records) // 2 :]))
        manager.flush("t")
        assert state_bytes(manager.session("t").state_dict()) == state_bytes(
            resident.state_dict()
        )


class TestCheckpointAll:
    def test_checkpoint_all_writes_every_active_session(self, tmp_path):
        da, db = tiny_dataset(1), tiny_dataset(2)
        manager = make_manager(
            tmp_path, [tenant_spec_for("a", da), tenant_spec_for("b", db)]
        )
        manager.ingest_batch("a", batch_of(list(da.records())[:30]))
        manager.ingest_batch("b", batch_of(list(db.records())[:30]))
        written = manager.checkpoint_all()
        assert sorted(written) == ["a", "b"]
        for path in written.values():
            assert manager.checkpoint_dir in list(
                __import__("pathlib").Path(path).parents
            )
        assert manager.checkpoints_written_total == 2
        assert manager.last_checkpoint_unix is not None

    def test_counters_and_snapshot(self, tmp_path):
        dataset = tiny_dataset()
        manager = make_manager(tmp_path, [tenant_spec_for("a", dataset)])
        records = list(dataset.records())
        manager.ingest_batch("a", batch_of(records))
        manager.flush("a")
        snapshot = manager.tenant_snapshot()
        entry = snapshot["a"]
        assert entry["active"] is True
        assert entry["records_ingested"] == len(records)
        assert entry["units_closed"] == entry["units_processed"] > 0
        assert "adaptation_stats" in entry
        assert entry["adaptation_stats"].get("mode") in ("delta", "legacy")
        assert "stage_seconds" in entry
        manager.evict("a")
        inactive = manager.tenant_snapshot()["a"]
        assert inactive["active"] is False
        assert inactive["resumable"] is True
        # Ingest counters survive eviction (process-lifetime).
        assert inactive["records_ingested"] == len(records)


class TestReplayFile:
    def test_replay_matches_streaming_ingest(self, tmp_path):
        """replay_file == the same records pushed through ingest_batch, for
        both JSONL and columnar sources (the columnar one takes the dense
        zero-copy path end to end)."""
        from repro.io.columnar import convert_trace
        from repro.io.jsonl_io import write_records_jsonl

        dataset = tiny_dataset()
        records = list(dataset.records())
        jsonl = tmp_path / "trace.jsonl"
        write_records_jsonl(records, jsonl)
        rcol = tmp_path / "trace.rcol"
        convert_trace(jsonl, rcol)

        streamed = make_manager(tmp_path / "m0", [tenant_spec_for("t", dataset)])
        for batch in iter_record_batches(records, 512):
            streamed.ingest_batch("t", batch)
        reference = state_bytes(streamed.session("t").state_dict())

        for tag, path in (("jsonl", jsonl), ("rcol", rcol)):
            manager = make_manager(
                tmp_path / f"m_{tag}", [tenant_spec_for("t", dataset)]
            )
            summary = manager.replay_file("t", path, batch_size=512)
            assert summary["records"] == len(records)
            assert summary["units_closed"] > 0
            assert state_bytes(manager.session("t").state_dict()) == reference, tag

    def test_snapshot_reports_close_profile(self, tmp_path):
        dataset = tiny_dataset()
        manager = make_manager(tmp_path, [tenant_spec_for("t", dataset)])
        manager.ingest_batch("t", batch_of(list(dataset.records())))
        profile = manager.tenant_snapshot()["t"]["close_profile"]
        assert profile["fused_units"] + profile["staged_units"] > 0
        assert sum(profile["close_time"]["counts"]) > 0
