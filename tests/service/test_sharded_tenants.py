"""Sharded tenants behind the service layer.

A tenant spec carrying a ``sharding`` mapping is materialized as a
:class:`~repro.service.sharded_adapter.ShardedSessionAdapter` — a
session-shaped facade over a single-session sharded engine.  These tests
pin the service-visible contract: validation of the mapping, spec
round-trips, bit-identical detections and checkpoints versus a serial
tenant, eviction/reactivation across the serial/sharded boundary in both
directions, the ``sharding`` block in tenant snapshots, and the typed
refusals (reconfigure, shadow, shadowed-state resume).
"""

from __future__ import annotations

import pytest

from repro.engine.session import DetectionSession
from repro.engine.shadow import ShadowStateError
from repro.exceptions import ConfigurationError
from repro.service.config import TenantSpec
from repro.service.manager import SessionManager
from repro.service.sharded_adapter import ShardedSessionAdapter, validate_sharding
from repro.streaming.batch import iter_record_batches

from tests.service.conftest import (
    state_bytes,
    tenant_spec_for,
    tiny_dataset,
    tiny_detector_config,
)


def run_resident(dataset, records):
    """A serial session that saw the whole stream without interruption."""
    session = tenant_spec_for("t", dataset).build_session()
    for batch in iter_record_batches(iter(records), 64):
        session.ingest_record_batch(batch)
    return session


def feed(manager, name, records, batch_size=64):
    for batch in iter_record_batches(iter(records), batch_size):
        manager.ingest_batch(name, batch)


# ----------------------------------------------------------------------
# Sharding mapping validation / spec round-trips
# ----------------------------------------------------------------------
class TestValidateSharding:
    def test_defaults_filled_in(self):
        out = validate_sharding({})
        assert out == {
            "workers": 2,
            "subtree_shards": 1,
            "transport": "pipe",
            "transport_options": None,
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sharding keys"):
            validate_sharding({"worker_count": 2})

    @pytest.mark.parametrize("field", ["workers", "subtree_shards", "subtree_depth"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            validate_sharding({field: 0})

    def test_unknown_transport_refused_when_the_spec_loads(self):
        """A bad transport name fails the ``TenantSpec``, before any request
        is accepted for the tenant — not at activation on the worker."""
        with pytest.raises(ConfigurationError, match="bogus.*pipe.*shm.*tcp"):
            tenant_spec_for("t", tiny_dataset(), sharding={"transport": "bogus"})

    def test_spec_round_trips_through_dict(self):
        dataset = tiny_dataset()
        spec = tenant_spec_for(
            "t",
            dataset,
            sharding={"workers": 2, "subtree_shards": 2, "transport": "shm"},
        )
        restored = TenantSpec.from_dict(spec.to_dict())
        assert restored.sharding == spec.sharding
        assert restored.sharding["transport"] == "shm"
        assert "subtree_depth" not in restored.sharding

    def test_a_depth1_spec_loads_and_drops_the_key(self):
        """``subtree_depth: 1``, which earlier specs wrote, is accepted and
        gone from the normalised mapping and from ``to_dict()``."""
        document = tenant_spec_for(
            "t", tiny_dataset(), sharding={"subtree_shards": 2}
        ).to_dict()
        document["sharding"]["subtree_depth"] = 1
        spec = TenantSpec.from_dict(document)
        assert spec.sharding == validate_sharding({"subtree_shards": 2})
        assert "subtree_depth" not in spec.to_dict()["sharding"]

    @pytest.mark.parametrize("depth", [2, 3, "2"], ids=["2", "3", "str-2"])
    def test_a_deeper_cut_is_refused(self, depth):
        with pytest.raises(ConfigurationError, match="subtree_depth"):
            validate_sharding({"subtree_shards": 2, "subtree_depth": depth})
        document = tenant_spec_for(
            "t", tiny_dataset(), sharding={"subtree_shards": 2}
        ).to_dict()
        document["sharding"]["subtree_depth"] = depth
        with pytest.raises(ConfigurationError, match="subtree_depth"):
            TenantSpec.from_dict(document)

    def test_specless_tenants_have_no_sharding(self):
        spec = tenant_spec_for("t", tiny_dataset())
        assert spec.sharding is None
        assert "sharding" not in spec.to_dict()


# ----------------------------------------------------------------------
# Lifecycle through the SessionManager
# ----------------------------------------------------------------------
class TestShardedTenantLifecycle:
    def test_bit_identical_to_serial_with_snapshot_block(self, tmp_path):
        dataset = tiny_dataset(5, duration_days=1.0)
        records = list(dataset.records())
        resident = run_resident(dataset, records)

        spec = tenant_spec_for(
            "t",
            dataset,
            sharding={"workers": 2, "subtree_shards": 2, "transport": "shm"},
        )
        manager = SessionManager([spec], tmp_path / "ckpt")
        feed(manager, "t", records)
        session = manager.session("t")
        assert isinstance(session, ShardedSessionAdapter)

        snapshot = manager.tenant_snapshot()["t"]
        assert snapshot["active"] is True
        assert snapshot["sharding"]["transport"] == "shm"
        assert snapshot["sharding"]["num_workers"] == 2
        assert snapshot["sharding"]["session"]["kind"] == "subtree"
        assert snapshot["sharding"]["transport_stats"]["ships"] > 0
        assert snapshot["shadow"] is None
        assert snapshot["units_processed"] == resident.units_processed

        assert state_bytes(session.state_dict()) == state_bytes(
            resident.state_dict()
        )
        session.close()

    def test_sharded_eviction_reactivates_serially(self, tmp_path):
        """Sharded half-run -> evict -> serial manager finishes the stream
        with exactly the resident serial outcome (checkpoint formats are
        interchangeable)."""
        dataset = tiny_dataset(9, duration_days=1.0)
        records = list(dataset.records())
        cut = len(records) // 2
        resident = run_resident(dataset, records)

        spec = tenant_spec_for(
            "t", dataset, sharding={"workers": 2, "subtree_shards": 2}
        )
        manager = SessionManager([spec], tmp_path / "ckpt")
        feed(manager, "t", records[:cut])
        manager.evict("t")

        serial_manager = SessionManager(
            [tenant_spec_for("t", dataset)], tmp_path / "ckpt"
        )
        feed(serial_manager, "t", records[cut:])
        session = serial_manager.session("t")
        assert isinstance(session, DetectionSession)
        assert serial_manager.resumes_total == 1
        assert state_bytes(session.state_dict()) == state_bytes(
            resident.state_dict()
        )

    def test_serial_eviction_reactivates_sharded(self, tmp_path):
        """The reverse boundary crossing: a serial tenant's checkpoint
        resumes under a sharded spec and finishes bit-identically."""
        dataset = tiny_dataset(9, duration_days=1.0)
        records = list(dataset.records())
        cut = len(records) // 2
        resident = run_resident(dataset, records)

        manager = SessionManager([tenant_spec_for("t", dataset)], tmp_path / "ckpt")
        feed(manager, "t", records[:cut])
        manager.evict("t")

        spec = tenant_spec_for(
            "t", dataset, sharding={"workers": 2, "subtree_shards": 2}
        )
        sharded_manager = SessionManager([spec], tmp_path / "ckpt")
        feed(sharded_manager, "t", records[cut:])
        session = sharded_manager.session("t")
        assert isinstance(session, ShardedSessionAdapter)
        assert sharded_manager.resumes_total == 1
        assert state_bytes(session.state_dict()) == state_bytes(
            resident.state_dict()
        )
        session.close()


    def test_unsplit_tenant_snapshot_tracks_the_serial_pending_unit(self, tmp_path):
        """An unsplit sharded tenant reports the serial tenant's open
        timeunit in its snapshot after every batch and after the flush."""
        dataset = tiny_dataset(11, duration_days=0.5)
        records = list(dataset.records())
        serial = SessionManager([tenant_spec_for("t", dataset)], tmp_path / "serial")
        sharded = SessionManager(
            [tenant_spec_for("t", dataset, sharding={"workers": 1})],
            tmp_path / "sharded",
        )

        def snapshots():
            return [
                {
                    field: manager.tenant_snapshot()["t"][field]
                    for field in ("pending_unit", "units_processed", "anomalies_reported")
                }
                for manager in (serial, sharded)
            ]

        seen = []
        for batch in iter_record_batches(iter(records), 50):
            serial.ingest_batch("t", batch)
            sharded.ingest_batch("t", batch)
            want, got = snapshots()
            assert got == want
            seen.append(want["pending_unit"])
        serial.flush("t")
        sharded.flush("t")
        want, got = snapshots()
        assert got == want and want["pending_unit"] is None
        assert len(set(seen)) > 5 and None not in seen
        sharded.session("t").close()

# ----------------------------------------------------------------------
# Typed refusals
# ----------------------------------------------------------------------
class TestShardedTenantRefusals:
    def make_adapter(self, tmp_path):
        dataset = tiny_dataset()
        spec = tenant_spec_for(
            "t", dataset, sharding={"workers": 2, "subtree_shards": 2}
        )
        manager = SessionManager([spec], tmp_path / "ckpt")
        return manager.session("t")

    def test_reconfigure_and_shadow_surface_is_typed(self, tmp_path):
        adapter = self.make_adapter(tmp_path)
        try:
            candidate = tiny_detector_config().replace(theta=4.0)
            with pytest.raises(ConfigurationError, match="sharded"):
                adapter.reconfigure(candidate)
            with pytest.raises(ConfigurationError, match="sharded"):
                adapter.start_shadow(candidate)
            with pytest.raises(ConfigurationError, match="no shadow"):
                adapter.stop_shadow()
            with pytest.raises(ConfigurationError, match="no shadow"):
                adapter.promote_shadow()
            with pytest.raises(ConfigurationError, match="no shadow"):
                adapter.shadow_report()
            assert adapter.has_shadow is False
        finally:
            adapter.close()

    def test_shadowed_checkpoint_state_refused(self):
        dataset = tiny_dataset()
        session = tenant_spec_for("t", dataset).build_session()
        for batch in iter_record_batches(iter(list(dataset.records())[:80]), 40):
            session.ingest_record_batch(batch)
        session.start_shadow(tiny_detector_config().replace(theta=4.0))
        with pytest.raises(ShadowStateError, match="shadow"):
            ShardedSessionAdapter.from_session_state(
                session.state_dict(), {"workers": 2, "subtree_shards": 2}
            )
