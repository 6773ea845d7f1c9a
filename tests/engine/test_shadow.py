"""Shadow sessions: cloning, fan-out parity, divergence diffs, promotion."""

from __future__ import annotations

import pytest

from repro.engine.engine import DetectionEngine
from repro.engine.hooks import CallbackObserver
from repro.engine.reconfig import reconfigured_state
from repro.engine.session import DetectionSession
from repro.engine.shadow import ShadowStateError, ShadowTracker
from repro.exceptions import CheckpointError
from repro.engine.subtree import split_session_state
from repro.streaming.batch import RecordBatch

from tests.service.conftest import (
    state_bytes,
    tiny_dataset,
    tiny_detector_config,
)


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=23, duration_days=0.6)


@pytest.fixture(scope="module")
def records(dataset):
    return list(dataset.records())


def build_session(dataset, name="primary"):
    return DetectionSession(
        dataset.tree, tiny_detector_config(), clock=dataset.clock, name=name
    )


def candidate_config():
    """A deliberately divergent candidate (much looser thresholds)."""
    return tiny_detector_config().replace(theta=2.0, ratio_threshold=1.2)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_start_requires_no_running_shadow(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:100])
        session.start_shadow(candidate_config())
        with pytest.raises(ShadowStateError):
            session.start_shadow(candidate_config())

    def test_report_and_stop_require_a_shadow(self, dataset):
        session = build_session(dataset)
        with pytest.raises(ShadowStateError):
            session.shadow_report()
        with pytest.raises(ShadowStateError):
            session.stop_shadow()
        with pytest.raises(ShadowStateError):
            session.promote_shadow()

    def test_stop_clears_and_returns_final_report(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:100])
        session.start_shadow(candidate_config())
        session.ingest_batch(records[100:400])
        report = session.stop_shadow()
        assert not session.has_shadow
        assert report["primary"] == "primary"
        assert report["shadow"] == "primary::shadow"
        assert report["units_compared"] > 0
        assert report["shadow_config"]["theta"] == 2.0

    def test_frozen_candidate_rejected(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:100])
        with pytest.raises(Exception, match="window_units"):
            session.start_shadow(session.config.replace(window_units=96))
        assert not session.has_shadow


# ----------------------------------------------------------------------
# Fan-out parity: the shadow IS a standalone candidate-config run
# ----------------------------------------------------------------------
class TestFanOutParity:
    def test_shadow_bit_identical_to_standalone(self, dataset, records):
        """Acceptance: the shadow's detections/state are bit-identical to a
        standalone session warm-started from the same cloned checkpoint and
        fed the identical stream."""
        cut = len(records) // 2
        primary = build_session(dataset)
        primary.ingest_batch(records[:cut])

        cloned = primary.state_dict()
        primary.start_shadow(candidate_config())
        standalone = DetectionSession.from_state_dict(
            reconfigured_state(cloned, candidate_config(), name="primary::shadow")
        )

        primary.ingest_batch(records[cut:])
        primary.flush()
        standalone.ingest_batch(records[cut:])
        standalone.flush()

        assert state_bytes(primary.shadow.state_dict()) == state_bytes(
            standalone.state_dict()
        )
        assert [a.to_dict() for a in primary.shadow.anomalies] == [
            a.to_dict() for a in standalone.anomalies
        ]

    def test_columnar_fanout_matches_serial_fanout(self, dataset, records):
        cut = len(records) // 2
        serial = build_session(dataset)
        serial.ingest_batch(records[:cut])
        serial.start_shadow(candidate_config())
        for record in records[cut:]:
            serial.ingest_record(record)
        serial.flush()

        columnar = build_session(dataset)
        columnar.ingest_record_batch(RecordBatch.from_records(records[:cut]))
        columnar.start_shadow(candidate_config())
        columnar.ingest_record_batch(RecordBatch.from_records(records[cut:]))
        columnar.flush()

        assert state_bytes(serial.state_dict()) == state_bytes(
            columnar.state_dict()
        )

    def test_primary_detections_undisturbed_by_shadow(self, dataset, records):
        solo = build_session(dataset)
        solo.process_stream(iter(records))

        shadowed = build_session(dataset)
        cut = len(records) // 2
        shadowed.ingest_batch(records[:cut])
        shadowed.start_shadow(candidate_config())
        shadowed.ingest_batch(records[cut:])
        shadowed.flush()

        assert [a.to_dict() for a in shadowed.anomalies] == [
            a.to_dict() for a in solo.anomalies
        ]


# ----------------------------------------------------------------------
# Divergence tracking
# ----------------------------------------------------------------------
class TestDivergence:
    def test_hook_fires_and_report_accounts(self, dataset, records):
        events = []
        session = build_session(dataset)
        session.subscribe(
            CallbackObserver(
                on_shadow_divergence=lambda *args: events.append(args)
            )
        )
        cut = len(records) // 2
        session.ingest_batch(records[:cut])
        session.start_shadow(candidate_config())
        session.ingest_batch(records[cut:])
        session.flush()

        report = session.shadow_report()
        assert report["units_compared"] > 0
        assert (
            report["units_agreeing"] + report["units_divergent"]
            == report["units_compared"]
        )
        assert report["units_divergent"] > 0, "candidate chosen to diverge"
        assert len(events) == report["units_divergent"]
        for primary, shadow, unit, only_primary, only_shadow in events:
            assert primary is session
            assert shadow is session.shadow
            assert only_primary or only_shadow
        detail_units = [entry["timeunit"] for entry in report["divergences"]]
        assert detail_units == sorted(detail_units)

    def test_identical_candidate_agrees_everywhere(self, dataset, records):
        session = build_session(dataset)
        cut = len(records) // 2
        session.ingest_batch(records[:cut])
        session.start_shadow(tiny_detector_config())
        session.ingest_batch(records[cut:])
        session.flush()
        report = session.shadow_report()
        assert report["units_divergent"] == 0
        assert report["agreement"] == 1.0

    def test_shadow_errors_are_contained(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:100])
        session.start_shadow(candidate_config())
        # Sabotage the shadow: a broken algorithm makes every mirrored call
        # raise, but the primary must keep detecting.
        session.shadow.algorithm = None
        session.ingest_batch(records[100:300])
        session.flush()
        report = session.shadow_report()
        assert report["shadow_errors"] > 0
        assert report["last_error"] is not None
        assert session.units_processed > 0


# ----------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promote_adopts_the_candidate_wholesale(self, dataset, records):
        cut = len(records) // 2
        session = build_session(dataset)
        session.ingest_batch(records[:cut])
        cloned = session.state_dict()
        session.start_shadow(candidate_config())
        session.ingest_batch(records[cut:])
        report = session.promote_shadow()
        session.flush()

        assert not session.has_shadow
        assert report["units_compared"] > 0
        assert session.config.theta == 2.0

        # The promoted session equals a standalone candidate-config run.
        standalone = DetectionSession.from_state_dict(
            reconfigured_state(cloned, candidate_config(), name="primary::shadow")
        )
        standalone.ingest_batch(records[cut:])
        standalone.flush()
        assert [a.to_dict() for a in session.anomalies] == [
            a.to_dict() for a in standalone.anomalies
        ]

    def test_promoted_session_keeps_observers(self, dataset, records):
        closed = []
        session = build_session(dataset)
        session.subscribe(
            CallbackObserver(on_timeunit_closed=lambda s, r: closed.append(r))
        )
        session.ingest_batch(records[:200])
        session.start_shadow(candidate_config())
        session.promote_shadow()
        seen = len(closed)
        session.ingest_batch(records[200:400])
        assert len(closed) > seen


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
class TestShadowCheckpoints:
    def test_shadowed_checkpoint_round_trips_exactly(
        self, dataset, records, tmp_path
    ):
        cut = len(records) // 2
        session = build_session(dataset)
        session.ingest_batch(records[:cut])
        session.start_shadow(candidate_config())
        session.ingest_batch(records[cut : cut + 300])

        path = tmp_path / "shadowed.ckpt.json"
        session.save_checkpoint(path)
        restored = DetectionSession.load_checkpoint(path)
        assert restored.has_shadow
        assert state_bytes(restored.state_dict()) == state_bytes(
            session.state_dict()
        )
        assert (
            restored._shadow_tracker.state_dict()
            == session._shadow_tracker.state_dict()
        )

        # The experiment continues identically on both sides of the restart.
        session.ingest_batch(records[cut + 300 :])
        session.flush()
        restored.ingest_batch(records[cut + 300 :])
        restored.flush()
        assert state_bytes(restored.state_dict()) == state_bytes(
            session.state_dict()
        )
        assert restored.shadow_report() == session.shadow_report()

    def test_tracker_state_round_trip(self):
        tracker = ShadowTracker()
        tracker.units_compared = 5
        tracker.units_agreeing = 3
        tracker.units_divergent = 2
        tracker._primary_pending = {7: [{"node_path": ["a"], "timeunit": 7}]}
        restored = ShadowTracker.from_state_dict(tracker.state_dict())
        assert restored.state_dict() == tracker.state_dict()

    def test_sharding_a_shadowed_state_is_rejected(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:100])
        session.start_shadow(candidate_config())
        with pytest.raises(CheckpointError, match="shadow"):
            split_session_state(session.state_dict(), 2)


# ----------------------------------------------------------------------
# Engine-level fan-out
# ----------------------------------------------------------------------
class TestEngineSurface:
    def test_engine_shadow_operations(self, dataset, records):
        engine = DetectionEngine()
        engine.add_session(
            "tiny",
            dataset.tree,
            tiny_detector_config(),
            clock=dataset.clock,
        )
        cut = len(records) // 2
        engine.session("tiny").ingest_batch(records[:cut])
        engine.start_shadow("tiny", candidate_config())
        engine.session("tiny").ingest_batch(records[cut:])
        engine.session("tiny").flush()

        assert engine.session("tiny").shadow_report()["units_compared"] > 0

        engine.reconfigure_session(
            "tiny", engine.session("tiny").config.replace(theta=6.0)
        )
        assert engine.session("tiny").config.theta == 6.0
        # Reconfiguring the primary leaves the experiment running.
        assert engine.session("tiny").has_shadow

        report = engine.promote_shadow("tiny")
        assert report["units_compared"] > 0
        assert not engine.session("tiny").has_shadow
