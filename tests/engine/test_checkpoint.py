"""Checkpoint/restore tests: a restored process must detect identically.

The core requirement (ISSUE 1): round-trip a half-consumed CCD stream through
``save_checkpoint`` / ``load_checkpoint`` and verify that the remaining
timeunits produce results and anomalies identical to an uninterrupted run.
"""

import json

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.datagen import CCDConfig, make_ccd_dataset
from repro.engine import DetectionEngine
from repro.engine.session import DetectionSession
from repro.exceptions import CheckpointError
from repro.io.checkpoint import (
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def ccd_dataset():
    return make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=3.0,
            delta_seconds=1800.0,
            base_rate_per_hour=120.0,
            num_anomalies=3,
            anomaly_warmup_days=1.0,
            seed=13,
        )
    )


@pytest.fixture(scope="module")
def ccd_config(ccd_dataset):
    units_per_day = int(86400 / ccd_dataset.config.delta_seconds)
    return TiresiasConfig(
        theta=8.0,
        ratio_threshold=2.0,
        difference_threshold=6.0,
        delta_seconds=ccd_dataset.config.delta_seconds,
        window_units=2 * units_per_day,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(units_per_day,), fallback_alpha=0.4),
    )


def build_engine(ccd_dataset, ccd_config, algorithm="ada"):
    engine = DetectionEngine()
    engine.add_session(
        "ccd",
        ccd_dataset.tree,
        ccd_config,
        algorithm=algorithm,
        clock=ccd_dataset.clock,
        warmup_units=int(86400 / ccd_dataset.config.delta_seconds) // 2,
    )
    return engine


@pytest.mark.parametrize("algorithm", ["ada", "sta"])
def test_half_consumed_ccd_stream_round_trip(
    tmp_path, ccd_dataset, ccd_config, algorithm
):
    """Restore mid-stream; the rest of the run must be identical."""
    records = ccd_dataset.record_list()
    half = len(records) // 2

    # Uninterrupted reference run.
    reference = build_engine(ccd_dataset, ccd_config, algorithm)
    reference_results = reference.process_stream(iter(records))["ccd"]

    # Interrupted run: ingest half, checkpoint, restore, ingest the rest.
    interrupted = build_engine(ccd_dataset, ccd_config, algorithm)
    first_half = interrupted.ingest_batch(records[:half])["ccd"]
    path = tmp_path / f"{algorithm}.ckpt.json"
    interrupted.save_checkpoint(path)

    restored = DetectionEngine.load_checkpoint(path)
    assert restored.session_names == ("ccd",)
    second_half = restored.ingest_batch(records[half:])["ccd"]
    second_half.extend(restored.flush()["ccd"])

    resumed_results = first_half + second_half
    assert len(resumed_results) == len(reference_results)
    assert resumed_results == reference_results

    # Anomaly sequences are identical too (reports carried across restore).
    reference_anomalies = reference.session("ccd").anomalies
    resumed_anomalies = restored.session("ccd").anomalies
    assert [a.to_dict() for a in resumed_anomalies] == [
        a.to_dict() for a in reference_anomalies
    ]
    assert len(reference_anomalies) > 0, "scenario must actually detect something"

    # Byte-identical re-serialization: checkpointing the restored engine after
    # the run matches checkpointing the uninterrupted engine after the run.
    reference.flush()
    ref_path = tmp_path / f"{algorithm}-ref.ckpt.json"
    end_path = tmp_path / f"{algorithm}-end.ckpt.json"
    reference.save_checkpoint(ref_path)
    restored.save_checkpoint(end_path)
    ref_state = json.loads(ref_path.read_text())
    end_state = json.loads(end_path.read_text())
    for session_state in (ref_state, end_state):
        # Wall-clock timings legitimately differ between the two runs.
        session_state["sessions"][0]["reading_seconds"] = 0.0
        session_state["sessions"][0]["algorithm_state"]["stage_seconds"] = {}
    assert end_state == ref_state


def test_restored_tree_and_config_match(tmp_path, ccd_dataset, ccd_config):
    engine = build_engine(ccd_dataset, ccd_config)
    engine.ingest_batch(ccd_dataset.record_list()[:500])
    path = tmp_path / "ckpt.json"
    engine.save_checkpoint(path)
    restored = DetectionEngine.load_checkpoint(path)
    session = restored.session("ccd")
    assert session.config == ccd_config
    assert session.clock == ccd_dataset.clock
    assert session.tree.leaf_paths() == ccd_dataset.tree.leaf_paths()
    assert session.algorithm_name == "ada"


def test_session_checkpoint_round_trip(tmp_path, ccd_dataset, ccd_config):
    records = ccd_dataset.record_list()
    half = len(records) // 2
    warmup = int(86400 / ccd_dataset.config.delta_seconds) // 2

    reference = DetectionSession(
        ccd_dataset.tree, ccd_config, clock=ccd_dataset.clock, warmup_units=warmup
    )
    reference_results = reference.process_stream(iter(records))

    detector = DetectionSession(
        ccd_dataset.tree, ccd_config, clock=ccd_dataset.clock, warmup_units=warmup
    )
    first = detector.ingest_batch(records[:half])
    path = tmp_path / "session.ckpt.json"
    detector.save_checkpoint(path)
    restored = DetectionSession.load_checkpoint(path)
    second = restored.ingest_batch(records[half:])
    second.extend(restored.flush())
    assert first + second == reference_results
    assert restored.warmup_units == warmup
    assert restored.units_processed == reference.units_processed


def test_checkpoint_between_columnar_batches_resumes_identically(
    tmp_path, ccd_dataset, ccd_config
):
    """Mid-batch-stream checkpoint: ``state_dict`` taken between columnar
    batches must restore to a process whose remaining batch ingestion yields
    detections identical to an uninterrupted batched run (ISSUE 2)."""
    from repro.streaming.batch import iter_record_batches

    records = ccd_dataset.record_list()
    batches = list(iter_record_batches(records, 257))
    half = len(batches) // 2

    reference = build_engine(ccd_dataset, ccd_config)
    reference_results = reference.process_batches(iter(batches))["ccd"]

    interrupted = build_engine(ccd_dataset, ccd_config)
    first_half = []
    for batch in batches[:half]:
        first_half.extend(interrupted.ingest_record_batch(batch)["ccd"])
    path = tmp_path / "mid-batch.ckpt.json"
    interrupted.save_checkpoint(path)

    restored = DetectionEngine.load_checkpoint(path)
    second_half = []
    for batch in batches[half:]:
        second_half.extend(restored.ingest_record_batch(batch)["ccd"])
    second_half.extend(restored.flush()["ccd"])

    assert first_half + second_half == reference_results
    assert [a.to_dict() for a in restored.session("ccd").anomalies] == [
        a.to_dict() for a in reference.session("ccd").anomalies
    ]
    assert len(reference.session("ccd").anomalies) > 0

    # Cross-path check: the batched reference equals a per-record run too.
    per_record = build_engine(ccd_dataset, ccd_config)
    assert per_record.process_stream(iter(records))["ccd"] == reference_results


def test_checkpoint_preserves_pending_partial_timeunit(tmp_path, ccd_dataset, ccd_config):
    """Interrupting in the middle of a timeunit must not lose its records."""
    records = ccd_dataset.record_list()
    # Cut at an uneven position so a timeunit is half-accumulated.
    cut = len(records) // 2 + 7
    engine = build_engine(ccd_dataset, ccd_config)
    engine.ingest_batch(records[:cut])
    pending_before = dict(engine.session("ccd")._pending)
    assert pending_before, "cut must land inside an open timeunit"
    path = tmp_path / "pending.ckpt.json"
    engine.save_checkpoint(path)
    restored = DetectionEngine.load_checkpoint(path)
    assert dict(restored.session("ccd")._pending) == pending_before
    assert (
        restored.session("ccd")._pending_unit == engine.session("ccd")._pending_unit
    )


def test_session_state_dict_round_trip(ccd_dataset, ccd_config):
    session = DetectionSession(
        ccd_dataset.tree, ccd_config, clock=ccd_dataset.clock, warmup_units=8
    )
    session.ingest_batch(ccd_dataset.record_list()[:1000])
    clone = DetectionSession.from_state_dict(
        json.loads(json.dumps(session.state_dict()))
    )
    assert clone.units_processed == session.units_processed
    assert clone.config == session.config
    assert clone.algorithm.state_dict() == session.algorithm.state_dict()


def test_config_dict_round_trip(ccd_config):
    assert config_from_dict(config_to_dict(ccd_config)) == ccd_config
    custom = ccd_config.replace(
        out_of_order_policy="clamp",
        forecast=ccd_config.forecast.replace(season_weights=None),
    )
    assert config_from_dict(config_to_dict(custom)) == custom


class TestMalformedCheckpoints:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "version": 1, "sessions": []}))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format": "tiresias-checkpoint", "version": 99, "sessions": []})
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_truncated_session_state_rejected(self, tmp_path, ccd_dataset, ccd_config):
        engine = build_engine(ccd_dataset, ccd_config)
        path = tmp_path / "ckpt.json"
        save_checkpoint(engine, path)
        state = json.loads(path.read_text())
        del state["sessions"][0]["algorithm_state"]
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)


class TestCustomPluginCheckpointing:
    def test_custom_forecaster_with_state_loader_round_trips(self, tmp_path):
        from repro.core.registry import register_forecaster, unregister_forecaster
        from repro.engine.session import DetectionSession
        from repro.hierarchy.tree import HierarchyTree

        class ConstantModel:
            """Forecaster stub predicting a stored constant."""

            min_history = 0

            def __init__(self, value=7.0):
                self.value = value

            def initialize(self, history):
                pass

            def forecast(self):
                return self.value

            def update(self, value):
                return self.value

            def state_dict(self):
                return {"kind": "constant", "value": self.value}

        register_forecaster(
            "constant",
            lambda config: ConstantModel(),
            state_loader=lambda state: ConstantModel(float(state["value"])),
        )
        try:
            tree = HierarchyTree.from_leaf_paths([("a", "a1")])
            config = TiresiasConfig(
                theta=2.0, delta_seconds=100.0, window_units=16,
                forecast=ForecastConfig(season_lengths=(2,), model="constant"),
            )
            session = DetectionSession(tree, config, warmup_units=0)
            for unit in range(6):
                session.process_timeunit_counts({("a", "a1"): 5}, timeunit=unit)
            path = tmp_path / "custom.ckpt.json"
            session.save_checkpoint(path)
            restored = DetectionSession.load_checkpoint(path)
            result = restored.process_timeunit_counts({("a", "a1"): 5}, timeunit=6)
            # The restored custom model keeps forecasting its constant.
            assert result.forecasts[("a", "a1")] == 7.0
        finally:
            unregister_forecaster("constant")

    def test_unknown_seasonal_kind_raises_checkpoint_error(self, tmp_path):
        from repro.core.config import ForecastConfig
        from repro.core.timeseries import load_seasonal_state

        with pytest.raises(CheckpointError, match="register_forecaster_state_loader"):
            load_seasonal_state({"kind": "mystery"})
        assert ForecastConfig  # silence unused-import linters

    def test_algorithm_without_state_dict_raises_checkpoint_error(
        self, tmp_path, ccd_dataset, ccd_config
    ):
        from repro.core.registry import register_algorithm, unregister_algorithm
        from repro.engine.session import DetectionSession

        class MinimalAlgorithm:
            """Implements only the documented tracking protocol."""

            stage_seconds = {}

            def __init__(self, tree, config):
                self._timeunit = -1

            def process_timeunit(self, counts, timeunit=None):
                from repro.core.results import TimeunitResult

                self._timeunit = self._timeunit + 1 if timeunit is None else timeunit
                return TimeunitResult(timeunit=self._timeunit, heavy_hitters=frozenset())

            def memory_units(self):
                return 0

        register_algorithm("minimal", MinimalAlgorithm)
        try:
            session = DetectionSession(
                ccd_dataset.tree, ccd_config, algorithm="minimal", warmup_units=0
            )
            with pytest.raises(CheckpointError, match="state_dict"):
                session.save_checkpoint(tmp_path / "x.json")
        finally:
            unregister_algorithm("minimal")

    def test_max_results_survives_checkpoint(self, tmp_path, ccd_dataset, ccd_config):
        engine = DetectionEngine()
        engine.add_session(
            "ccd", ccd_dataset.tree, ccd_config, clock=ccd_dataset.clock,
            warmup_units=0, max_results=5,
        )
        engine.ingest_batch(ccd_dataset.record_list()[:2000])
        assert len(engine.session("ccd").results) <= 5
        path = tmp_path / "bounded.ckpt.json"
        engine.save_checkpoint(path)
        restored = DetectionEngine.load_checkpoint(path)
        assert restored.session("ccd").max_results == 5
