"""Checkpoint/restore tests: a restored process must detect identically.

The core requirement (ISSUE 1): round-trip a half-consumed CCD stream through
``save_checkpoint`` / ``load_checkpoint`` and verify that the remaining
timeunits produce results and anomalies identical to an uninterrupted run.
"""

import json

import numpy as np
import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.datagen import CCDConfig, make_ccd_dataset
from repro.engine import DetectionEngine
from repro.engine.session import DetectionSession
from repro.engine.sharded import ShardedDetectionEngine
from repro.exceptions import CheckpointError, CheckpointReadError, ConfigurationError
from repro.io.checkpoint import config_from_dict, config_to_dict
from repro.streaming.batch import RecordBatch
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord
from tests.conftest import canonical_checkpoint


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
    pending_before = engine.session("ccd").state_dict()["pending"]
    assert pending_before, "cut must land inside an open timeunit"
    path = tmp_path / "pending.ckpt.json"
    engine.save_checkpoint(path)
    restored = DetectionEngine.load_checkpoint(path)
    assert restored.session("ccd").state_dict()["pending"] == pending_before
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


class TestIntValuedFloatFields:
    """A config or clock built with int literals in float fields writes
    the float forms a restored session writes, so bytes never depend on
    how the values were typed."""

    @staticmethod
    def engine(small_tree, engine_cls=DetectionEngine, **options):
        engine = engine_cls(**options)
        engine.add_session(
            "s",
            small_tree,
            TiresiasConfig(
                theta=12,
                delta_seconds=900,
                window_units=16,
                forecast=ForecastConfig(alpha=1, season_lengths=(4,)),
            ),
            clock=SimulationClock(delta=900),
        )
        records = [
            OperationalRecord(60.0 * i, ("region-0", f"site-0{i % 4}"))
            for i in range(120)
        ]
        engine.ingest_record_batch(RecordBatch.from_records(records))
        return engine

    def test_save_load_save_is_byte_identical(self, small_tree, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        self.engine(small_tree).save_checkpoint(first)
        DetectionEngine.load_checkpoint(first).save_checkpoint(second)
        assert first.read_bytes() == second.read_bytes()
        session = json.loads(first.read_text())["sessions"][0]
        assert session["config"]["theta"] == 12.0
        assert isinstance(session["config"]["forecast"]["alpha"], float)
        assert isinstance(session["clock"]["delta"], float)

    def test_serial_and_one_worker_sharded_states_are_equal(self, small_tree):
        serial = self.engine(small_tree).state_dict()
        with self.engine(
            small_tree, ShardedDetectionEngine, num_workers=1
        ) as sharded:
            assert canonical_checkpoint(sharded.state_dict()) == (
                canonical_checkpoint(serial)
            )


class TestMalformedCheckpoints:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "version": 1, "sessions": []}))
        with pytest.raises(CheckpointError, match="format"):
            DetectionEngine.load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format": "tiresias-checkpoint", "version": 99, "sessions": []})
        )
        with pytest.raises(CheckpointError, match="version"):
            DetectionEngine.load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            DetectionEngine.load_checkpoint(path)

    @pytest.mark.parametrize("owner", [DetectionSession, DetectionEngine, ShardedDetectionEngine])
    def test_json_that_is_not_an_object_rejected(self, tmp_path, owner):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a tiresias-checkpoint document"):
            owner.load_checkpoint(path)

    @pytest.mark.parametrize("owner", [DetectionSession, DetectionEngine, ShardedDetectionEngine])
    def test_invalid_utf8_rejected_as_unreadable(self, tmp_path, owner):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"format": "tiresias-checkpoint", "v\xff\xfe')
        with pytest.raises(CheckpointReadError, match="JSON"):
            owner.load_checkpoint(path)

    def test_truncated_session_state_rejected(self, tmp_path, ccd_dataset, ccd_config):
        engine = build_engine(ccd_dataset, ccd_config)
        path = tmp_path / "ckpt.json"
        engine.save_checkpoint(path)
        state = json.loads(path.read_text())
        del state["sessions"][0]["algorithm_state"]
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="malformed"):
            DetectionEngine.load_checkpoint(path)


def _small_checkpoint(path) -> dict:
    """A seasonal ADA session over a three-leaf tree, saved to ``path``;
    returns the file's JSON."""
    from repro.hierarchy.tree import HierarchyTree

    tree = HierarchyTree.from_leaf_paths([("a", "a1"), ("a", "a2"), ("b", "b1")])
    config = TiresiasConfig(
        theta=2.0,
        delta_seconds=100.0,
        window_units=8,
        reference_levels=1,
        track_root=False,
        forecast=ForecastConfig(season_lengths=(2,)),
    )
    session = DetectionSession(tree, config, warmup_units=0)
    for unit in range(7):
        session.process_timeunit_counts({("a", "a1"): 5 + unit % 2, ("b", "b1"): 3}, unit)
    session.save_checkpoint(path)
    return json.loads(path.read_text())


def _forecaster_of_a1(algo_state) -> dict:
    (state,) = [ts for path, ts in algo_state["series"] if path == ["a", "a1"]]
    return state["forecaster"]


def _foreign_seasonal_parameters(algo_state):
    seasonal = _forecaster_of_a1(algo_state)["seasonal"]
    seasonal["season_length"] = 3
    seasonal["seasonals"].append(0.0)


def _uninitialised_model(algo_state):
    _forecaster_of_a1(algo_state)["seasonal"]["level"] = None


def _long_warm_up_history(algo_state):
    forecaster = _forecaster_of_a1(algo_state)
    forecaster["seasonal"] = None
    forecaster["history"] = [5.0, 6.0, 5.0, 6.0]  # min_history is 4


def _stats_row_outside_the_tree(algo_state):
    algo_state["stats"].append([["zz", "a1"], dict(algo_state["stats"][0][1])])


def _last_unit_row_outside_the_tree(algo_state):
    algo_state["stats_last_unit"].append([["zz", "a1"], 3])


def _reference_row_outside_the_reference_levels(algo_state):
    algo_state["reference"].append([["a", "a1"], [1.0, 2.0]])


class TestRowsTheSessionNeverWrites:
    """A checkpoint row no session could have written is refused, naming
    its path, instead of being carried along."""

    @pytest.mark.parametrize(
        "spoil",
        [
            _foreign_seasonal_parameters,
            _uninitialised_model,
            _long_warm_up_history,
            _stats_row_outside_the_tree,
            _last_unit_row_outside_the_tree,
            _reference_row_outside_the_reference_levels,
        ],
    )
    def test_the_load_names_the_path(self, tmp_path, spoil):
        path = tmp_path / "ckpt.json"
        state = _small_checkpoint(path)
        assert DetectionSession.load_checkpoint(path).state_dict()
        spoil(state["sessions"][0]["algorithm_state"])
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="a1"):
            DetectionSession.load_checkpoint(path)


class TestPendingRows:
    """The open timeunit's ``pending`` rows: rows a session writes restore as
    they were; a row no session writes is refused, naming the section."""

    @staticmethod
    def checkpoint_with_pending(path, rows):
        state = _small_checkpoint(path)
        state["sessions"][0].update(pending_unit=7, pending=rows)
        path.write_text(json.dumps(state))
        return path

    def test_rows_restore_in_their_order(self, tmp_path):
        rows = [[["b", "b1"], 2], [["a", "a1"], 3], [["a"], 1]]
        path = self.checkpoint_with_pending(tmp_path / "ckpt.json", rows)
        assert DetectionSession.load_checkpoint(path).state_dict()["pending"] == rows

    def test_a_path_outside_the_tree_counts_nowhere(self, tmp_path):
        rows = [[["zz", "z1"], 4], [["a", "a1"], 1]]
        path = self.checkpoint_with_pending(tmp_path / "ckpt.json", rows)
        restored = DetectionSession.load_checkpoint(path)
        assert restored.state_dict()["pending"] == [[["a", "a1"], 1]]
        (result,) = restored.flush()
        assert result.timeunit == 7

    @pytest.mark.parametrize(
        "rows",
        [
            [[["a", "a1"], -5]],
            [[["a", "a1"], 2], [["b", "b1"], 1], [["a", "a1"], 3]],
            [[["a", "a1"], "3"]],
        ],
        ids=["negative-count", "path-named-twice", "string-count"],
    )
    def test_a_row_no_session_writes_is_refused(self, tmp_path, rows):
        path = self.checkpoint_with_pending(tmp_path / "ckpt.json", rows)
        with pytest.raises(CheckpointError, match="pending"):
            DetectionSession.load_checkpoint(path)


class TestInvalidStoredConfig:
    """Settings that fail validation are a bad checkpoint, not a bad
    config: the load raises ``CheckpointError`` (chained to the cause)."""

    def test_a_stored_config_that_fails_validation(self, tmp_path):
        path = tmp_path / "ckpt.json"
        state = _small_checkpoint(path)
        state["sessions"][0]["config"]["window_units"] = 0
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="window_units") as caught:
            DetectionSession.load_checkpoint(path)
        assert isinstance(caught.value.__cause__, ConfigurationError)

    def test_a_series_of_another_window_length(self, tmp_path):
        path = tmp_path / "ckpt.json"
        state = _small_checkpoint(path)
        state["sessions"][0]["algorithm_state"]["series"][0][1]["length"] = 4
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="length 4") as caught:
            DetectionSession.load_checkpoint(path)
        assert isinstance(caught.value.__cause__, ConfigurationError)


class TestCustomPluginCheckpointing:
    def test_unknown_seasonal_kind_raises_checkpoint_error(self, tmp_path):
        from repro.core.config import ForecastConfig
        from repro.forecasting.bank import load_seasonal_state

        with pytest.raises(CheckpointError, match="'mystery'; known kinds"):
            load_seasonal_state({"kind": "mystery"})
        assert ForecastConfig  # silence unused-import linters

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
