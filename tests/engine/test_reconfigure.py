"""Online reconfiguration: hot-swap semantics, frozen fields, round trips."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import ForecastConfig
from repro.engine.reconfig import (
    FROZEN_FIELDS,
    check_reconfigurable,
    config_with_updates,
    reconfigured_state,
)
from repro.engine.session import DetectionSession
from repro.exceptions import ConfigurationError
from repro.streaming.batch import RecordBatch

from tests.service.conftest import (
    state_bytes,
    tiny_dataset,
    tiny_detector_config,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=11, duration_days=0.6)


@pytest.fixture(scope="module")
def records(dataset):
    return list(dataset.records())


def build_session(dataset, config=None, name="primary"):
    return DetectionSession(
        dataset.tree,
        config or tiny_detector_config(),
        clock=dataset.clock,
        name=name,
    )


# ----------------------------------------------------------------------
# Delta application
# ----------------------------------------------------------------------
class TestConfigDelta:
    def test_applies_threshold_and_split_changes(self):
        config = tiny_detector_config()
        new = config_with_updates(
            config, {"theta": 3.0, "ratio_threshold": 1.5, "split_rule": "ewma"}
        )
        assert new.theta == 3.0
        assert new.ratio_threshold == 1.5
        assert new.split_rule == "ewma"
        # Everything else is untouched.
        assert new.delta_seconds == config.delta_seconds
        assert new.forecast == config.forecast

    def test_forecast_delta_merges(self):
        config = tiny_detector_config()
        new = config_with_updates(
            config, {"forecast": {"alpha": 0.42, "season_lengths": [4, 8]}}
        )
        assert new.forecast.alpha == 0.42
        assert new.forecast.season_lengths == (4, 8)
        assert new.forecast.fallback_alpha == config.forecast.fallback_alpha

    def test_season_weights_are_coerced_to_floats(self):
        config = tiny_detector_config()
        new = config_with_updates(
            config, {"forecast": {"season_lengths": [4, 8], "season_weights": [1, 0]}}
        )
        assert new.forecast.season_weights == (1.0, 0.0)
        assert all(type(w) is float for w in new.forecast.season_weights)

    def test_ill_typed_value_rejected(self):
        config = tiny_detector_config()
        with pytest.raises(ConfigurationError, match="invalid config delta"):
            config_with_updates(config, {"theta": "high"})

    def test_unknown_keys_rejected(self):
        config = tiny_detector_config()
        with pytest.raises(ConfigurationError, match="unknown config field"):
            config_with_updates(config, {"thetta": 3.0})
        with pytest.raises(ConfigurationError, match="unknown forecast field"):
            config_with_updates(config, {"forecast": {"alpha_": 0.5}})

    def test_non_object_deltas_rejected(self):
        config = tiny_detector_config()
        with pytest.raises(ConfigurationError):
            config_with_updates(config, ["theta", 3.0])
        with pytest.raises(ConfigurationError):
            config_with_updates(config, {"forecast": 0.5})


# ----------------------------------------------------------------------
# Compatibility gate
# ----------------------------------------------------------------------
class TestFrozenFields:
    @pytest.mark.parametrize("field", FROZEN_FIELDS)
    def test_each_frozen_field_is_rejected(self, field):
        config = tiny_detector_config()
        current = getattr(config, field)
        changed = (not current) if isinstance(current, bool) else current + 1
        with pytest.raises(ConfigurationError, match=field):
            check_reconfigurable(config, config.replace(**{field: changed}))

    def test_unknown_forecaster_model_rejected(self):
        config = tiny_detector_config()
        with pytest.raises(ConfigurationError):
            bad = config.replace(forecast=ForecastConfig(model="no-such-model"))
            check_reconfigurable(config, bad)

    def test_live_session_rejects_frozen_delta(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:200])
        with pytest.raises(ConfigurationError, match="window_units"):
            session.reconfigure(session.config.replace(window_units=96))
        # The failed attempt left the session untouched.
        assert session.config.window_units == 48


# ----------------------------------------------------------------------
# Mid-stream semantics
# ----------------------------------------------------------------------
class TestMidStreamReconfigure:
    def test_a_state_that_carries_a_shadow_is_refused(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:50])
        session.start_shadow(tiny_detector_config().replace(theta=2.0))
        with pytest.raises(ConfigurationError, match="shadow"):
            reconfigured_state(session.state_dict(), tiny_detector_config().replace(theta=3.0))

    def test_reconfigure_matches_checkpoint_surgery(self, dataset, records):
        """A live reconfigure equals restore-from-reconfigured-checkpoint."""
        cut = len(records) // 2
        new_config = tiny_detector_config().replace(theta=2.0, split_rule="ewma")

        live = build_session(dataset)
        live.ingest_batch(records[:cut])
        mid_state = live.state_dict()
        live.reconfigure(new_config)
        live.ingest_batch(records[cut:])
        live.flush()

        restored = DetectionSession.from_state_dict(
            reconfigured_state(mid_state, new_config)
        )
        restored.ingest_batch(records[cut:])
        restored.flush()

        assert state_bytes(live.state_dict()) == state_bytes(restored.state_dict())
        assert [a.to_dict() for a in live.anomalies] == [
            a.to_dict() for a in restored.anomalies
        ]

    def test_threshold_swap_changes_detections(self, dataset, records):
        """The swap is real: post-swap detections differ from an unswapped run.

        θ drives the heavy-hitter split decisions, so a swap moves
        detections across hierarchy levels rather than monotonically adding
        them — the sets must differ, not just grow.
        """
        baseline = build_session(dataset)
        baseline.process_stream(iter(records))

        swapped = build_session(dataset)
        cut = len(records) // 3
        swapped.ingest_batch(records[:cut])
        swapped.reconfigure(swapped.config.replace(theta=1.5, ratio_threshold=1.1))
        swapped.ingest_batch(records[cut:])
        swapped.flush()
        assert [a.to_dict() for a in swapped.anomalies] != [
            a.to_dict() for a in baseline.anomalies
        ]

    def test_preserves_stream_position_and_reports(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[:300])
        units_before = session.units_processed
        pending_before = session.state_dict()["pending"]
        anomalies_before = [a.to_dict() for a in session.anomalies]
        session.reconfigure(session.config.replace(theta=4.0))
        assert session.units_processed == units_before
        assert session.state_dict()["pending"] == pending_before
        assert [a.to_dict() for a in session.anomalies] == anomalies_before

    def test_serial_and_columnar_paths_agree_after_reconfigure(
        self, dataset, records
    ):
        cut = len(records) // 2
        new_config = tiny_detector_config().replace(theta=2.5)

        serial = build_session(dataset)
        serial.ingest_batch(records[:cut])
        serial.reconfigure(new_config)
        for record in records[cut:]:
            serial.ingest_record(record)
        serial.flush()

        columnar = build_session(dataset)
        columnar.ingest_record_batch(RecordBatch.from_records(records[:cut]))
        columnar.reconfigure(new_config)
        columnar.ingest_record_batch(RecordBatch.from_records(records[cut:]))
        columnar.flush()

        assert state_bytes(serial.state_dict()) == state_bytes(
            columnar.state_dict()
        )


# ----------------------------------------------------------------------
# Forecast re-seeding
# ----------------------------------------------------------------------
class TestForecastReseed:
    def test_forecast_change_reseeds_and_round_trips(self, dataset, records):
        session = build_session(dataset)
        session.ingest_batch(records[: len(records) // 2])
        new_config = session.config.replace(
            forecast=session.config.forecast.replace(alpha=0.7, season_lengths=(4,))
        )
        session.reconfigure(new_config)
        assert session.config.forecast.alpha == 0.7
        # Reconfigured state is a valid checkpoint and round-trips exactly.
        state = session.state_dict()
        assert state_bytes(
            DetectionSession.from_state_dict(state).state_dict()
        ) == state_bytes(state)
        # The session keeps detecting under the new model.
        session.ingest_batch(records[len(records) // 2 :])
        session.flush()
        assert session.units_processed > 0


# ----------------------------------------------------------------------
# In a fresh process
# ----------------------------------------------------------------------
_SUBPROCESS_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from repro.engine.session import DetectionSession
from repro.engine.reconfig import reconfigured_state
from tests.service.conftest import state_bytes, tiny_dataset, tiny_detector_config

dataset = tiny_dataset(seed=11, duration_days=0.6)
records = list(dataset.records())
cut = len(records) // 2
new_config = tiny_detector_config().replace(theta=2.0, split_rule="ewma")

live = DetectionSession(dataset.tree, tiny_detector_config(), clock=dataset.clock)
live.ingest_batch(records[:cut])
mid = live.state_dict()
live.reconfigure(new_config)
live.ingest_batch(records[cut:])
live.flush()

restored = DetectionSession.from_state_dict(reconfigured_state(mid, new_config))
restored.ingest_batch(records[cut:])
restored.flush()
assert state_bytes(live.state_dict()) == state_bytes(restored.state_dict())
print(state_bytes(live.state_dict()).hex())
"""


def _run_reconfigure_subprocess() -> str:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    script = _SUBPROCESS_SCRIPT.format(
        src=str(REPO_ROOT / "src"), root=str(REPO_ROOT)
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.strip()


def test_reconfigure_round_trips_in_a_fresh_process():
    """A live reconfigure and a restore of the reconfigured checkpoint land
    on the same final state in a process of their own (no state shared with
    the test process)."""
    assert _run_reconfigure_subprocess()
