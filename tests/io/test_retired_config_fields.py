"""Documents naming a retired option are refused, never silently dropped.

``TiresiasConfig.min_heavy_depth`` kept the nodes above a depth from
qualifying as heavy, so depth-k subtree cuts could be exact; subtree shards
now cut at depth 1 only and the field is gone.  A config document written
while it existed names it only when it was not 1, so loading such a document
without it would change its detections: every entry point refuses it with an
error that names the field.  A config without it loads and writes exactly
the bytes it did before.

``ForecastConfig.model`` named the seasonal model; the model now follows
from the number of ``season_lengths``.  Documents still carry the key
(``"auto"``, so checkpoint bytes do not move), and one naming ``"auto"`` or
the form the periods pick loads as before.  Any other name asked for a model
that no longer exists, and is refused with an error naming
``forecast.model``.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.engine import DetectionEngine
from repro.engine.reconfig import reconfigured_state
from repro.engine.session import DetectionSession
from repro.engine.sharded import ShardedDetectionEngine
from repro.core.config import ForecastConfig
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io.checkpoint import config_from_dict, config_to_dict
from repro.service.config import TenantSpec
from repro.streaming.record import OperationalRecord

from tests.service.conftest import tenant_spec_for, tiny_dataset

#: Values an older config document can carry: it was written only when it
#: was not 1, but a hand-edited document may name 1 too.
RETIRED_VALUES = [1, 2, 3]


def session_state(small_tree, config, clock, min_heavy_depth=None) -> dict:
    """A serial session state after a few records, its config naming
    ``min_heavy_depth`` when one is given."""
    session = DetectionSession(small_tree, config, clock=clock, name="s")
    leaves = small_tree.leaf_paths()
    session.ingest_batch(
        [OperationalRecord(i * 300.0, leaves[i % len(leaves)]) for i in range(12)]
    )
    state = json.loads(json.dumps(session.state_dict()))
    if min_heavy_depth is not None:
        state["config"]["min_heavy_depth"] = min_heavy_depth
    return state


@pytest.fixture
def root_free_config(fast_config):
    return fast_config.replace(track_root=False, allow_root_heavy=False)


def test_the_config_has_no_min_heavy_depth(fast_config):
    assert not hasattr(fast_config, "min_heavy_depth")
    with pytest.raises(TypeError):
        fast_config.replace(min_heavy_depth=2)
    assert "min_heavy_depth" not in config_to_dict(fast_config)


@pytest.mark.parametrize("value", RETIRED_VALUES)
def test_config_from_dict_refuses_it(fast_config, value):
    document = dict(config_to_dict(fast_config), min_heavy_depth=value)
    with pytest.raises(CheckpointError, match="min_heavy_depth"):
        config_from_dict(document)


def test_a_config_without_it_round_trips(fast_config):
    document = config_to_dict(fast_config)
    assert config_from_dict(document) == fast_config
    assert config_to_dict(config_from_dict(document)) == document


@pytest.mark.parametrize("value", RETIRED_VALUES)
def test_a_session_checkpoint_naming_it_is_refused(
    small_tree, fast_config, clock, tmp_path, value
):
    state = session_state(small_tree, fast_config, clock, min_heavy_depth=value)
    with pytest.raises(CheckpointError, match="min_heavy_depth"):
        DetectionSession.from_state_dict(state)
    path = tmp_path / "session.json"
    path.write_text(
        json.dumps({"format": "tiresias-checkpoint", "version": 1, "sessions": [state]})
    )
    with pytest.raises(CheckpointError, match="min_heavy_depth"):
        DetectionEngine.load_checkpoint(path)


def test_an_engine_checkpoint_naming_it_is_refused(
    small_tree, fast_config, clock, tmp_path
):
    """A saved engine file whose config names ``"min_heavy_depth": 2``."""
    engine = DetectionEngine()
    engine.attach_session(
        DetectionSession.from_state_dict(session_state(small_tree, fast_config, clock))
    )
    path = tmp_path / "engine.json"
    engine.save_checkpoint(path)
    document = json.loads(path.read_text())
    document["sessions"][0]["config"]["min_heavy_depth"] = 2
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointError, match="min_heavy_depth"):
        DetectionEngine.load_checkpoint(path)


@pytest.mark.parametrize("shards", [1, 2])
def test_a_sharded_engine_refuses_it_before_any_worker_starts(
    small_tree, root_free_config, clock, shards
):
    state = session_state(small_tree, root_free_config, clock, min_heavy_depth=2)
    document = {"format": "tiresias-checkpoint", "version": 1, "sessions": [state]}
    with pytest.raises(CheckpointError, match="min_heavy_depth"):
        ShardedDetectionEngine.from_state_dict(
            document, num_workers=1, subtree_shards=shards
        )


def test_reconfiguring_a_state_naming_it_is_refused(small_tree, fast_config, clock):
    state = session_state(small_tree, fast_config, clock, min_heavy_depth=2)
    with pytest.raises(CheckpointError, match="min_heavy_depth"):
        reconfigured_state(state, fast_config.replace(theta=7.0))


@pytest.mark.parametrize("value", RETIRED_VALUES)
def test_a_tenant_spec_naming_it_is_refused(value):
    document = tenant_spec_for("t", tiny_dataset()).to_dict()
    document["config"]["min_heavy_depth"] = value
    with pytest.raises(ConfigurationError, match="min_heavy_depth"):
        TenantSpec.from_dict(document)


#: (seasonal periods, a ``forecast.model`` those periods do not pick).
FOREIGN_MODELS = [
    ((8,), "multi-seasonal-holt-winters"),
    ((4, 8), "holt-winters"),
    ((8,), "arima"),
]

#: (seasonal periods, the model name they pick).
PICKED_MODELS = [((8,), "holt-winters"), ((4, 8), "multi-seasonal-holt-winters")]


def with_seasons(config, seasons):
    return config.replace(forecast=config.forecast.with_seasons(seasons))


def test_the_forecast_config_has_no_model(fast_config):
    assert not hasattr(fast_config.forecast, "model")
    with pytest.raises(TypeError):
        ForecastConfig(model="auto")
    assert config_to_dict(fast_config)["forecast"]["model"] == "auto"


@pytest.mark.parametrize("seasons, model", FOREIGN_MODELS)
def test_config_from_dict_refuses_a_model_the_periods_do_not_pick(
    fast_config, seasons, model
):
    document = config_to_dict(with_seasons(fast_config, seasons))
    document["forecast"]["model"] = model
    with pytest.raises(CheckpointError, match=r"forecast\.model"):
        config_from_dict(document)


@pytest.mark.parametrize("seasons, model", PICKED_MODELS)
def test_a_config_naming_the_picked_model_loads(fast_config, seasons, model):
    config = with_seasons(fast_config, seasons)
    document = config_to_dict(config)
    document["forecast"]["model"] = model
    assert config_from_dict(document) == config
    assert config_to_dict(config_from_dict(document)) == config_to_dict(config)


@pytest.mark.parametrize("seasons", [(8,), (4, 8)])
def test_a_config_without_a_model_loads(fast_config, seasons):
    config = with_seasons(fast_config, seasons)
    document = config_to_dict(config)
    del document["forecast"]["model"]
    assert config_from_dict(document) == config


def test_a_session_checkpoint_naming_a_foreign_model_is_refused(
    small_tree, fast_config, clock
):
    state = session_state(small_tree, fast_config, clock)
    state["config"]["forecast"]["model"] = "multi-seasonal-holt-winters"
    with pytest.raises(CheckpointError, match=r"forecast\.model"):
        DetectionSession.from_state_dict(state)


@pytest.mark.parametrize("model", ["multi-seasonal-holt-winters", "arima"])
def test_a_tenant_spec_naming_a_foreign_model_is_refused(model):
    document = tenant_spec_for("t", tiny_dataset()).to_dict()
    assert document["config"]["forecast"]["season_lengths"] == [8]
    document["config"]["forecast"]["model"] = model
    with pytest.raises(ConfigurationError, match=r"forecast\.model"):
        TenantSpec.from_dict(document)
