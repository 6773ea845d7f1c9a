"""Online reconfiguration: hot-swap a session's config at a timeunit boundary.

The paper tunes the detector through parameters (θ, RT/DT, the split rule,
the forecasting model) whose sensitivity it studies offline (Section VII).
A production monitor cannot afford the offline loop — re-warming a detector
after every parameter change discards weeks of sliding-window state.  This
module applies a compatible :meth:`TiresiasConfig.replace` delta to a *live*
session state instead:

* **Hot-swappable** fields take effect at the next timeunit close: ``theta``,
  ``ratio_threshold``, ``difference_threshold``, ``split_rule``,
  ``split_ewma_alpha``, ``out_of_order_policy`` and every forecasting
  parameter (``forecast.*``).
* **Frozen** fields change the meaning of the accumulated state itself and
  are rejected with :class:`~repro.exceptions.ConfigurationError`:
  ``delta_seconds`` and ``window_units`` (the timeunit grid and ring sizes),
  ``reference_levels`` / ``track_root`` / ``allow_root_heavy`` (which nodes
  carry state).  The hierarchy is likewise fixed — it is part of the session,
  not the config.

When the forecasting configuration changes, every tracked node's forecaster
is **re-seeded from its live actual-value window**
(:meth:`ForecasterBank.seed_fast
<repro.forecasting.bank.ForecasterBank.seed_fast>` on a row of a bank under
the new config, the same O(season) primitive the reference-series
correction uses) instead of re-warming from scratch — the new model starts
with the history the old model accumulated.

Everything operates on the JSON-safe session state
(:meth:`~repro.engine.session.DetectionSession.state_dict`), so a
reconfigured state is by construction a valid checkpoint: reconfigure →
save → load round-trips exactly.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Mapping

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.exceptions import ConfigurationError
from repro.forecasting.bank import ForecasterBank
from repro.io.checkpoint import config_from_dict, config_to_dict

#: Config fields that cannot change on a live session: they define the
#: timeunit grid and the node set the accumulated state was built over.
FROZEN_FIELDS: tuple[str, ...] = (
    "delta_seconds",
    "window_units",
    "reference_levels",
    "track_root",
    "allow_root_heavy",
)


def check_reconfigurable(old: TiresiasConfig, new: TiresiasConfig) -> None:
    """Raise unless ``new`` is a hot-swappable delta of ``old``.

    Frozen-field changes (timeunit grid, window length, tracked-node policy)
    require a fresh session; everything else may change online.
    """
    frozen = [
        name for name in FROZEN_FIELDS if getattr(old, name) != getattr(new, name)
    ]
    if frozen:
        raise ConfigurationError(
            f"cannot reconfigure a live session: field(s) {frozen} are frozen "
            f"(they define the timeunit grid and the tracked-state layout); "
            f"start a fresh session to change them"
        )


def config_with_updates(
    config: TiresiasConfig, delta: Mapping[str, Any]
) -> TiresiasConfig:
    """Apply a JSON config delta (e.g. an HTTP request body) to ``config``.

    Top-level keys map to :class:`TiresiasConfig` fields; the ``"forecast"``
    key is itself a partial delta merged into the current
    :class:`ForecastConfig`.  Unknown keys raise
    :class:`~repro.exceptions.ConfigurationError` (a typo must not silently
    keep the old value), and the resulting configs re-validate themselves.
    """
    if not isinstance(delta, Mapping):
        raise ConfigurationError(
            f"config delta must be a JSON object, got {type(delta).__name__}"
        )
    changes = dict(delta)
    forecast_delta = changes.pop("forecast", None)
    field_names = {f.name for f in dataclasses.fields(TiresiasConfig)} - {"forecast"}
    unknown = sorted(set(changes) - field_names)
    if unknown:
        raise ConfigurationError(
            f"unknown config field(s) {unknown}; valid fields: "
            f"{sorted(field_names | {'forecast'})}"
        )
    if "window_units" in changes:
        changes["window_units"] = int(changes["window_units"])
    if forecast_delta is not None:
        if not isinstance(forecast_delta, Mapping):
            raise ConfigurationError("'forecast' delta must be a JSON object")
        fchanges = dict(forecast_delta)
        fc_names = {f.name for f in dataclasses.fields(ForecastConfig)}
        unknown = sorted(set(fchanges) - fc_names)
        if unknown:
            raise ConfigurationError(
                f"unknown forecast field(s) {unknown}; valid fields: "
                f"{sorted(fc_names)}"
            )
        if "season_lengths" in fchanges:
            fchanges["season_lengths"] = tuple(
                int(p) for p in fchanges["season_lengths"]
            )
        if fchanges.get("season_weights") is not None:
            fchanges["season_weights"] = tuple(
                float(w) for w in fchanges["season_weights"]
            )
        changes["forecast"] = config.forecast.replace(**fchanges)
    try:
        return config.replace(**changes)
    except TypeError as exc:
        raise ConfigurationError(f"invalid config delta: {exc}") from exc


def reconfigured_state(
    state: Mapping[str, Any],
    new_config: TiresiasConfig,
    name: "str | None" = None,
) -> dict[str, Any]:
    """A copy of a checkpointed session ``state`` under ``new_config``.

    The compatibility check of :func:`check_reconfigurable` runs against the
    state's stored config.  When the forecasting configuration changed, each
    tracked series' forecaster state is rebuilt from that series' live
    actual-value window — the restored session's models carry the observed
    history forward instead of re-warming.  Clock, pending counts, warm-up
    bookkeeping and reports pass through untouched, so the result loads with
    :meth:`~repro.engine.session.DetectionSession.from_state_dict` and
    continues at exactly the stream position the input state was taken at.
    """
    if "shadow" in state:
        raise ConfigurationError(
            "cannot reconfigure a state that carries a shadow session; "
            "stop or promote the shadow first"
        )
    old_config = config_from_dict(state["config"])
    check_reconfigurable(old_config, new_config)
    new_state = copy.deepcopy(dict(state))
    new_state["config"] = config_to_dict(new_config)
    if name is not None:
        new_state["name"] = str(name)
    forecast_changed = (
        new_state["config"]["forecast"] != dict(state["config"])["forecast"]
    )
    algo_state = new_state.get("algorithm_state")
    if forecast_changed and isinstance(algo_state, Mapping) and "series" in algo_state:
        bank = ForecasterBank(new_config.forecast)
        for _path, ts_state in algo_state["series"]:
            row = bank.new_row()
            bank.seed_fast(row, [float(value) for value in ts_state["actual"]])
            ts_state["forecaster"] = bank.row_state_dict(row)
            bank.free_row(row)
    return new_state
