"""Pluggable algorithm and forecaster registries.

Tracking algorithms (``"ada"``, ``"sta"``, sharded ADA, approximate
sketches, ...) and forecasting models (Holt-Winters, ARIMA-style, learned,
...) both resolve by *name*:

* an **algorithm factory** is a callable ``factory(tree, config) -> algorithm``
  returning an object with the tracking-algorithm protocol
  (``process_timeunit``, ``stage_seconds``, ``memory_units``, ...);
* a **forecaster factory** is a callable ``factory(forecast_config) -> model``
  returning an object with the :class:`~repro.forecasting.base.Forecaster`
  protocol (``initialize``, ``forecast``, ``update``).

The built-in entries (``"ada"``, ``"sta"``; ``"holt-winters"``,
``"multi-seasonal-holt-winters"``) are registered lazily so that importing the
registry never creates an import cycle with the algorithm modules.

Registered names are resolved by :class:`~repro.engine.session.DetectionSession`
for algorithms, and by :class:`~repro.forecasting.bank.ForecasterBank` for
forecasting models whenever ``ForecastConfig.model`` names one explicitly
(a built-in model by name gets matrix rows, a plug-in object rows).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.config import ForecastConfig, TiresiasConfig
    from repro.hierarchy.tree import HierarchyTree

AlgorithmFactory = Callable[["HierarchyTree", "TiresiasConfig"], Any]
ForecasterFactory = Callable[["ForecastConfig"], Any]


# ----------------------------------------------------------------------
# Built-in factories (lazy imports: ada/sta import the forecaster bank,
# which imports this registry for named forecasting models).
# ----------------------------------------------------------------------
def _ada_factory(tree: "HierarchyTree", config: "TiresiasConfig") -> Any:
    from repro.core.ada import ADAAlgorithm

    return ADAAlgorithm(tree, config)


def _sta_factory(tree: "HierarchyTree", config: "TiresiasConfig") -> Any:
    from repro.core.sta import STAAlgorithm

    return STAAlgorithm(tree, config)


def _holt_winters_factory(config: "ForecastConfig") -> Any:
    from repro.forecasting.holt_winters import HoltWintersForecaster

    return HoltWintersForecaster(
        alpha=config.alpha,
        beta=config.beta,
        gamma=config.gamma,
        season_length=config.season_lengths[0],
    )


def _multi_seasonal_factory(config: "ForecastConfig") -> Any:
    from repro.forecasting.holt_winters import MultiSeasonalHoltWinters

    return MultiSeasonalHoltWinters(
        alpha=config.alpha,
        beta=config.beta,
        gamma=config.gamma,
        season_lengths=config.season_lengths,
        season_weights=config.season_weights,
    )


_ALGORITHMS: dict[str, AlgorithmFactory] = {
    "ada": _ada_factory,
    "sta": _sta_factory,
}

_FORECASTERS: dict[str, ForecasterFactory] = {
    "holt-winters": _holt_winters_factory,
    "multi-seasonal-holt-winters": _multi_seasonal_factory,
}


def _holt_winters_loader(state: dict) -> Any:
    from repro.forecasting.holt_winters import HoltWintersForecaster

    return HoltWintersForecaster.from_state_dict(state)


def _multi_seasonal_loader(state: dict) -> Any:
    from repro.forecasting.holt_winters import MultiSeasonalHoltWinters

    return MultiSeasonalHoltWinters.from_state_dict(state)


#: Loaders for seasonal-model ``state_dict`` snapshots, keyed by the
#: snapshot's ``"kind"`` tag (checkpoint restore resolves through this).
_FORECASTER_STATE_LOADERS: dict[str, Callable[[dict], Any]] = {
    "holt-winters": _holt_winters_loader,
    "multi-seasonal-holt-winters": _multi_seasonal_loader,
}


# ----------------------------------------------------------------------
# Algorithm registry
# ----------------------------------------------------------------------
def register_algorithm(
    name: str, factory: AlgorithmFactory, *, overwrite: bool = False
) -> None:
    """Register a tracking-algorithm factory under ``name``.

    ``factory(tree, config)`` must return an object with the tracking
    algorithm protocol used by the engine (``process_timeunit``,
    ``stage_seconds``, ``memory_units``, ``current_timeunit``).  To support
    ``save_checkpoint`` / ``load_checkpoint`` the algorithm must additionally
    implement ``state_dict()`` / ``load_state_dict(state)`` (JSON-safe);
    without them, checkpointing a session that uses the algorithm raises
    :class:`~repro.exceptions.CheckpointError`.
    """
    if not name:
        raise ConfigurationError("algorithm name must be non-empty")
    if name in _ALGORITHMS and not overwrite:
        raise ConfigurationError(
            f"algorithm {name!r} is already registered; pass overwrite=True to replace it"
        )
    _ALGORITHMS[name] = factory


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (built-ins included; use with care)."""
    _ALGORITHMS.pop(name, None)


def algorithm_factory(name: str) -> AlgorithmFactory:
    """The factory registered under ``name``; raises with the known names."""
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; registered algorithms: "
            f"{sorted(_ALGORITHMS)}"
        ) from None


def create_algorithm(name: str, tree: "HierarchyTree", config: "TiresiasConfig") -> Any:
    """Instantiate the algorithm registered under ``name``."""
    return algorithm_factory(name)(tree, config)


def available_algorithms() -> tuple[str, ...]:
    """Names of all registered algorithms, sorted."""
    return tuple(sorted(_ALGORITHMS))


# ----------------------------------------------------------------------
# Forecaster registry
# ----------------------------------------------------------------------
def register_forecaster(
    name: str,
    factory: ForecasterFactory,
    *,
    state_loader: "Callable[[dict], Any] | None" = None,
    overwrite: bool = False,
) -> None:
    """Register a forecasting-model factory under ``name``.

    ``factory(forecast_config)`` must return an object with the
    :class:`~repro.forecasting.base.Forecaster` protocol.  Select it with
    ``ForecastConfig(model=name)``.

    For checkpoint support the model must additionally implement
    ``state_dict()`` returning a JSON-safe dict with a ``"kind"`` tag, and a
    matching ``state_loader(state) -> model`` must be registered — either
    here or via :func:`register_forecaster_state_loader`.  The loader is
    keyed by the ``"kind"`` the model emits (conventionally ``name``).
    Without a loader, sessions using the model save checkpoints that cannot
    be restored.
    """
    if not name:
        raise ConfigurationError("forecaster name must be non-empty")
    if name in _FORECASTERS and not overwrite:
        raise ConfigurationError(
            f"forecaster {name!r} is already registered; pass overwrite=True to replace it"
        )
    _FORECASTERS[name] = factory
    if state_loader is not None:
        register_forecaster_state_loader(name, state_loader, overwrite=overwrite)


def unregister_forecaster(name: str) -> None:
    """Remove a registered forecaster (built-ins included; use with care)."""
    _FORECASTERS.pop(name, None)
    _FORECASTER_STATE_LOADERS.pop(name, None)


def register_forecaster_state_loader(
    kind: str, loader: "Callable[[dict], Any]", *, overwrite: bool = False
) -> None:
    """Register a checkpoint loader for seasonal-model snapshots of ``kind``.

    ``loader(state)`` receives the dict a model's ``state_dict()`` produced
    (including its ``"kind"`` tag) and must return a restored model instance.
    """
    if not kind:
        raise ConfigurationError("state-loader kind must be non-empty")
    if kind in _FORECASTER_STATE_LOADERS and not overwrite:
        raise ConfigurationError(
            f"a state loader for kind {kind!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _FORECASTER_STATE_LOADERS[kind] = loader


def forecaster_state_loader(kind: str) -> "Callable[[dict], Any]":
    """The checkpoint loader registered for snapshot ``kind``."""
    try:
        return _FORECASTER_STATE_LOADERS[kind]
    except KeyError:
        from repro.exceptions import CheckpointError

        raise CheckpointError(
            f"cannot restore seasonal model of kind {kind!r}; known kinds: "
            f"{sorted(_FORECASTER_STATE_LOADERS)} (register one with "
            f"register_forecaster_state_loader)"
        ) from None


def forecaster_factory(name: str) -> ForecasterFactory:
    """The factory registered under ``name``; raises with the known names."""
    try:
        return _FORECASTERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown forecaster {name!r}; registered forecasters: "
            f"{sorted(_FORECASTERS)}"
        ) from None


def builtin_forecaster_kind(name: str) -> "str | None":
    """The built-in model ``name`` resolves to — ``"holt-winters"`` or
    ``"multi-seasonal-holt-winters"`` — or None for a plug-in (or a name not
    registered yet).  The forecaster bank lays the built-in models out as
    matrix rows whatever name selects them."""
    factory = _FORECASTERS.get(name)
    if factory is _holt_winters_factory:
        return "holt-winters"
    if factory is _multi_seasonal_factory:
        return "multi-seasonal-holt-winters"
    return None


def create_forecaster(name: str, config: "ForecastConfig") -> Any:
    """Instantiate the forecasting model registered under ``name``."""
    return forecaster_factory(name)(config)


def available_forecasters() -> tuple[str, ...]:
    """Names of all registered forecasting models, sorted."""
    return tuple(sorted(_FORECASTERS))


def ensure_forecaster_resolvable(name: str) -> None:
    """Raise unless ``name`` is ``"auto"`` or a registered forecaster.

    :class:`~repro.core.config.ForecastConfig` accepts any non-empty model
    name (the registry entry may be loaded later); online reconfiguration
    cannot afford that laxity — swapping a live session onto an unregistered
    model would only fail at the next seasonal activation, long after the
    reconfigure call reported success.  Used by
    :func:`repro.engine.reconfig.check_reconfigurable`.
    """
    if name != "auto":
        forecaster_factory(name)
