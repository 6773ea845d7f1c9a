"""The tracking-algorithm registry: algorithms resolve by *name*.

An **algorithm factory** is a callable ``factory(tree, config) -> algorithm``
returning an object with the tracking-algorithm protocol
(``process_timeunit``, ``stage_seconds``, ``memory_units``, ...).  The
built-in entries are ``"ada"`` and ``"sta"``, whose classes are their own
factories.  Registered names are resolved by
:class:`~repro.engine.session.DetectionSession`.

Forecasting models resolve by name the same way, through the registry next
to the forecasters (:mod:`repro.forecasting.registry`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.ada import ADAAlgorithm
from repro.core.sta import STAAlgorithm
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import TiresiasConfig
    from repro.hierarchy.tree import HierarchyTree

AlgorithmFactory = Callable[["HierarchyTree", "TiresiasConfig"], Any]

_ALGORITHMS: dict[str, AlgorithmFactory] = {
    "ada": ADAAlgorithm,
    "sta": STAAlgorithm,
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
