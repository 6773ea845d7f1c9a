"""The tracking algorithms by name: the paper's two, and no others.

``"sta"`` is the exact baseline (§V-A) and ``"ada"`` the adaptive algorithm
(§V-B).  Each is a :class:`~repro.core.tracking.HierarchyTracker`: the shared
hierarchy front end (tree, config, dense index, detector, the heavy-mask
rules, ``sweep_timeunits``, ``process_timeunit``) plus the algorithm's own
close of one swept timeunit, which ``close_swept`` calls.
:class:`~repro.engine.session.DetectionSession` builds its algorithm from
the name here and ingests both through the same dense batch path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.ada import ADAAlgorithm
from repro.core.sta import STAAlgorithm
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import TiresiasConfig
    from repro.hierarchy.tree import HierarchyTree

#: The tracking algorithms, by the name a session, a tenant spec and a
#: checkpoint give.
ALGORITHMS = {"ada": ADAAlgorithm, "sta": STAAlgorithm}


def create_algorithm(
    name: str, tree: "HierarchyTree", config: "TiresiasConfig"
) -> "ADAAlgorithm | STAAlgorithm":
    """Instantiate the algorithm named ``name``; raises with the known names."""
    try:
        algorithm = ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known algorithms: {sorted(ALGORITHMS)}"
        ) from None
    return algorithm(tree, config)
