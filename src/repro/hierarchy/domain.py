"""Declarative description of a hierarchical domain.

A :class:`DomainSpec` captures the *shape* of a hierarchy -- the level names
and the typical branching factor at each level (the paper's Table II) --
without enumerating every node.  The synthetic data generators
(:mod:`repro.datagen`) expand a spec into a concrete
:class:`~repro.hierarchy.tree.HierarchyTree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LevelSpec:
    """One level of a hierarchical domain.

    Parameters
    ----------
    name:
        Level name (e.g. ``"VHO"``, ``"IO"``, ``"CO"``, ``"DSLAM"``).
    typical_degree:
        Typical number of children each node at the *previous* level has at
        this level.  This matches the paper's Table II convention, where the
        degree at level k is the fan-out from level k to level k+1 nodes.
    degree_dispersion:
        Relative dispersion of the per-parent degree when the generator draws
        actual degrees (0 means every parent has exactly ``typical_degree``
        children).
    """

    name: str
    typical_degree: int
    degree_dispersion: float = 0.25

    def __post_init__(self) -> None:
        if self.typical_degree < 1:
            raise ConfigurationError(
                f"level {self.name!r}: typical_degree must be >= 1, "
                f"got {self.typical_degree}"
            )
        if not 0.0 <= self.degree_dispersion <= 1.0:
            raise ConfigurationError(
                f"level {self.name!r}: degree_dispersion must be in [0, 1]"
            )


@dataclass(frozen=True)
class DomainSpec:
    """Shape of a hierarchical domain.

    The root is implicit; ``levels[k]`` describes the nodes at depth ``k+1``.
    ``depth`` (including the root) is therefore ``len(levels) + 1``.
    """

    name: str
    root_label: str
    levels: tuple[LevelSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError("a DomainSpec needs at least one level")

    @property
    def depth(self) -> int:
        """Number of levels including the root (the paper's "Depth")."""
        return len(self.levels) + 1

    @property
    def typical_degrees(self) -> tuple[int, ...]:
        """Typical degree at each level, Table II style."""
        return tuple(level.typical_degree for level in self.levels)


# ----------------------------------------------------------------------
# Canonical domains from the paper (Table II)
# ----------------------------------------------------------------------

#: CCD trouble-description hierarchy: 5 levels, typical degrees 9 / 6 / 3 / 5.
CCD_TROUBLE_DOMAIN = DomainSpec(
    name="ccd-trouble-description",
    root_label="All",
    levels=(
        LevelSpec("Product", 9),
        LevelSpec("TroubleClass", 6),
        LevelSpec("TroubleDetail", 3),
        LevelSpec("Resolution", 5),
    ),
)

#: CCD network-path hierarchy: SHO -> VHO -> IO -> CO -> DSLAM, degrees
#: 61 / 5 / 6 / 24.
CCD_NETWORK_DOMAIN = DomainSpec(
    name="ccd-network-path",
    root_label="SHO",
    levels=(
        LevelSpec("VHO", 61),
        LevelSpec("IO", 5),
        LevelSpec("CO", 6),
        LevelSpec("DSLAM", 24),
    ),
)

#: SCD network-path hierarchy: 4 levels, degrees 2000 / 30 / 6.  The first
#: level degree is scaled down by generators for laptop-size traces; the spec
#: records the paper's reported value.
SCD_NETWORK_DOMAIN = DomainSpec(
    name="scd-network-path",
    root_label="National",
    levels=(
        LevelSpec("CO", 2000),
        LevelSpec("DSLAM", 30),
        LevelSpec("STB", 6),
    ),
)
