"""Builders that expand a :class:`~repro.hierarchy.domain.DomainSpec` into a
concrete :class:`~repro.hierarchy.tree.HierarchyTree`.

The paper's hierarchies come from a predefined trouble-category catalogue and
from the ISP's network topology database.  We do not have either, so the
builders create deterministic, reproducible label trees whose shape matches
the spec (Table II), optionally scaled down so that SCD's 2,000-wide first
level stays tractable on a laptop.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.hierarchy.domain import (
    CCD_NETWORK_DOMAIN,
    CCD_TROUBLE_DOMAIN,
    SCD_NETWORK_DOMAIN,
    DomainSpec,
)
from repro.hierarchy.tree import HierarchyTree

#: Labels used for the first level of the CCD trouble hierarchy, taken from
#: the paper's Table I so that the generated ticket-type mix can be reported
#: with the same names.
CCD_TICKET_TYPES: tuple[str, ...] = (
    "TV",
    "All Products",
    "Internet",
    "Wireless",
    "Phone",
    "Email",
    "Remote Control",
    "Provisioning",
    "Other",
)


def _draw_degree(rng: random.Random, typical: int, dispersion: float) -> int:
    """Draw a per-parent branching factor around ``typical``."""
    if dispersion <= 0.0 or typical == 1:
        return typical
    low = max(1, int(round(typical * (1.0 - dispersion))))
    high = max(low, int(round(typical * (1.0 + dispersion))))
    return rng.randint(low, high)


def build_tree_from_spec(
    spec: DomainSpec,
    seed: int = 0,
    scale: float = 1.0,
    max_leaves: Optional[int] = None,
    label_prefixes: Optional[dict[int, str]] = None,
    first_level_labels: Optional[tuple[str, ...]] = None,
) -> HierarchyTree:
    """Build a concrete hierarchy matching ``spec``.

    Parameters
    ----------
    spec:
        The domain shape to expand.
    seed:
        Seed for the degree-dispersion RNG; the same seed always yields the
        same tree.
    scale:
        Multiplier applied to every typical degree, used to shrink very wide
        hierarchies (the SCD first level) for laptop-scale experiments.
    max_leaves:
        Optional hard cap on the number of leaves.  Construction stops adding
        subtrees once the cap is reached.
    label_prefixes:
        Optional map from depth (1-based) to the label prefix used at that
        depth; defaults to the level name from the spec.
    first_level_labels:
        Optional explicit labels for the first level (used by the CCD trouble
        hierarchy to reuse the paper's ticket-type names).
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    rng = random.Random(seed)
    tree = HierarchyTree(root_label=spec.root_label)
    label_prefixes = label_prefixes or {}

    def prefix_for(depth: int) -> str:
        return label_prefixes.get(depth, spec.levels[depth - 1].name)

    def expand(node, depth: int) -> None:
        if max_leaves is not None and tree.num_leaves >= max_leaves:
            return
        if depth > len(spec.levels):
            return
        level = spec.levels[depth - 1]
        typical = max(1, int(round(level.typical_degree * scale)))
        if depth == 1 and first_level_labels:
            labels = list(first_level_labels[:typical])
            while len(labels) < typical:
                labels.append(f"{prefix_for(depth)}-{len(labels):03d}")
        else:
            degree = _draw_degree(rng, typical, level.degree_dispersion)
            labels = [f"{prefix_for(depth)}-{i:03d}" for i in range(degree)]
        for label in labels:
            if max_leaves is not None and tree.num_leaves >= max_leaves:
                return
            child = tree.add_node(node, label, leaf=depth == len(spec.levels))
            if depth < len(spec.levels):
                expand(child, depth + 1)

    expand(tree.root, 1)
    tree.validate()
    return tree


def build_ccd_trouble_tree(seed: int = 0, scale: float = 1.0) -> HierarchyTree:
    """The CCD trouble-description hierarchy (5 levels, Table II row 1)."""
    return build_tree_from_spec(
        CCD_TROUBLE_DOMAIN,
        seed=seed,
        scale=scale,
        first_level_labels=CCD_TICKET_TYPES,
        label_prefixes={2: "Class", 3: "Detail", 4: "Resolution"},
    )


def build_ccd_network_tree(
    seed: int = 0, scale: float = 0.2, max_leaves: Optional[int] = 8000
) -> HierarchyTree:
    """The CCD network-path hierarchy (SHO/VHO/IO/CO/DSLAM, Table II row 2).

    The full-size hierarchy has roughly 61*5*6*24 = 43,920 leaves; the default
    ``scale`` keeps the generated tree around a few thousand leaves, which
    preserves the relative widths of the levels while keeping experiments
    fast.  Pass ``scale=1.0`` for the paper-size tree.
    """
    return build_tree_from_spec(
        CCD_NETWORK_DOMAIN, seed=seed, scale=scale, max_leaves=max_leaves
    )


def build_scd_network_tree(
    seed: int = 0, scale: float = 0.05, max_leaves: Optional[int] = 20000
) -> HierarchyTree:
    """The SCD network-path hierarchy (4 levels, Table II row 3).

    The paper's first level has ~2,000 COs; the default scale reduces that to
    ~100 while keeping the 2000:30:6 degree ratios.
    """
    return build_tree_from_spec(
        SCD_NETWORK_DOMAIN, seed=seed, scale=scale, max_leaves=max_leaves
    )
