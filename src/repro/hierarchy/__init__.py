"""Hierarchical domain substrate (Section III of the paper).

This package provides the additive hierarchy (tree) over which Tiresias
aggregates operational data: the tree, built once from its leaf paths into
BFS-numbered arrays that are also the index the detection sweeps run over,
declarative domain specifications matching the paper's Table II, and
builders that expand those specifications into concrete trees for the
synthetic datasets.
"""

from repro.hierarchy.builders import (
    CCD_TICKET_TYPES,
    build_ccd_network_tree,
    build_ccd_trouble_tree,
    build_scd_network_tree,
    build_tree_from_spec,
)
from repro.hierarchy.domain import (
    CCD_NETWORK_DOMAIN,
    CCD_TROUBLE_DOMAIN,
    SCD_NETWORK_DOMAIN,
    DomainSpec,
    LevelSpec,
)
from repro.hierarchy.tree import HierarchyTree

__all__ = [
    "HierarchyTree",
    "DomainSpec",
    "LevelSpec",
    "CCD_TROUBLE_DOMAIN",
    "CCD_NETWORK_DOMAIN",
    "SCD_NETWORK_DOMAIN",
    "CCD_TICKET_TYPES",
    "build_tree_from_spec",
    "build_ccd_trouble_tree",
    "build_ccd_network_tree",
    "build_scd_network_tree",
]
