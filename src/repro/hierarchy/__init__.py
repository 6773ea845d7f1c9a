"""Hierarchical domain substrate (Section III of the paper).

This package provides the additive hierarchy (tree) over which Tiresias
aggregates operational data: node and tree structures, declarative domain
specifications matching the paper's Table II, and builders that expand those
specifications into concrete trees for the synthetic datasets.
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
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.node import HierarchyNode
from repro.hierarchy.tree import HierarchyTree

__all__ = [
    "HierarchyNode",
    "HierarchyTree",
    "HierarchyIndex",
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
