"""Hierarchical heavy hitters: Definition 2 of the paper.

Given per-leaf counts for one timeunit, this module computes

* the node weights ``A_n`` (each node's weight is the sum of its children's,
  leaves carry the raw counts), and
* the *succinct* hierarchical heavy hitter set and modified weights ``W_n``
  (Definition 2), where an interior node only counts the weight of children
  that are not themselves heavy hitters.

These functions are the per-path reference implementation.  STA and ADA
compute the same sets for every timeunit with the array sweep of
:meth:`HierarchyTree.sweep <repro.hierarchy.tree.HierarchyTree.sweep>`;
:mod:`repro.testing.reference` and the property tests in ``tests/core``
check them against this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro._types import CategoryPath, Weight
from repro.hierarchy.tree import HierarchyTree


@dataclass(frozen=True)
class HeavyHitterResult:
    """Result of a succinct heavy hitter computation for one timeunit.

    Attributes
    ----------
    raw_weights:
        ``A_n`` for every node with non-zero weight, keyed by node path.
    modified_weights:
        ``W_n`` (Definition 2) for every node with non-zero modified weight.
    shhh:
        Paths of the nodes in the succinct heavy hitter set.
    theta:
        The threshold the result was computed for.
    """

    raw_weights: dict[CategoryPath, Weight]
    modified_weights: dict[CategoryPath, Weight]
    shhh: frozenset[CategoryPath]
    theta: float


def accumulate_raw_weights(
    tree: HierarchyTree, leaf_counts: Mapping[CategoryPath, Weight]
) -> dict[CategoryPath, Weight]:
    """Compute ``A_n`` for every node of ``tree`` from per-leaf counts.

    Unknown leaf paths are ignored (they belong to records filtered out of the
    hierarchy, e.g. non-performance-related calls); counts attached to
    interior paths are treated as belonging to that aggregate directly, which
    supports datasets where some records are only classified to an interior
    category.
    """
    weights: dict[CategoryPath, Weight] = {}
    for path, count in leaf_counts.items():
        if count == 0:
            continue
        path = tuple(path)
        if path not in tree:
            continue
        # The node and its ancestors: every prefix of its path.
        for depth in range(len(path), -1, -1):
            prefix = path[:depth]
            weights[prefix] = weights.get(prefix, 0.0) + float(count)
    return weights


def compute_shhh(
    tree: HierarchyTree,
    leaf_counts: Mapping[CategoryPath, Weight],
    theta: float,
    raw: dict[CategoryPath, Weight] | None = None,
) -> HeavyHitterResult:
    """Definition 2: succinct hierarchical heavy hitters and modified weights.

    ``raw`` may be passed when the caller has already aggregated the leaf
    counts with :func:`accumulate_raw_weights` (the online algorithms need the
    raw weights anyway), avoiding a second aggregation pass.

    A single bottom-up pass over the *active* nodes (those with non-zero
    aggregated weight) yields the unique fixed point: each node's modified
    weight sums only the modified weights of children that are not themselves
    succinct heavy hitters; a node joins the set when its modified weight
    reaches ``theta``.  Inactive nodes have zero weight, contribute nothing to
    their parents and can never be heavy, so they are skipped entirely --
    operational data is sparse (Fig. 1) and this keeps the per-timeunit cost
    proportional to the data, not to the hierarchy size.
    """
    if raw is None:
        raw = accumulate_raw_weights(tree, leaf_counts)
    modified: dict[CategoryPath, Weight] = {}
    shhh: set[CategoryPath] = set()

    children_of: dict[CategoryPath, list[CategoryPath]] = {}
    for path in raw:
        if path:
            children_of.setdefault(path[:-1], []).append(path)

    for path in sorted(raw, key=len, reverse=True):
        active_children = children_of.get(path, [])
        # Counts attached directly to an interior aggregate (rare but
        # supported) contribute to that aggregate's own weight.
        own = raw[path] - sum(raw[child] for child in active_children)
        weight = own + sum(
            modified[child] for child in active_children if child not in shhh
        )
        if weight > 0:
            modified[path] = weight
        else:
            modified[path] = 0.0
        if weight >= theta:
            shhh.add(path)

    # Drop zero entries to keep the result sparse (parity with raw_weights).
    modified = {path: weight for path, weight in modified.items() if weight > 0}
    return HeavyHitterResult(
        raw_weights=raw,
        modified_weights=modified,
        shhh=frozenset(shhh),
        theta=theta,
    )

