"""Array-indexed hierarchy: vectorized weight accumulation and SHHH.

:class:`HierarchyIndex` freezes a :class:`~repro.hierarchy.tree.HierarchyTree`
into dense arrays — BFS node ids, a parent-id vector, per-depth id ranges and
a lexicographic ordering — so that the two per-timeunit hierarchy passes of
the paper become one bottom-up sweep, :meth:`HierarchyIndex.sweep`, over a
matrix whose rows are timeunits: the raw weights ``A_n`` (Definition 1), the
modified weights ``W_n`` and the succinct heavy hitter membership
(Definition 2) of every row at once.  SHHH is a function of one timeunit's
own counts, so the timeunits a batch closes are swept together; a single
timeunit is the one-row call of the same sweep.

BFS ids make every level, and the children of every parent, a contiguous id
range, so folding a level onto its parents is one ``np.add.reduceat`` along
the node axis — two per level for all rows, whatever their number.

Exactness: per-timeunit leaf counts are record *counts* — integers — and
sums of integers in float64 are exact (far below 2^53), so the results are
bit-for-bit identical to the scalar walks of :mod:`repro.core.hhh` (the
test oracle's) regardless of summation order.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro._types import CategoryPath, Weight
from repro.hierarchy.tree import HierarchyTree


class HierarchyIndex:
    """Dense-array view of a hierarchy for the vectorized weight kernels.

    Node ids are BFS (level-order) positions, so the root is id 0 and every
    parent id is smaller than its children's.
    """

    def __init__(self, tree: HierarchyTree):
        nodes = list(tree.iter_level_order())
        for node_id, node in enumerate(nodes):
            node.index = node_id
        self.tree = tree
        self.num_nodes = len(nodes)
        self.paths: list[CategoryPath] = [node.path for node in nodes]
        self.path_to_id: dict[CategoryPath, int] = {
            node.path: node.index for node in nodes
        }
        self.parent = np.array(
            [0 if node.parent is None else node.parent.index for node in nodes],
            dtype=np.intp,
        )
        depths = [node.depth for node in nodes]
        max_depth = max(depths)
        #: Depth of every node (root is 0), as a dense integer vector.
        self.depths = np.array(depths, dtype=np.intp)
        self.max_depth = max_depth
        #: The bottom-up sweep, deepest level first: ``(lo, hi, parents,
        #: starts)`` per depth >= 1.  BFS ids put the level at ``[lo, hi)``
        #: and each parent's children next to each other, so ``starts``
        #: (first child of every parent, relative to ``lo``) are the
        #: ``reduceat`` offsets and ``parents`` the ids the sums land on — a
        #: slice where every node of the level above has children, an index
        #: array where the tree is ragged.
        level_bounds = np.searchsorted(self.depths, np.arange(max_depth + 2))
        self._sweep_levels = []
        for depth in range(max_depth, 0, -1):
            lo, hi = int(level_bounds[depth]), int(level_bounds[depth + 1])
            level_parents = self.parent[lo:hi]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(level_parents)) + 1)
            ).astype(np.intp)
            parents = level_parents[starts]
            first, last = int(parents[0]), int(parents[-1])
            if last - first + 1 == len(parents):
                parents = slice(first, last + 1)
            self._sweep_levels.append((lo, hi, parents, starts))
        #: All node ids ordered by lexicographic path order; masking this with
        #: a boolean membership vector yields ids in ``sorted(paths)`` order.
        self.lex_order = np.array(
            sorted(range(self.num_nodes), key=lambda i: self.paths[i]),
            dtype=np.intp,
        )
        #: All node ids ordered by ``(depth, path)`` — the deterministic
        #: cascade order of ADA's adaptation (``sorted(key=(len(p), p))``).
        self.depth_lex_order = np.array(
            sorted(range(self.num_nodes), key=lambda i: (depths[i], self.paths[i])),
            dtype=np.intp,
        )
        #: ``ancestors[i, d]`` is the id of node ``i``'s ancestor at depth
        #: ``d`` (``d <= depth(i)``; entries beyond a node's depth repeat the
        #: node itself).  Lets the adaptation cascade resolve "the child of
        #: ``current`` on the path to ``target``" with one integer lookup.
        ancestors = np.empty((self.num_nodes, max_depth + 1), dtype=np.intp)
        for i, node in enumerate(nodes):
            chain = [i]
            while nodes[chain[-1]].parent is not None:
                chain.append(nodes[chain[-1]].parent.index)
            chain.reverse()  # root .. self
            for d in range(max_depth + 1):
                ancestors[i, d] = chain[min(d, len(chain) - 1)]
        self.ancestors = ancestors
        #: Per-node child ids as plain int lists, ascending (== the order of
        #: ``children.values()`` because BFS assigns ids in child-insertion
        #: order per parent).  Python ints: the adaptation planner iterates
        #: these in tight loops.
        self.child_ids: list[list[int]] = [
            [c.index for c in node.children.values()] for node in nodes
        ]
        self._descendants: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Definitions 1 and 2: raw weights, modified weights, heavy hitters
    # ------------------------------------------------------------------
    def add_counts(self, row, leaf_counts: Mapping[CategoryPath, Weight]) -> None:
        """Add a per-path count mapping onto one row of direct counts.

        Unknown paths are ignored and counts attached to interior paths are
        credited to that aggregate directly, exactly like the scalar
        :func:`repro.core.hhh.accumulate_raw_weights`.
        """
        lookup = self.path_to_id.get
        for path, count in leaf_counts.items():
            if count == 0:
                continue
            node_id = lookup(path if isinstance(path, tuple) else tuple(path))
            if node_id is not None:
                row[node_id] += float(count)

    def count_rows(self, leaf_counts: Mapping[CategoryPath, Weight]):
        """The one-row ``(1, num_nodes)`` direct-count matrix of a mapping."""
        counts = np.zeros((1, self.num_nodes))
        self.add_counts(counts[0], leaf_counts)
        return counts

    def dictionary_ids(self, dictionary):
        """Node id of every path in a category string-dictionary (-1 unknown).

        The columnar ingest path maps a batch's code column to node ids once
        per dictionary via this vector, after which the counts of every
        timeunit the batch closes are one ``bincount`` over
        ``row * num_nodes + node_id``.
        """
        lookup = self.path_to_id.get
        return np.array(
            [lookup(tuple(path), -1) for path in dictionary], dtype=np.intp
        )

    def sweep(self, counts, theta: float):
        """``(raw, modified, heavy)`` for a ``(rows, num_nodes)`` count matrix.

        ``counts`` holds each row's *direct* float64 counts per node id (a
        leaf's records, or an interior node's own) and is consumed: it comes
        back as the raw weights ``A_n``.  One bottom-up pass per level folds
        the level onto its parents for every row at once — a node's modified
        weight ``W_n`` is its own count plus the modified weights of its
        non-heavy children, and it is heavy when that reaches ``theta``.
        Matches :func:`repro.core.hhh.accumulate_raw_weights` and
        :func:`repro.core.hhh.compute_shhh` row by row (integer arithmetic,
        see module docstring).
        """
        raw = counts
        modified = counts.copy()
        heavy = np.empty(counts.shape, dtype=bool)
        for lo, hi, parents, starts in self._sweep_levels:
            raw[:, parents] += np.add.reduceat(raw[:, lo:hi], starts, axis=1)
            level = modified[:, lo:hi]
            level_heavy = heavy[:, lo:hi]
            np.greater_equal(level, theta, out=level_heavy)
            modified[:, parents] += np.add.reduceat(
                np.where(level_heavy, 0.0, level), starts, axis=1
            )
        heavy[:, 0] = modified[:, 0] >= theta
        return raw, modified, heavy

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def depth_lex_ids(self, member_mask) -> list[int]:
        """Ids whose mask bit is set, in ``(depth, path)`` cascade order."""
        return self.depth_lex_order[member_mask[self.depth_lex_order]].tolist()

    def descendant_ids(self, node_id: int) -> "frozenset[int]":
        """Ids of every strict descendant of ``node_id`` (memoized)."""
        found = self._descendants.get(node_id)
        if found is None:
            below: list[int] = []
            frontier = self.child_ids[node_id]
            while frontier:
                below.extend(frontier)
                frontier = [c for node in frontier for c in self.child_ids[node]]
            found = self._descendants[node_id] = frozenset(below)
        return found


__all__ = ["HierarchyIndex"]
