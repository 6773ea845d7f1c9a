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

Node ids belong to the index: the tree and its nodes carry none.  Each tree
has one index, :meth:`HierarchyIndex.of`, shared read-only by every tracker
on that tree (its arrays are not writeable), freed with the last tracker
that holds it and rebuilt only once the tree has gained nodes.

BFS ids make every level, and the children of every parent, a contiguous id
range, so folding a level onto its parents is one ``np.add.reduceat`` along
the node axis — two per level for all rows, whatever their number — and a
node's children are ``range(child_start[n], child_start[n + 1])``.

Exactness: per-timeunit leaf counts are record *counts* — integers — and
sums of integers in float64 are exact (far below 2^53), so the results are
bit-for-bit identical to the scalar walks of :mod:`repro.core.hhh` (the
test oracle's) regardless of summation order.
"""

from __future__ import annotations

import threading
import weakref
from typing import Mapping

import numpy as np

from repro._types import CategoryPath, Weight
from repro.hierarchy.tree import HierarchyTree

#: The one index of each live tree, held weakly on both sides: an index goes
#: with the last tracker that holds it, as an unshared one would, however
#: long the tree lives (its nodes are reference cycles, freed only by the
#: cyclic collector).  The lock keeps two threads from building two indexes
#: for one tree.
_INDEXES: "weakref.WeakKeyDictionary[HierarchyTree, weakref.ref[HierarchyIndex]]" = (
    weakref.WeakKeyDictionary()
)
_INDEXES_LOCK = threading.Lock()


def _read_only(array):
    array.setflags(write=False)
    return array


class HierarchyIndex:
    """Dense-array view of a hierarchy for the vectorized weight kernels.

    Node ids are BFS (level-order) positions, so the root is id 0, every
    parent id is smaller than its children's, and the children of a node are
    the contiguous id range ``child_start[n]:child_start[n + 1]`` in
    insertion order.  Use :meth:`of` for a tree's shared index.
    """

    @classmethod
    def of(cls, tree: HierarchyTree) -> "HierarchyIndex":
        """The shared index of ``tree``, rebuilt once the tree has gained
        nodes since it was built, or once its last holder has dropped it."""
        with _INDEXES_LOCK:
            ref = _INDEXES.get(tree)
            index = None if ref is None else ref()
            if index is None or index.num_nodes != tree.num_nodes:
                index = cls(tree)
                _INDEXES[tree] = weakref.ref(index)
            return index

    def __init__(self, tree: HierarchyTree):
        # BFS: the children of node ``i`` are appended as one run, and each
        # node's run starts where the one before it stopped.
        nodes = [tree.root]
        #: Child-run offsets, ``num_nodes + 1`` of them: the children of node
        #: ``i`` are the ids ``child_start[i]:child_start[i + 1]`` (an empty
        #: range for a leaf).
        self.child_start: list[int] = [1]
        for node in nodes:
            nodes.extend(node.children.values())
            self.child_start.append(len(nodes))
        self.num_nodes = len(nodes)
        self.paths: list[CategoryPath] = [node.path for node in nodes]
        self.path_to_id: dict[CategoryPath, int] = dict(
            zip(self.paths, range(self.num_nodes))
        )
        #: Parent id of every node (the root's is 0): child runs in id order.
        self.parent = np.zeros(self.num_nodes, dtype=np.intp)
        self.parent[1:] = np.repeat(
            np.arange(self.num_nodes), np.diff(self.child_start)
        )
        _read_only(self.parent)
        depths = [node.depth for node in nodes]
        max_depth = max(depths)
        #: Depth of every node (root is 0), as a dense integer vector.
        self.depths = _read_only(np.array(depths, dtype=np.intp))
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
            parents = _read_only(level_parents[starts])
            first, last = int(parents[0]), int(parents[-1])
            if last - first + 1 == len(parents):
                parents = slice(first, last + 1)
            self._sweep_levels.append((lo, hi, parents, _read_only(starts)))
        #: All node ids ordered by lexicographic path order; masking this with
        #: a boolean membership vector yields ids in ``sorted(paths)`` order.
        self.lex_order = _read_only(
            np.array(
                sorted(range(self.num_nodes), key=lambda i: self.paths[i]),
                dtype=np.intp,
            )
        )
        #: All node ids ordered by ``(depth, path)`` — the deterministic
        #: cascade order of ADA's adaptation (``sorted(key=(len(p), p))``).
        self.depth_lex_order = _read_only(
            np.array(
                sorted(range(self.num_nodes), key=lambda i: (depths[i], self.paths[i])),
                dtype=np.intp,
            )
        )
        self._descendants: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Definitions 1 and 2: raw weights, modified weights, heavy hitters
    # ------------------------------------------------------------------
    def count_rows(self, leaf_counts: Mapping[CategoryPath, Weight]):
        """The one-row ``(1, num_nodes)`` direct-count matrix of a per-path
        count mapping.

        Unknown paths are ignored and counts attached to interior paths are
        credited to that aggregate directly, exactly like the scalar
        :func:`repro.core.hhh.accumulate_raw_weights`.
        """
        counts = np.zeros((1, self.num_nodes))
        row = counts[0]
        lookup = self.path_to_id.get
        for path, count in leaf_counts.items():
            node_id = lookup(path if isinstance(path, tuple) else tuple(path))
            if node_id is not None:
                row[node_id] += float(count)
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
            # The children of a run of one level are one run of the next.
            below: list[int] = []
            child_start = self.child_start
            lo, hi = child_start[node_id], child_start[node_id + 1]
            while lo < hi:
                below.extend(range(lo, hi))
                lo, hi = child_start[lo], child_start[hi]
            found = self._descendants[node_id] = frozenset(below)
        return found


__all__ = ["HierarchyIndex"]
