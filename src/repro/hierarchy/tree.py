"""Hierarchy tree: the additive hierarchical domain of Section III, as arrays.

A :class:`HierarchyTree` is built once from its leaf category paths and never
changes.  It numbers its nodes in BFS (level) order — the root is id 0, every
parent id is smaller than its children's, and the children of node ``n`` are
the contiguous id range ``child_start[n]:child_start[n + 1]`` in insertion
order — and holds the hierarchy as flat arrays over those ids: the path of
every node, one ``path → id`` dict, parent ids and depths.  It keeps no
object per node, so it holds no reference cycle: a dropped tree is freed at
once by reference counting.

The tree is also the dense index the STA and ADA algorithms sweep: the two
per-timeunit hierarchy passes of the paper are one bottom-up pass,
:meth:`HierarchyTree.sweep`, over a matrix whose rows are timeunits — the raw
weights ``A_n`` (Definition 1), the modified weights ``W_n`` and the succinct
heavy hitter membership (Definition 2) of every row at once.  SHHH is a
function of one timeunit's own counts, so the timeunits a batch closes are
swept together; a single timeunit is the one-row call of the same sweep.
BFS ids make every level, and the children of every parent, a contiguous id
range, so folding a level onto its parents is one ``np.add.reduceat`` along
the node axis — two per level for all rows, whatever their number.  Every
tracker, reconfigured or shadow session on a tree reads these arrays; none
copies them, and the NumPy ones are not writeable.

Exactness: per-timeunit leaf counts are record *counts* — integers — and
sums of integers in float64 are exact (far below 2^53), so the sweep is
bit-for-bit identical to the scalar walks of :mod:`repro.core.hhh` (the
test oracle's) regardless of summation order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from repro._types import CategoryLike, CategoryPath, Weight
from repro.exceptions import HierarchyError, UnknownCategoryError


def _read_only(array):
    array.setflags(write=False)
    return array


class NodeRecord(NamedTuple):
    """One node as :meth:`HierarchyTree.iter_nodes` yields it.  The root has
    depth 0, an empty path and the tree's root label; depth ``k`` is the
    paper's "level k"."""

    path: CategoryPath
    depth: int
    label: str


class HierarchyTree:
    """An additive hierarchical domain, frozen into BFS-numbered arrays.

    The tree is built from the set of leaf category paths that can occur in
    a dataset, mirroring how the paper's classification trees are predefined
    by the care-center category catalogue or the network topology.  Every
    path is a sequence of labels below the root; intermediate nodes are
    created on demand, and a node's children keep the order in which their
    labels first appear.  A path that is a strict prefix of another would
    make that node both a leaf and an interior node, which violates the
    bijective leaf mapping; this is rejected.

    Parameters
    ----------
    leaf_paths:
        The leaves, in insertion order (repeats are ignored).
    root_label:
        Label of the root aggregate (the paper uses "All" for trouble
        descriptions and "SHO" / "National" for network paths).
    """

    def __init__(self, leaf_paths: Iterable[CategoryLike], root_label: str = "All"):
        if isinstance(leaf_paths, str):
            raise HierarchyError("a tree is built from leaf paths; pass root_label= by name")
        leaves = dict.fromkeys(map(tuple, leaf_paths))
        if () in leaves:
            raise HierarchyError("a leaf path must contain at least one label")
        # Each interior node's children in first-seen order: a leaf climbs
        # until it meets a node that is already there.
        children: dict[CategoryPath, list[CategoryPath]] = {(): []}
        for path in leaves:
            if "" in path:
                raise HierarchyError(f"category {path!r} has an empty label")
            child, parent = path, path[:-1]
            siblings = children.get(parent)
            while siblings is None:
                if parent in leaves:
                    raise HierarchyError(
                        f"category {parent!r} is a leaf and a prefix of {path!r}; "
                        f"leaf paths must not be prefixes of each other"
                    )
                children[parent] = [child]
                child, parent = parent, parent[:-1]
                siblings = children.get(parent)
            siblings.append(child)
        # BFS: the children of node ``i`` are appended as one run, and each
        # node's run starts where the one before it stopped.
        paths: list[CategoryPath] = [()]
        child_start = [1]
        for path in paths:
            paths.extend(children.get(path, ()))
            child_start.append(len(paths))
        del children
        n = len(paths)
        self.root_label = root_label
        self.num_nodes = n
        #: The path of every node id, in BFS order.
        self.paths: tuple[CategoryPath, ...] = tuple(paths)
        self.path_to_id: dict[CategoryPath, int] = dict(zip(paths, range(n)))
        #: Child-run offsets, ``num_nodes + 1`` of them: the children of node
        #: ``i`` are the ids ``child_start[i]:child_start[i + 1]`` (an empty
        #: range for a leaf).
        self.child_start = _read_only(np.array(child_start, dtype=np.intp))
        del paths, child_start
        degrees = np.diff(self.child_start)
        #: Parent id of every node (the root's is 0): child runs in id order.
        self.parent = np.zeros(n, dtype=np.intp)
        self.parent[1:] = np.repeat(np.arange(n), degrees)
        _read_only(self.parent)
        #: Depth of every node (root is 0); BFS ids ascend with depth.
        self.depths = _read_only(np.fromiter(map(len, self.paths), np.intp, n))
        #: Leaf ids in insertion order.
        self.leaf_ids = _read_only(
            np.fromiter(map(self.path_to_id.__getitem__, leaves), np.intp, len(leaves))
        )
        #: The bottom-up sweep, deepest level first: ``(lo, hi, parents,
        #: starts)`` per depth >= 1.  BFS ids put the level at ``[lo, hi)``
        #: and each parent's children next to each other, so ``starts``
        #: (first child of every parent, relative to ``lo``) are the
        #: ``reduceat`` offsets and ``parents`` the ids the sums land on — a
        #: slice where every node of the level above has children, an index
        #: array where the tree is ragged.
        self._level_bounds = np.searchsorted(self.depths, np.arange(self.depth + 1))
        self._sweep_levels = []
        for depth in range(self.depth - 1, 0, -1):
            lo, hi = int(self._level_bounds[depth]), int(self._level_bounds[depth + 1])
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
            np.array(sorted(range(n), key=self.paths.__getitem__), dtype=np.intp)
        )
        #: All node ids ordered by ``(depth, path)`` — the deterministic
        #: cascade order of ADA's adaptation (``sorted(key=(len(p), p))``).
        self.depth_lex_order = _read_only(
            self.lex_order[np.argsort(self.depths[self.lex_order], kind="stable")]
        )
        self._descendants: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Structure, by path
    # ------------------------------------------------------------------
    def _id(self, path: CategoryLike) -> int:
        path = tuple(path)
        try:
            return self.path_to_id[path]
        except KeyError:
            raise UnknownCategoryError(path) from None

    def _child_ids(self, node_id: int) -> range:
        return range(self.child_start[node_id], self.child_start[node_id + 1])

    def children(self, path: CategoryLike) -> list[CategoryPath]:
        """The child paths of ``path``, in insertion order (raises
        :class:`UnknownCategoryError` for a path not in the tree)."""
        return [self.paths[c] for c in self._child_ids(self._id(path))]

    def leaf_paths(self) -> list[CategoryPath]:
        """All leaf paths, in insertion order.

        Together with the root label this fully determines the tree, which is
        what the checkpoint format serializes to rebuild it on restore.
        Insertion order is preserved (not sorted) so that a rebuilt tree
        numbers and traverses its nodes in exactly the original order.
        """
        return [self.paths[i] for i in self.leaf_ids.tolist()]

    def iter_nodes(self) -> Iterator[NodeRecord]:
        """Every node as a :class:`NodeRecord`, in pre-order: a stack walk
        that visits the last child of each node first."""
        stack = [0]
        while stack:
            node = stack.pop()
            path = self.paths[node]
            yield NodeRecord(path, len(path), path[-1] if path else self.root_label)
            stack.extend(self._child_ids(node))

    def paths_at_depth(self, depth: int) -> list[CategoryPath]:
        """The paths of every node at ``depth`` (root is 0), in
        :meth:`iter_nodes` order — the level's BFS run, reversed."""
        if not 0 <= depth < self.depth:
            return []
        lo, hi = self._level_bounds[depth], self._level_bounds[depth + 1]
        return list(self.paths[lo:hi][::-1])

    def leaves_under(self, path: CategoryLike = ()) -> list[CategoryPath]:
        """The leaf paths in the subtree of ``path`` (itself when it is a
        leaf), in :meth:`iter_nodes` order."""
        found: list[CategoryPath] = []
        stack = [self._id(path)]
        while stack:
            node = stack.pop()
            below = self._child_ids(node)
            if below:
                stack.extend(below)
            else:
                found.append(self.paths[node])
        return found

    # ------------------------------------------------------------------
    # Statistics (Table II style summaries)
    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        return len(self.leaf_ids)

    @property
    def depth(self) -> int:
        """Height of the tree counted in levels including the root."""
        return int(self.depths[-1]) + 1

    def typical_degree_at_level(self, level: int) -> float:
        """Median branching factor of non-leaf nodes at ``level`` (root = 1).

        This is the quantity reported in the paper's Table II ("typical degree
        at the k-th level").  Level 1 is the root's degree.
        """
        if not 1 <= level <= self.depth:
            return 0.0
        lo, hi = self._level_bounds[level - 1], self._level_bounds[level]
        degrees = sorted(d for d in np.diff(self.child_start[lo : hi + 1]).tolist() if d)
        if not degrees:
            return 0.0
        mid = len(degrees) // 2
        if len(degrees) % 2:
            return float(degrees[mid])
        return (degrees[mid - 1] + degrees[mid]) / 2.0

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
    # Id helpers
    # ------------------------------------------------------------------
    def depth_lex_ids(self, member_mask) -> list[int]:
        """Ids whose mask bit is set, in ``(depth, path)`` cascade order."""
        return self.depth_lex_order[member_mask[self.depth_lex_order]].tolist()

    def descendant_ids(self, node_id: int) -> "frozenset[int]":
        """Ids of every strict descendant of ``node_id`` (memoized)."""
        found = self._descendants.get(node_id)
        if found is None:
            # The children of a run of one level are one run of the next.
            child_start = self.child_start
            lo, hi = int(child_start[node_id]), int(child_start[node_id + 1])
            below: list[int] = []
            while lo < hi:
                below.extend(range(lo, hi))
                lo, hi = int(child_start[lo]), int(child_start[hi])
            found = self._descendants[node_id] = frozenset(below)
        return found

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __contains__(self, path: CategoryLike) -> bool:
        return tuple(path) in self.path_to_id

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HierarchyTree(root={self.root_label!r}, nodes={self.num_nodes}, "
            f"leaves={self.num_leaves}, depth={self.depth})"
        )


__all__ = ["HierarchyTree", "NodeRecord"]
