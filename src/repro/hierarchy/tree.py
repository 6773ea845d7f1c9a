"""Hierarchy tree: the additive hierarchical domain of Section III.

The tree owns the :class:`~repro.hierarchy.node.HierarchyNode` objects and
maps category paths bijectively to leaves (Step 2 of the system overview).
It numbers nothing: node ids, and the level order the STA and ADA algorithms
sweep in, belong to the tree's one
:class:`~repro.hierarchy.index.HierarchyIndex` (``HierarchyIndex.of(tree)``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro._types import CategoryLike, CategoryPath
from repro.exceptions import HierarchyError, UnknownCategoryError
from repro.hierarchy.node import HierarchyNode


class HierarchyTree:
    """An additive hierarchical domain.

    A tree is usually constructed from the set of leaf category paths that can
    occur in a dataset (:meth:`from_leaf_paths`), mirroring how the paper's
    classification trees are predefined by the care-center category catalogue
    or the network topology.

    Parameters
    ----------
    root_label:
        Label of the root aggregate (the paper uses "All" for trouble
        descriptions and "SHO" / "National" for network paths).
    """

    def __init__(self, root_label: str = "All"):
        self.root = HierarchyNode(root_label)
        self._leaf_by_path: dict[CategoryPath, HierarchyNode] = {}
        self._node_by_path: dict[CategoryPath, HierarchyNode] = {(): self.root}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_leaf_paths(
        cls, paths: Iterable[CategoryLike], root_label: str = "All"
    ) -> "HierarchyTree":
        """Build a tree whose leaves are exactly ``paths``.

        Every path is a sequence of labels below the root.  Intermediate nodes
        are created on demand.  A path that is a strict prefix of another path
        would make that node both a leaf and an interior node, which violates
        the bijective leaf mapping; this is rejected.
        """
        tree = cls(root_label)
        for path in paths:
            tree.add_leaf(path)
        tree.validate()
        return tree

    def add_leaf(self, path: CategoryLike) -> HierarchyNode:
        """Insert the leaf for ``path``, creating intermediate nodes."""
        path = tuple(path)
        if not path:
            raise HierarchyError("a leaf path must contain at least one label")
        node = self.root
        for depth, label in enumerate(path, 1):
            node = self.add_node(node, label, leaf=depth == len(path))
        return node

    def add_node(
        self, parent: HierarchyNode, label: str, leaf: bool = False
    ) -> HierarchyNode:
        """Create (or return) ``parent``'s child ``label`` and register it,
        as a leaf when ``leaf``."""
        node = parent.add_child(label)
        self._node_by_path.setdefault(node.path, node)
        if leaf:
            self._leaf_by_path[node.path] = node
        return node

    def validate(self) -> None:
        """Check that every registered leaf path still maps to a leaf node."""
        for path, node in self._leaf_by_path.items():
            if not node.is_leaf:
                raise HierarchyError(
                    f"category {path!r} was registered as a leaf but now has "
                    f"children; leaf paths must not be prefixes of each other"
                )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def leaf(self, path: CategoryLike) -> HierarchyNode:
        """Return the leaf for ``path`` or raise :class:`UnknownCategoryError`."""
        path = tuple(path)
        try:
            return self._leaf_by_path[path]
        except KeyError:
            raise UnknownCategoryError(path) from None

    def node(self, path: CategoryLike) -> HierarchyNode:
        """Return the node (leaf or interior) for ``path``."""
        path = tuple(path)
        try:
            return self._node_by_path[path]
        except KeyError:
            raise UnknownCategoryError(path) from None

    def leaf_paths(self) -> list[CategoryPath]:
        """All registered leaf paths, in insertion order.

        Together with the root label this fully determines the tree, which is
        what the checkpoint format serializes to rebuild it on restore.
        Insertion order is preserved (not sorted) so that a rebuilt tree
        traverses nodes in exactly the original order.
        """
        return list(self._leaf_by_path)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[HierarchyNode]:
        """All nodes in pre-order."""
        return self.root.iter_subtree()

    def iter_leaves(self) -> Iterator[HierarchyNode]:
        return self.root.iter_leaves()

    def nodes_at_depth(self, depth: int) -> list[HierarchyNode]:
        """All nodes whose depth equals ``depth`` (root is depth 0)."""
        return [n for n in self.iter_nodes() if n.depth == depth]

    # ------------------------------------------------------------------
    # Statistics (Table II style summaries)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        # Every node registers through ``add_node``.
        return len(self._node_by_path)

    @property
    def num_leaves(self) -> int:
        return len(self._leaf_by_path)

    @property
    def depth(self) -> int:
        """Height of the tree counted in levels including the root."""
        return 1 + max((n.depth for n in self.iter_nodes()), default=0)

    def typical_degree_at_level(self, level: int) -> float:
        """Median branching factor of non-leaf nodes at ``level`` (root = 1).

        This is the quantity reported in the paper's Table II ("typical degree
        at the k-th level").  Level 1 is the root's degree.
        """
        nodes = self.nodes_at_depth(level - 1)
        degrees = sorted(len(n.children) for n in nodes if not n.is_leaf)
        if not degrees:
            return 0.0
        mid = len(degrees) // 2
        if len(degrees) % 2:
            return float(degrees[mid])
        return (degrees[mid - 1] + degrees[mid]) / 2.0

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __contains__(self, path: CategoryLike) -> bool:
        return tuple(path) in self._node_by_path

    def __len__(self) -> int:
        return len(self._node_by_path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HierarchyTree(root={self.root.label!r}, nodes={self.num_nodes}, "
            f"leaves={self.num_leaves}, depth={self.depth})"
        )

