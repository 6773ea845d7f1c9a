"""Tree node for hierarchical operational-data domains.

A :class:`HierarchyNode` represents one aggregate in the paper's hierarchical
domain (Section III): a trouble-description category, or a network location
such as a VHO / IO / CO / DSLAM.  Nodes carry only structural information
(label, parent, children, depth); per-timeunit weights live in the algorithm
state (see :mod:`repro.core`), so the same hierarchy object can be shared by
several detectors.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro._types import CategoryPath
from repro.exceptions import HierarchyError


class HierarchyNode:
    """A single node of a hierarchical domain.

    Parameters
    ----------
    label:
        Human readable label of the node (unique among its siblings).
    parent:
        Parent node, or ``None`` for the root.

    Notes
    -----
    The root node has depth ``0`` and an empty :attr:`path`.  Depth ``k``
    corresponds to the paper's "level k" (the root is the "All" / national
    aggregate).
    """

    __slots__ = ("label", "parent", "children", "depth", "_path", "index")

    def __init__(self, label: str, parent: Optional["HierarchyNode"] = None):
        if not label and parent is not None:
            raise HierarchyError("non-root nodes must have a non-empty label")
        self.label = label
        self.parent = parent
        self.children: dict[str, HierarchyNode] = {}
        self.depth = 0 if parent is None else parent.depth + 1
        self._path: CategoryPath = () if parent is None else parent.path + (label,)
        #: Dense integer id assigned by the owning tree (useful for arrays).
        self.index: int = -1

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def path(self) -> CategoryPath:
        """Labels from the root (exclusive) down to this node."""
        return self._path

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def add_child(self, label: str) -> "HierarchyNode":
        """Create (or return the existing) child with ``label``."""
        child = self.children.get(label)
        if child is None:
            child = HierarchyNode(label, parent=self)
            self.children[label] = child
        return child

    def child(self, label: str) -> "HierarchyNode":
        """Return the child with ``label`` or raise :class:`HierarchyError`."""
        try:
            return self.children[label]
        except KeyError:
            raise HierarchyError(
                f"node {self._path!r} has no child labelled {label!r}"
            ) from None

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    def iter_subtree(self) -> Iterator["HierarchyNode"]:
        """Yield this node and every descendant in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def iter_leaves(self) -> Iterator["HierarchyNode"]:
        """Yield every leaf in the subtree rooted at this node."""
        for node in self.iter_subtree():
            if node.is_leaf:
                yield node

    def ancestors(self, include_self: bool = False) -> Iterator["HierarchyNode"]:
        """Yield ancestors from the parent (or self) up to the root."""
        node = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self.is_leaf else f"{len(self.children)} children"
        return f"HierarchyNode({'/'.join(self._path) or '<root>'}, depth={self.depth}, {kind})"

    def __iter__(self) -> Iterator["HierarchyNode"]:
        return iter(self.children.values())

    def __len__(self) -> int:
        return len(self.children)
