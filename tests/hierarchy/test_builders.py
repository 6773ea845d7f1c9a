"""Unit tests for :mod:`repro.hierarchy.builders`."""

import pytest

from repro.exceptions import ConfigurationError
from repro.hierarchy.builders import (
    CCD_TICKET_TYPES,
    build_ccd_network_tree,
    build_ccd_trouble_tree,
    build_scd_network_tree,
    build_tree_from_spec,
)
from repro.hierarchy.domain import CCD_TROUBLE_DOMAIN, DomainSpec, LevelSpec


class TestGenericBuilder:
    def test_deterministic_for_same_seed(self):
        spec = DomainSpec("d", "root", (LevelSpec("a", 3), LevelSpec("b", 2)))
        t1 = build_tree_from_spec(spec, seed=5)
        t2 = build_tree_from_spec(spec, seed=5)
        assert t1.leaf_paths() == t2.leaf_paths()

    def test_different_seed_changes_structure(self):
        spec = DomainSpec(
            "d", "root", (LevelSpec("a", 10, degree_dispersion=0.5), LevelSpec("b", 10, degree_dispersion=0.5))
        )
        t1 = build_tree_from_spec(spec, seed=1)
        t2 = build_tree_from_spec(spec, seed=2)
        assert t1.num_leaves != t2.num_leaves or t1.num_nodes != t2.num_nodes

    def test_max_leaves_cap(self):
        spec = DomainSpec("d", "root", (LevelSpec("a", 10), LevelSpec("b", 10)))
        tree = build_tree_from_spec(spec, seed=0, max_leaves=17)
        assert tree.num_leaves <= 17 + 10  # cap is checked per subtree expansion

    def test_scale_shrinks_tree(self):
        spec = DomainSpec("d", "root", (LevelSpec("a", 10, 0.0), LevelSpec("b", 10, 0.0)))
        full = build_tree_from_spec(spec, seed=0, scale=1.0)
        half = build_tree_from_spec(spec, seed=0, scale=0.5)
        assert half.num_leaves < full.num_leaves

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree_from_spec(CCD_TROUBLE_DOMAIN, scale=0.0)

    def test_depth_matches_spec(self):
        spec = DomainSpec("d", "root", (LevelSpec("a", 2, 0.0), LevelSpec("b", 2, 0.0), LevelSpec("c", 2, 0.0)))
        tree = build_tree_from_spec(spec, seed=0)
        assert tree.depth == spec.depth


class TestCanonicalBuilders:
    def test_ccd_trouble_first_level_uses_ticket_types(self):
        tree = build_ccd_trouble_tree(seed=0)
        first_level = {path[-1] for path in tree.paths_at_depth(1)}
        assert set(CCD_TICKET_TYPES) == first_level
        assert tree.depth == 5

    def test_ccd_network_tree_depth(self):
        tree = build_ccd_network_tree(seed=0, scale=0.1, max_leaves=500)
        assert tree.depth == 5
        assert tree.root_label == "SHO"
        assert tree.num_leaves > 0

    def test_scd_network_tree_shape(self):
        tree = build_scd_network_tree(seed=0, scale=0.02, max_leaves=2000)
        assert tree.depth == 4
        assert tree.root_label == "National"
        # The first level must stay much wider than the deeper levels.
        assert len(tree.paths_at_depth(1)) >= 10

    def test_index_ids_are_dense(self):
        tree = build_ccd_trouble_tree(seed=3)
        paths = tree.paths
        assert sorted(paths) == sorted(node.path for node in tree.iter_nodes())
        ids = {path: i for i, path in enumerate(paths)}
        assert all(ids[path[:-1]] < i for i, path in enumerate(paths) if path)

    def test_siblings_share_label_strings(self):
        """Every parent's k-th generated child label is one string object."""
        tree = build_scd_network_tree(seed=0, scale=0.02, max_leaves=2000)
        a, b = tree.children(())[:2]
        assert tree.children(a)[0][-1] is tree.children(b)[0][-1]
