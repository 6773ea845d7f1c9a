"""Unit tests for :mod:`repro.hierarchy.domain`."""

import pytest

from repro.exceptions import ConfigurationError
from repro.hierarchy.domain import (
    CCD_NETWORK_DOMAIN,
    CCD_TROUBLE_DOMAIN,
    SCD_NETWORK_DOMAIN,
    DomainSpec,
    LevelSpec,
)


class TestLevelSpec:
    def test_valid_level(self):
        level = LevelSpec("VHO", 61)
        assert level.typical_degree == 61

    def test_degree_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LevelSpec("VHO", 0)

    def test_dispersion_bounds(self):
        with pytest.raises(ConfigurationError):
            LevelSpec("VHO", 3, degree_dispersion=1.5)


class TestDomainSpec:
    def test_depth_includes_root(self):
        spec = DomainSpec("d", "root", (LevelSpec("a", 2), LevelSpec("b", 3)))
        assert spec.depth == 3

    def test_requires_levels(self):
        with pytest.raises(ConfigurationError):
            DomainSpec("d", "root", ())


class TestCanonicalDomains:
    """The canonical specs must match the paper's Table II."""

    def test_ccd_trouble_shape(self):
        assert CCD_TROUBLE_DOMAIN.depth == 5
        assert CCD_TROUBLE_DOMAIN.typical_degrees == (9, 6, 3, 5)

    def test_ccd_network_shape(self):
        assert CCD_NETWORK_DOMAIN.depth == 5
        assert CCD_NETWORK_DOMAIN.typical_degrees == (61, 5, 6, 24)
        assert CCD_NETWORK_DOMAIN.root_label == "SHO"

    def test_scd_network_shape(self):
        assert SCD_NETWORK_DOMAIN.depth == 4
        assert SCD_NETWORK_DOMAIN.typical_degrees == (2000, 30, 6)
