"""Shared fixtures for the test suite.

Most tests use a small, fully deterministic hierarchy (two levels below the
root, twelve leaves) so that heavy hitter computations can be checked by
hand, plus small Tiresias configurations with short windows and short
seasonal periods that keep the online algorithms fast.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def small_tree() -> HierarchyTree:
    """A 3-level hierarchy: root -> 3 regions -> 4 sites each (12 leaves)."""
    paths = [
        (f"region-{r}", f"site-{r}{s}")
        for r in range(3)
        for s in range(4)
    ]
    return HierarchyTree(paths, root_label="All")


@pytest.fixture
def deep_tree() -> HierarchyTree:
    """A 5-level hierarchy mirroring the CCD network path shape (small)."""
    paths = []
    for vho in range(2):
        for io in range(2):
            for co in range(3):
                for dslam in range(2):
                    paths.append(
                        (f"vho-{vho}", f"io-{vho}{io}", f"co-{vho}{io}{co}", f"dslam-{vho}{io}{co}{dslam}")
                    )
    return HierarchyTree(paths, root_label="SHO")


@pytest.fixture
def fast_config() -> TiresiasConfig:
    """A small-window configuration for quick online runs in tests."""
    return TiresiasConfig(
        theta=5.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        delta_seconds=900.0,
        window_units=48,
        split_rule="long-term-history",
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(8,), fallback_alpha=0.3),
    )


@pytest.fixture
def clock() -> SimulationClock:
    return SimulationClock(delta=900.0, epoch=0.0, epoch_weekday=0, epoch_hour=0.0)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


# ----------------------------------------------------------------------
# Checkpoint comparison
# ----------------------------------------------------------------------
_WALL_CLOCK_FIELDS = frozenset({"stage_seconds", "reading_seconds"})
_STATS_ROW_FIELDS = frozenset({"stats", "stats_last_unit"})


def canonical_checkpoint(state, row_sorted: bool = False) -> bytes:
    """Checkpoint bytes of an engine / session / algorithm state dict, minus
    the wall-clock fields (the only legitimate difference between two runs).

    ``row_sorted`` additionally sorts the rows of ADA's ``stats`` and
    ``stats_last_unit`` by path — ADA emits them in node-id order, the
    reference (:mod:`repro.testing.reference`) in first-seen order, and that
    is the only difference between their checkpoints.
    """

    def clean(value):
        if isinstance(value, dict):
            return {
                key: sorted(item, key=lambda row: row[0])
                if row_sorted and key in _STATS_ROW_FIELDS
                else clean(item)
                for key, item in value.items()
                if key not in _WALL_CLOCK_FIELDS
            }
        if isinstance(value, list):
            return [clean(item) for item in value]
        return value

    return json.dumps(clean(state), sort_keys=True).encode()


# ----------------------------------------------------------------------
# Golden regression traces (tests/golden/)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoldenSpec:
    """One canonical trace: how to (re)generate it and how to detect on it.

    The trace files under ``tests/golden/`` are committed; the spec only
    regenerates one when its file is missing.  The ``*.expected.json`` files
    are rewritten by running pytest with ``--update-golden``.
    """

    name: str
    kind: str  # "ccd-trouble" | "ccd-network" | "scd"
    algorithm: str = "ada"

    def dataset(self):
        from repro.datagen.ccd import CCDConfig, make_ccd_dataset
        from repro.datagen.scd import SCDConfig, make_scd_dataset

        if self.kind == "scd":
            return make_scd_dataset(
                SCDConfig(
                    duration_days=1.0,
                    delta_seconds=900.0,
                    base_rate_per_hour=120.0,
                    network_scale=0.04,
                    num_anomalies=3,
                    anomaly_warmup_days=0.3,
                    seed=1303,
                )
            )
        return make_ccd_dataset(
            CCDConfig(
                dimension="trouble" if self.kind == "ccd-trouble" else "network",
                duration_days=1.0,
                delta_seconds=900.0,
                base_rate_per_hour=120.0,
                num_anomalies=3,
                anomaly_warmup_days=0.3,
                seed=1301 if self.kind == "ccd-trouble" else 1302,
            )
        )

    def detector_config(self) -> TiresiasConfig:
        return TiresiasConfig(
            theta=5.0 if self.kind != "scd" else 4.0,
            ratio_threshold=2.0,
            difference_threshold=4.0,
            delta_seconds=900.0,
            window_units=48,
            reference_levels=1,
            track_root=False,
            allow_root_heavy=False,
            forecast=ForecastConfig(season_lengths=(8,), fallback_alpha=0.3),
        )

    @property
    def trace_path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.jsonl"

    @property
    def expected_path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.expected.json"


GOLDEN_SPECS = (
    GoldenSpec(name="ccd_trouble", kind="ccd-trouble"),
    GoldenSpec(name="ccd_network", kind="ccd-network"),
    GoldenSpec(name="scd", kind="scd"),
)


def load_golden_trace(spec: GoldenSpec):
    """The committed records of one golden trace (generated when missing),
    plus the tree/clock it detects on."""
    from repro.io.jsonl_io import read_records_jsonl, write_records_jsonl

    dataset = spec.dataset()
    if not spec.trace_path.exists():
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        write_records_jsonl(dataset.records(), spec.trace_path)
    records = list(read_records_jsonl(spec.trace_path))
    return dataset.tree, dataset.clock, records


@pytest.fixture
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(params=GOLDEN_SPECS, ids=lambda spec: spec.name)
def golden_spec(request) -> GoldenSpec:
    """Parametrizes a test over every committed golden trace."""
    return request.param


@pytest.fixture(scope="session")
def golden_trace_loader():
    """The (tree, clock, records) loader for a :class:`GoldenSpec`."""
    return load_golden_trace


@pytest.fixture(scope="session")
def golden_specs_by_name() -> dict[str, GoldenSpec]:
    return {spec.name: spec for spec in GOLDEN_SPECS}
