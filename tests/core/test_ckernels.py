"""Compiled-tier equivalence: the C kernel is bit-identical to NumPy.

The kernel test runs the same seeded scenario twice through the hook ADA
calls — once on the compiled tier, once with ``REPRO_DISABLE_COMPILED=1``
pinning the NumPy tier — and compares the state arrays byte for byte.  The
compiled tests skip when the extension is absent (no compiler): the NumPy
and python tiers remain canonical and are covered by the rest of the suite.

The last test is not about the compiled tier: it reads ``src/`` and keeps
NumPy an unconditional import everywhere outside the three tiered packages.
"""

from __future__ import annotations

import os
import random
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro._vector import load_kernels
from repro.core.ada import _SplitStatsStore
from repro.core.config import TiresiasConfig
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree

needs_extension = pytest.mark.skipif(
    load_kernels() is None, reason="compiled kernel extension unavailable"
)

SRC = Path(__file__).resolve().parents[2] / "src"


@contextmanager
def numpy_tier():
    """Force the NumPy tier for the duration (kernels resolve per call)."""
    os.environ["REPRO_DISABLE_COMPILED"] = "1"
    try:
        yield
    finally:
        del os.environ["REPRO_DISABLE_COMPILED"]


@needs_extension
def test_extension_exposes_all_kernels():
    """The method table is exactly the set of ``kernels.<name>(`` call sites
    under ``src/``: a dead kernel cannot linger in the C file, a missing one
    cannot hide behind its NumPy fallback."""
    called = set()
    for path in SRC.rglob("*.py"):
        called.update(re.findall(r"\bkernels\.(\w+)\(", path.read_text(encoding="utf-8")))
    kernels = load_kernels()
    exported = {
        name
        for name in dir(kernels)
        if not name.startswith("_") and callable(getattr(kernels, name))
    }
    assert exported == called


# ----------------------------------------------------------------------
# update_stats_dense
# ----------------------------------------------------------------------
STATE_ARRAYS = (
    "cumulative",
    "ewma",
    "last_weight",
    "observations",
    "last_unit_arr",
    "seen",
    "has_last",
)


def stats_store() -> _SplitStatsStore:
    tree = HierarchyTree.from_leaf_paths(
        [(f"r{r}", f"s{r}{s}", f"l{r}{s}{leaf}") for r in range(4) for s in range(3) for leaf in range(4)]
    )
    return _SplitStatsStore(TiresiasConfig(split_ewma_alpha=0.3), HierarchyIndex(tree))


def state_bytes(store: _SplitStatsStore) -> list[bytes]:
    return [getattr(store, name).tobytes() for name in STATE_ARRAYS]


def raw_vectors(seed: int, nodes: int) -> list[tuple[int, "np.ndarray"]]:
    """``(timeunit, raw weights)`` closes: dense and sparse vectors, rows
    seen for the first time late in the run, silent gaps of one to a few
    hundred timeunits (far past the decay table a fresh store holds)."""
    rng = random.Random(seed)
    late_rows = set(rng.sample(range(nodes), nodes // 4))  # silent at first
    closes, unit = [], 0
    for step in range(40):
        unit += rng.choice([1, 1, 1, 2, 5, 37, 300])
        density = rng.choice([1.0, 0.6, 0.1, 0.02])
        raw = np.zeros(nodes)
        for node in range(nodes):
            if rng.random() < density and (step >= 25 or node not in late_rows):
                raw[node] = rng.choice([1.0, 2.0, 7.5, 1e-3, 1234.25])
        closes.append((unit, raw))
    closes.append((unit + 1, np.zeros(nodes)))  # nothing to fold at all
    return closes


@needs_extension
@pytest.mark.parametrize("seed", range(4))
def test_update_stats_dense_matches_numpy_tier(seed):
    compiled, reference = stats_store(), stats_store()
    for unit, raw in raw_vectors(seed, compiled.index.num_nodes):
        compiled.update_dense(unit, raw.copy())
        with numpy_tier():
            reference.update_dense(unit, raw.copy())
        assert state_bytes(compiled) == state_bytes(reference), unit
        assert compiled._decay == reference._decay
    assert len(reference._decay) > 300  # a gap far past the table was decayed


@needs_extension
def test_a_gap_past_the_decay_table_mutates_nothing_and_asks_for_a_retry():
    store = stats_store()
    nodes = store.index.num_nodes
    first = np.zeros(nodes)
    first[[1, 5, 9]] = [2.0, 3.0, 4.0]
    store.update_dense(0, first)
    before = state_bytes(store)
    raw = np.zeros(nodes)
    raw[[5, 9, 11]] = 1.5  # rows 5 and 9 were silent for 49 units; 11 is new
    short_table = np.asarray([1.0])
    args = (store.cumulative, store.ewma, store.last_weight, store.observations,
            store.last_unit_arr, store.seen, store.has_last)
    kernels = load_kernels()
    assert kernels.update_stats_dense(raw, 50, store.alpha, short_table, *args) == 49
    assert state_bytes(store) == before  # the short table touched nothing
    # The public hook grows the table with Python ``**`` and retries.
    reference = stats_store()
    with numpy_tier():
        reference.update_dense(0, first)
        reference.update_dense(50, raw)
    store.update_dense(50, raw)
    assert state_bytes(store) == state_bytes(reference)
    assert store._decay == reference._decay and len(store._decay) == 50


# ----------------------------------------------------------------------
# NumPy is a dependency, not an option, outside the tiered packages
# ----------------------------------------------------------------------
TIERED = ("core", "forecasting", "hierarchy", "_vector.py")
OPTIONAL_NUMPY = re.compile(
    r"load_numpy"                                   # asks whether NumPy is there
    r"|\b_?np_? is (?:not )?None"                   # tests a handle against None
    r"|try:[^\n]*\n(?:\s*#[^\n]*\n)*\s+import numpy"  # guards the import
)


def test_numpy_is_unconditional_outside_the_tiered_packages():
    """Only ``core/``, ``forecasting/``, ``hierarchy/`` (and ``_vector.py``,
    which serves them) have a python tier.  Everything else — batches,
    readers, the engine, the service — imports NumPy plainly: no
    ``load_numpy``, no handle compared with ``None``, no guarded import."""
    package = SRC / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] in TIERED:
            continue
        for match in OPTIONAL_NUMPY.finditer(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(SRC)}: {match.group(0).strip()!r}")
    assert offenders == []
