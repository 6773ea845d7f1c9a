"""Property-based equivalence of the two backend tiers.

The backend tier is the only thing that selects ADA's close path, and the
tiers are pure performance work — they must never change a detection, a
counter or a checkpoint.  A seeded generator produces random hierarchies and
bursty workloads (reusing :mod:`tests.integration.test_sharded_equivalence`'s
generator) and every example runs the same session once per tier:

* ``numpy`` — the vector close, the process default;
* ``python`` — the scalar walk, entered with the whole-process
  :func:`tests.conftest.python_tier` fixture.  It is the reference.

Per-unit results, anomaly dicts and the algorithm's adaptation counters
compare raw; the engine-describing counters (``mode``, ``fastpath_units``,
``planned_units``) are left out and the checkpoint is compared with the rows
of ``stats`` / ``stats_last_unit`` sorted (node-id order vs dict insertion
order).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._vector import backend_tier, load_numpy
from repro.engine.engine import DetectionEngine
from tests.conftest import TIERED_PACKAGES, canonical_checkpoint, python_tier
from tests.integration.test_sharded_equivalence import make_config, make_workload

#: Counters that describe the tier's adaptation engine, not the algorithm.
ENGINE_COUNTERS = ("mode", "fastpath_units", "planned_units")


#: The tiers this process can run: the vector tier is simply the process
#: default, absent only under ``REPRO_DISABLE_NUMPY=1 pytest``.
TIERS = {"python": python_tier}
if load_numpy() is not None:
    TIERS["numpy"] = nullcontext


class Leg(NamedTuple):
    """What one session run on one tier produced."""

    results: list
    anomalies: list
    counters: dict  # adaptation_stats() minus wall-clock seconds
    profile: dict  # close_profile()
    checkpoint_row_sorted: bytes


def run_leg(tier, seed, lateness, algorithm="ada") -> Leg:
    with TIERS[tier]():
        assert backend_tier() == tier
        tree, clock, records = make_workload(seed, lateness)
        config = make_config(seed, "drop")
        engine = DetectionEngine()
        engine.add_session("p", tree, config, algorithm=algorithm, clock=clock)
        results = engine.process_stream(records)["p"]
        anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
        counters = dict(engine.adaptation_stats()["p"])
        counters.pop("adapt_seconds", None)
        profile = engine.sessions["p"].close_profile()
        state = engine.state_dict()
        return Leg(
            results,
            anomalies,
            counters,
            profile,
            canonical_checkpoint(state, row_sorted=True),
        )


def algorithm_counters(leg: Leg) -> dict:
    return {k: v for k, v in leg.counters.items() if k not in ENGINE_COUNTERS}


def assert_matches_reference(leg: Leg, reference: Leg):
    """A vector-tier leg against the python-tier reference."""
    assert leg.results == reference.results
    assert leg.anomalies == reference.anomalies
    assert algorithm_counters(leg) == algorithm_counters(reference)
    assert leg.checkpoint_row_sorted == reference.checkpoint_row_sorted


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lateness=st.sampled_from([0.0, 0.08]),
)
def test_tiers_agree(seed, lateness):
    legs = {tier: run_leg(tier, seed, lateness) for tier in TIERS}
    reference = legs.pop("python")
    for leg in legs.values():
        assert_matches_reference(leg, reference)


@pytest.mark.parametrize("algorithm", ["ada", "sta"])
def test_seeded_matrix_all_tiers_agree(algorithm):
    """Deterministic sweep: every available tier against the python tier."""
    for seed in (3, 5, 11, 42):
        reference = run_leg("python", seed, 0.05, algorithm)
        for tier in TIERS:
            if tier != "python":
                leg = run_leg(tier, seed, 0.05, algorithm)
                assert_matches_reference(leg, reference)


def test_each_tier_takes_its_own_close_path():
    """The equivalence above would be vacuous if a leg silently ran another
    tier's close: vector tiers close every unit through the array tail, the
    python tier through the scalar walk."""
    for tier in TIERS:
        leg = run_leg(tier, 5, 0.0)
        counters, profile = leg.counters, leg.profile
        units = len(leg.results)
        assert units > 0
        if tier == "python":
            assert counters["mode"] == "legacy"
            assert profile["fused_units"] == 0
            assert profile["staged_units"] == units
            assert profile["dense_close_units"] == 0
        else:
            assert counters["mode"] == "delta"
            assert profile["fused_units"] == units
            assert profile["staged_units"] == 0
            assert counters["fastpath_units"] + counters["planned_units"] == units


def test_columnar_ingest_agrees_across_tiers(tmp_path):
    """Dictionary-coded batches (``.rcol``) reach ADA as dense count vectors
    on a vector tier and through the classic Counter ingest on the python
    tier; both must equal the per-record run of the same stream."""
    from repro.io.columnar import read_batches_columnar, write_trace_columnar

    seed, lateness = 11, 0.05
    tree, clock, records = make_workload(seed, lateness)
    path = tmp_path / "trace.rcol"
    write_trace_columnar(records, path)
    reference = run_leg("python", seed, lateness)
    for tier in TIERS:
        with TIERS[tier]():
            engine = DetectionEngine()
            engine.add_session("p", tree, make_config(seed, "drop"), clock=clock)
            results = engine.process_batches(read_batches_columnar(path, 64))["p"]
            anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
            profile = engine.sessions["p"].close_profile()
            checkpoint = canonical_checkpoint(engine.state_dict(), row_sorted=True)
        assert results == reference.results, tier
        assert anomalies == reference.anomalies, tier
        assert checkpoint == reference.checkpoint_row_sorted, tier
        assert (profile["dense_close_units"] > 0) == (tier != "python"), tier


def test_python_tier_is_whole_process_and_reversible():
    """The leg this suite's reference runs on: only ``repro.core``,
    ``repro.forecasting`` and ``repro.hierarchy`` modules bind a NumPy handle
    at all, inside the fixture none of them keeps it (the old per-suite
    patches left up to nine live), and leaving it restores the process tier."""
    import sys

    def handles():
        return {
            name
            for name, module in sys.modules.items()
            if name.startswith("repro.") and getattr(module, "_np", None) is not None
        }

    before = (backend_tier(), handles())
    assert all(name.startswith(TIERED_PACKAGES) for name in before[1])
    with python_tier():
        assert backend_tier() == "python"
        assert load_numpy() is None
        assert handles() == set()
        tree, clock, _ = make_workload(3, 0.0)
        session = DetectionEngine().add_session(
            "p", tree, make_config(3, "drop"), clock=clock
        )
        assert session.algorithm._index is None
        assert session.adaptation_stats()["mode"] == "legacy"
    assert (backend_tier(), handles()) == before
