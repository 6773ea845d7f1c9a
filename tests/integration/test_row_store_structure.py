"""Structure of the row store, not its speed.

Every heavy hitter's linear state is one row of the bank's matrix; these
tests pin what that means for an ADA run with real churn:

* every ``series.actual`` / ``series.forecast`` is a read view into the bank
  matrix — no per-series array survives;
* rows are recycled: the bank's high-water mark stays within the peak number
  of live series plus what one plan can allocate;
* :meth:`ADAAlgorithm.memory_units` counts live elements, never capacity;
* a checkpoint written by the commit *before* the row store restores into it
  and continues to byte-identical detections and checkpoint.

The last one reads ``tests/golden/pre_row_store.*``, written once by running
this file as a script against the parent commit's sources
(``PYTHONPATH=<parent>/src python tests/integration/test_row_store_structure.py``).
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from repro.core.ada import ADAAlgorithm
from repro.core.adapt import FRESH, SPLIT
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.timeseries import FloatRing
from repro.engine.engine import DetectionEngine
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import iter_record_batches
from repro.testing.reference import ReferenceADA
from tests.conftest import GOLDEN_DIR, GOLDEN_SPECS, canonical_checkpoint, load_golden_trace

FIXTURE_CHECKPOINT = GOLDEN_DIR / "pre_row_store.checkpoint.json"
FIXTURE_EXPECTED = GOLDEN_DIR / "pre_row_store.expected.json"
FIXTURE_SPEC = GOLDEN_SPECS[0]  # ccd_trouble: 62 splits / 111 merges in 96 units
FIXTURE_BATCH = 512
FIXTURE_CUT = 3  # batches ingested before the checkpoint (mid-timeunit)


def _fixture_batches():
    tree, clock, records = load_golden_trace(FIXTURE_SPEC)
    return tree, clock, list(iter_record_batches(records, FIXTURE_BATCH))


def _finish(engine, batches) -> dict:
    """Feed the post-checkpoint batches; what the run must reproduce."""
    name = FIXTURE_SPEC.name
    for batch in batches[FIXTURE_CUT:]:
        engine.ingest_record_batch(batch)
    before_flush = hashlib.sha256(canonical_checkpoint(engine.state_dict())).hexdigest()
    engine.flush()
    return {
        "anomalies": [a.to_dict() for a in engine.anomalies()[name]],
        "adaptation": {
            key: value
            for key, value in engine.adaptation_stats()[name].items()
            if key in ("split_operations", "merge_operations")
        },
        "checkpoint_sha256_before_flush": before_flush,
        "checkpoint_sha256": hashlib.sha256(
            canonical_checkpoint(engine.state_dict())
        ).hexdigest(),
    }


def write_fixture() -> None:
    """Run at the parent commit: checkpoint mid-stream, record the rest."""
    tree, clock, batches = _fixture_batches()
    engine = DetectionEngine()
    engine.add_session(
        FIXTURE_SPEC.name,
        tree,
        FIXTURE_SPEC.detector_config(),
        algorithm=FIXTURE_SPEC.algorithm,
        clock=clock,
    )
    for batch in batches[:FIXTURE_CUT]:
        engine.ingest_record_batch(batch)
    engine.save_checkpoint(FIXTURE_CHECKPOINT)
    expected = _finish(engine, batches)
    FIXTURE_EXPECTED.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_pre_row_store_checkpoint_restores_and_continues_identically():
    _tree, _clock, batches = _fixture_batches()
    engine = DetectionEngine.load_checkpoint(FIXTURE_CHECKPOINT)
    expected = json.loads(FIXTURE_EXPECTED.read_text(encoding="utf-8"))
    assert _finish(engine, batches) == expected


# ----------------------------------------------------------------------
# A multi-unit churn run, looked at from the inside
# ----------------------------------------------------------------------
def _churn_units(units: int = 60):
    """Leaf counts whose hot subtree moves every few timeunits, so every
    rotation runs SPLIT cascades, corrections and MERGE folds."""
    leaves = [
        (f"t{a}", f"m{a}{b}", f"l{a}{b}{c}")
        for a in range(3)
        for b in range(3)
        for c in range(3)
    ]
    tree = HierarchyTree.from_leaf_paths(leaves)
    rng = random.Random(4242)
    stream = []
    for unit in range(units):
        hot = leaves[(unit // 4 * 7) % len(leaves)]
        counts = {leaf: rng.randrange(0, 3) for leaf in leaves}
        for leaf in leaves:
            if leaf[:2] == hot[:2]:
                counts[leaf] += rng.randrange(4, 9)
        counts[hot] += 6
        stream.append({leaf: n for leaf, n in counts.items() if n})
    return tree, stream


CHURN_CONFIG = TiresiasConfig(
    theta=5.0,
    window_units=12,
    reference_levels=2,
    track_root=False,
    allow_root_heavy=False,
    forecast=ForecastConfig(season_lengths=(3,), fallback_alpha=0.4),
)


def test_churn_run_keeps_every_series_in_the_bank_matrix():
    tree, stream = _churn_units()
    algo = ADAAlgorithm(tree, CHURN_CONFIG)
    plan_allocations = [0]
    apply_plan = algo._apply_plan

    def counting_apply(plan):
        plan_allocations.append(sum(op[0] in (SPLIT, FRESH) for op in plan.ops))
        apply_plan(plan)

    algo._apply_plan = counting_apply
    peak_live = 0
    views_checked = 0
    for counts in stream:
        before = len(algo.series)
        algo.process_timeunit(counts)
        peak_live = max(peak_live, before, len(algo.series))
        bank = algo.bank
        assert len(bank) == len(algo.series)
        live_elements = 0
        for series in algo.series.values():
            assert series.forecaster.bank is bank
            assert not any(
                isinstance(value, (np.ndarray, FloatRing)) for value in vars(series).values()
            ), "a per-series array survived"
            for ring in (series.actual, series.forecast):
                assert isinstance(ring, FloatRing)
                window = ring.values()
                live_elements += len(window)
                if window.base is not None:  # a wrapped ring reads as a copy
                    assert np.shares_memory(window, bank._state)
                    views_checked += 1
        # Live elements, never capacity: rows × width would be far more.
        assert algo.memory_units() == tree.num_nodes + live_elements + algo._ref.total_len()
        assert live_elements <= 2 * CHURN_CONFIG.window_units * len(algo.series)
        # Rows are recycled: a plan allocates before it frees, nothing else does.
        assert bank._size <= peak_live + max(plan_allocations)
    stats = algo.adaptation_stats()
    assert stats["split_operations"] > 50 and stats["merge_operations"] > 50
    assert views_checked > 100
    assert algo.bank._state.shape[0] < 4 * peak_live

    oracle = ReferenceADA(tree, CHURN_CONFIG)
    for counts in stream:
        oracle.process_timeunit(counts)
    assert algo.memory_units() == tree.num_nodes + sum(
        len(s.actual) + len(s.forecast) for s in oracle.series.values()
    ) + sum(len(values) for values in oracle.reference.values())


if __name__ == "__main__":
    write_fixture()
