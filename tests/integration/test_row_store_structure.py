"""Structure of the row store, not its speed.

Every heavy hitter's linear state is one row of the bank's matrix; these
tests pin what that means for an ADA run with real churn:

* every tracked series' actual / forecast window is a slice of the bank
  matrix — no per-series array exists;
* rows are recycled: the bank's high-water mark stays within the peak number
  of live series plus what one plan can allocate;
* :meth:`ADAAlgorithm.memory_units` counts live elements, never capacity;
* :meth:`ADAAlgorithm.series_state` is the checkpoint's entry for a path,
  before and after a restore, and a copy;
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
from repro.engine.engine import DetectionEngine
from repro.engine.session import DetectionSession
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
    tree = HierarchyTree(leaves)
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
        before = len(algo._series_ids)
        algo.process_timeunit(counts)
        tracked = len(algo._series_ids)
        peak_live = max(peak_live, before, tracked)
        bank = algo.bank
        assert len(bank) == tracked
        live_elements = 0
        for row in algo._series_ids.values():
            for which in (0, 1):
                window = bank.window_values(row, which)
                live_elements += len(window)
                if window.base is not None:  # a wrapped window reads as a copy
                    assert np.shares_memory(window, bank._state)
                    views_checked += 1
        # Live elements, never capacity: rows × width would be far more.
        assert algo.memory_units() == tree.num_nodes + live_elements + algo._ref.total_len()
        assert live_elements <= 2 * CHURN_CONFIG.window_units * tracked
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



def _assert_series_state_is_the_checkpoint_entry(algo, tree) -> None:
    series = algo.state_dict()["series"]
    tracked = {tuple(path) for path, _state in series}
    assert len(tracked) > 3
    for path, state in series:
        assert algo.series_state(tuple(path)) == state
    untracked = [node.path for node in tree.iter_nodes() if node.path not in tracked]
    assert untracked
    for path in untracked + [("nope",), ("t0", "m00", "l000", "deeper")]:
        assert algo.series_state(path) is None


def test_series_state_is_the_checkpoint_entry_of_its_path(tmp_path):
    tree, stream = _churn_units()
    session = DetectionSession(tree, CHURN_CONFIG)
    for unit, counts in enumerate(stream):
        session.process_timeunit_counts(counts, timeunit=unit)
    assert session.algorithm.adaptation_stats()["split_operations"] > 50
    _assert_series_state_is_the_checkpoint_entry(session.algorithm, tree)

    session.save_checkpoint(tmp_path / "churn.json")
    restored = DetectionSession.load_checkpoint(tmp_path / "churn.json")
    algo = restored.algorithm
    _assert_series_state_is_the_checkpoint_entry(algo, tree)
    assert algo.state_dict()["series"] == session.algorithm.state_dict()["series"]

    # The snapshot is built per call: writing into it changes nothing.
    before = json.dumps(restored.state_dict(), sort_keys=True)
    path = tuple(algo.state_dict()["series"][0][0])
    state = algo.series_state(path)
    state["actual"][-1] += 1.0
    state["forecast"].clear()
    state["forecaster"]["history"].append(5.0)
    state["forecaster"]["seen"] = -1
    state["length"] = 0
    if state["forecaster"]["seasonal"] is not None:
        state["forecaster"]["seasonal"]["seasonals"][0] += 1.0
    assert json.dumps(restored.state_dict(), sort_keys=True) == before
    assert algo.series_state(path) != state


if __name__ == "__main__":
    write_fixture()
