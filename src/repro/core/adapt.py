"""Delta-driven adaptation planning: ADA's SPLIT/MERGE cascade on node ids.

The paper's SPLIT/MERGE cascade, walked per path over tuple-keyed
dictionaries (as :mod:`repro.testing.reference` does), costs full scans of
the series dict, per-path ancestor walks over ``CategoryPath`` slices, and one
dict of :class:`~repro.core.split_rules.NodeUsageStats` views per cascade step
every timeunit.  This module is its id-based form, the planner of every ADA
close (serial sessions, the columnar batch close and the sharded engine's
subtree shards): given the dense heavy mask of the new timeunit and the
registry occupancy mask, it *simulates* the exact cascade — ``(depth, lex)``
order, the receiver sets, the split-rule arithmetic (the Python ``sum`` of
the receivers' scores in order, as
:meth:`~repro.core.split_rules.SplitRule.ratios` sums them) — and emits the
whole adaptation as a flat op list:

* ``("fresh", node)`` — a brand-new series (no series-holding ancestor);
* ``("split", donor, child, ratio, correct)`` — one cascade step handing the
  ``ratio`` share of ``donor``'s series to ``child`` (``correct`` marks
  children in the reference levels whose biased share must be replaced);
* ``("fold", src, dst)`` / ``("move", src, dst)`` / ``("drop", src)`` — the
  MERGE phase, deepest-first.

The emitter never touches forecaster or window state, so planning is cheap
(integer sweeps over the delta, not the registry).  The application layer
(:meth:`ADAAlgorithm._apply_plan <repro.core.ada.ADAAlgorithm._apply_plan>`)
runs the ops one by one in this order, on bank row numbers: each is a
whole-row operation of the :class:`~repro.forecasting.bank.ForecasterBank`
row store (``split_row`` — two multiplies, ``fold_row`` — one add,
``reseed`` — the reference correction in place), and an op reads the rows the
ops before it wrote — results stay bit-for-bit identical to the per-path
cascade (property-checked against the reference in
``tests/core/test_adapt_planner.py`` and ``tests/integration/test_reference_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Op tags (tuple-based ops keep planning allocation-light).
FRESH = "fresh"
SPLIT = "split"
FOLD = "fold"
MOVE = "move"
DROP = "drop"


@dataclass
class AdaptationPlan:
    """One timeunit's adaptation as a flat op list in cascade order."""

    ops: list[tuple]
    num_splits: int
    num_merges: int

    def __bool__(self) -> bool:
        return bool(self.ops)


def plan_adaptation(
    index: Any,
    series_mask,
    heavy_mask,
    has_reference: Callable[[int], bool],
    score_of: Callable[[int], float],
) -> AdaptationPlan:
    """Simulate the SPLIT/MERGE cascade on node ids and emit its ops.

    ``series_mask`` is the registry occupancy before adaptation (not
    mutated), ``heavy_mask`` the new heavy hitter membership (root bit
    already adjusted for ``track_root`` / ``allow_root_heavy``).
    ``has_reference`` tells whether a reference-series correction would
    apply at a node id and ``score_of`` is the split rule's score of a node
    id at this timeunit (see
    :meth:`ADAAlgorithm._make_id_scorer
    <repro.core.ada.ADAAlgorithm._make_id_scorer>`) — both mirror exactly
    what the per-path cascade reads.  The ratio normalization runs inline
    with the exact Python ``sum`` / division of
    :meth:`~repro.core.split_rules.SplitRule.ratios`.
    """
    sim = series_mask.copy()
    ops: list[tuple] = []
    num_splits = 0
    num_merges = 0
    child_start = index.child_start
    parent = index.parent

    # SPLIT phase, top-down in (depth, lex) order — ties broken exactly like
    # ``sorted(paths, key=lambda p: (len(p), p))``.
    new_mask = heavy_mask & ~sim
    new_ids = index.depth_lex_ids(new_mask) if new_mask.any() else []
    for target in new_ids:
        if sim[target]:
            continue  # created by a previous cascade in this phase
        # The donor is the nearest series-holding ancestor; the nodes passed
        # on the way up, reversed, are the children the cascade steps to.
        below_donor = []
        donor = target
        while donor != 0:
            below_donor.append(donor)
            donor = int(parent[donor])
            if sim[donor]:
                break
        else:
            donor = None
        if donor is None:
            ops.append((FRESH, target))
            sim[target] = True
            continue
        current = donor
        for child in reversed(below_donor):
            receivers = []
            child_pos = -1
            for c in range(child_start[current], child_start[current + 1]):
                if not sim[c]:
                    if c == child:
                        child_pos = len(receivers)
                    receivers.append(c)
            if child_pos < 0:  # defensive: the target's branch is a receiver
                child_pos = len(receivers)
                receivers.append(child)
            scores = [max(0.0, score_of(rid)) for rid in receivers]
            total = sum(scores)
            if total <= 0.0:
                ratio = 1.0 / len(receivers)
            else:
                ratio = scores[child_pos] / total
            ops.append((SPLIT, current, child, ratio, has_reference(child)))
            num_splits += 1
            sim[child] = True
            current = child

    # MERGE phase, bottom-up: reversed (depth, lex) ==
    # ``sorted(paths, key=(len(p), p), reverse=True)``.
    stale_mask = sim & ~heavy_mask
    stale_ids = index.depth_lex_ids(stale_mask) if stale_mask.any() else []
    for src in reversed(stale_ids):
        sim[src] = False
        dst = src
        while dst != 0:
            dst = int(parent[dst])
            if heavy_mask[dst]:
                break
        else:
            dst = None
        num_merges += 1
        if dst is None:
            ops.append((DROP, src))
        elif sim[dst]:
            ops.append((FOLD, src, dst))
        else:
            ops.append((MOVE, src, dst))
            sim[dst] = True
    return AdaptationPlan(ops=ops, num_splits=num_splits, num_merges=num_merges)


__all__ = [
    "AdaptationPlan",
    "plan_adaptation",
    "FRESH",
    "SPLIT",
    "FOLD",
    "MOVE",
    "DROP",
]
