"""Evaluation metrics (§VII-A accuracy metrics and §VII-B comparison metrics).

Two families of metrics are defined:

* **Standard confusion metrics** (accuracy, precision, recall) over
  (node, timeunit) decisions, used when comparing ADA's detections against
  STA's ground truth (Table V).

* **Reference-comparison metrics** (§VII-B).  The reference anomaly set only
  covers the first network level, so the paper defines: a *true alarm* (TA)
  when a reference anomaly has a Tiresias anomaly at the same timeunit at the
  same node or a descendant; a *missed anomaly* (MA) otherwise; a *new
  anomaly* (NA) for Tiresias anomalies unrelated to any reference anomaly;
  and a *true negative* (TN) for tracked heavy hitters that neither method
  flagged.  Three summary ratios are reported:

  - Type 1 (accuracy)  = (#TA + #TN) / #cases
  - Type 2             = #TA / (#TA + #MA)
  - Type 3             = #TN / (#TN + #NA)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro._types import CategoryPath, TimeunitIndex
from repro.core.detector import Anomaly

#: A detection decision point: (node path, timeunit).
Case = tuple[CategoryPath, TimeunitIndex]


@dataclass(frozen=True)
class ConfusionMetrics:
    """Standard binary classification counts and derived ratios."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 1.0
        return (self.true_positives + self.true_negatives) / self.total

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        if denominator == 0:
            return 1.0
        return self.true_positives / denominator

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        if denominator == 0:
            return 1.0
        return self.true_positives / denominator


def confusion_from_sets(
    predicted: set[Case], truth: set[Case], universe: set[Case]
) -> ConfusionMetrics:
    """Confusion counts for predicted vs. true anomalous cases over ``universe``.

    Cases outside ``universe`` (e.g. decisions at nodes only one algorithm
    tracked) are added to it so every prediction and truth item is counted.
    """
    universe = set(universe) | predicted | truth
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    tn = len(universe) - tp - fp - fn
    return ConfusionMetrics(
        true_positives=tp,
        false_positives=fp,
        true_negatives=max(tn, 0),
        false_negatives=fn,
    )


# ----------------------------------------------------------------------
# Reference-comparison metrics (Table VI)
# ----------------------------------------------------------------------


def _is_ancestor_or_self(ancestor: CategoryPath, descendant: CategoryPath) -> bool:
    """The paper's ``L1 ⊒ L2`` relation on hierarchy paths."""
    return len(ancestor) <= len(descendant) and descendant[: len(ancestor)] == ancestor


@dataclass(frozen=True)
class ReferenceComparison:
    """Counts and ratios of the §VII-B comparison against a reference method.

    Attributes
    ----------
    true_alarms:
        Reference anomalies matched by a Tiresias anomaly at the same timeunit
        at the same node or deeper (Tiresias localizes at least as precisely).
    missed_anomalies:
        Reference anomalies with no matching Tiresias anomaly.
    new_anomalies:
        Tiresias anomalies unrelated to any reference anomaly.
    true_negatives:
        Tracked (node, timeunit) cases that neither method flagged.
    """

    true_alarms: int
    missed_anomalies: int
    new_anomalies: int
    true_negatives: int

    @property
    def cases(self) -> int:
        return (
            self.true_alarms
            + self.missed_anomalies
            + self.new_anomalies
            + self.true_negatives
        )

    @property
    def type1_accuracy(self) -> float:
        if self.cases == 0:
            return 1.0
        return (self.true_alarms + self.true_negatives) / self.cases

    @property
    def type2(self) -> float:
        denominator = self.true_alarms + self.missed_anomalies
        if denominator == 0:
            return 1.0
        return self.true_alarms / denominator

    @property
    def type3(self) -> float:
        denominator = self.true_negatives + self.new_anomalies
        if denominator == 0:
            return 1.0
        return self.true_negatives / denominator


def compare_with_reference(
    tiresias_anomalies: Iterable[Anomaly],
    reference_anomalies: Iterable[Anomaly],
    tracked_cases: Iterable[Case],
    time_tolerance: int = 0,
) -> ReferenceComparison:
    """Score Tiresias detections against a (first-level-only) reference set.

    Parameters
    ----------
    tiresias_anomalies:
        Anomalies reported by Tiresias.
    reference_anomalies:
        Anomalies reported by the reference method (e.g. the VHO-level control
        chart).
    tracked_cases:
        The (node, timeunit) cases Tiresias tracked (its heavy hitters per
        timeunit); true negatives are drawn from these.
    time_tolerance:
        Maximum timeunit distance for an anomaly pair to be considered the
        same event.  The paper matches exact timeunits (tolerance 0); a small
        tolerance treats a sustained event flagged by the two methods in
        adjacent timeunits as the same alarm, which is how operations teams
        read the reports in practice.
    """
    tiresias_list = list(tiresias_anomalies)
    reference_list = list(reference_anomalies)

    def related(ref: Anomaly, ours: Anomaly) -> bool:
        return abs(ours.timeunit - ref.timeunit) <= time_tolerance and _is_ancestor_or_self(
            ref.node_path, ours.node_path
        )

    matched_tiresias: set[int] = set()
    true_alarms = 0
    missed = 0
    for ref in reference_list:
        found = False
        for idx, ours in enumerate(tiresias_list):
            if related(ref, ours):
                found = True
                matched_tiresias.add(idx)
        if found:
            true_alarms += 1
        else:
            missed += 1

    new_anomalies = 0
    new_anomaly_cases: set[Case] = set()
    for idx, ours in enumerate(tiresias_list):
        if not any(related(ref, ours) for ref in reference_list):
            new_anomalies += 1
            new_anomaly_cases.add((ours.node_path, ours.timeunit))

    flagged_cases: set[Case] = {
        (a.node_path, a.timeunit) for a in tiresias_list
    } | {(a.node_path, a.timeunit) for a in reference_list}
    true_negatives = sum(1 for case in set(tracked_cases) if case not in flagged_cases)

    return ReferenceComparison(
        true_alarms=true_alarms,
        missed_anomalies=missed,
        new_anomalies=new_anomalies,
        true_negatives=true_negatives,
    )


def match_against_ground_truth(
    anomalies: Iterable[Anomaly],
    ground_truth: set[Case],
    tolerance_units: int = 1,
) -> tuple[int, int]:
    """(detected, total) ground-truth events found by ``anomalies``.

    A ground-truth (node, timeunit) event counts as detected when some anomaly
    within ``tolerance_units`` timeunits is located at the node or any of its
    ancestors or descendants -- the detection localizes the same subtree even
    if the sparse leaf signal only surfaced at an aggregate.
    """
    anomaly_list = list(anomalies)
    detected = 0
    for truth_path, truth_unit in ground_truth:
        hit = any(
            abs(a.timeunit - truth_unit) <= tolerance_units
            and (
                _is_ancestor_or_self(a.node_path, truth_path)
                or _is_ancestor_or_self(truth_path, a.node_path)
            )
            for a in anomaly_list
        )
        if hit:
            detected += 1
    return detected, len(ground_truth)


def detection_rate(
    anomalies: Iterable[Anomaly], ground_truth: set[Case], tolerance_units: int = 1
) -> float:
    """Fraction of ground-truth events detected (1.0 when there are none)."""
    detected, total = match_against_ground_truth(anomalies, ground_truth, tolerance_units)
    if total == 0:
        return 1.0
    return detected / total

