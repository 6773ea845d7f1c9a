"""How one session's state divides across subtree shards.

A subtree shard owns whole depth-1 subtrees: the sharded engine
(:mod:`repro.engine.sharded`) places groups of depth-1 labels on shard
sessions, and only the root spans more than one of them.  This module is
the layout those shards share, in one place:

* :func:`plan_subtree_groups` — which depth-1 labels go together;
* :class:`SubtreePartition` — which shard group a path belongs to;
* :func:`split_session_state` / :func:`merge_session_states` — one
  serial-format session state into per-shard states and back;
* :class:`FrontierReplica` — ADA's split-rule statistics for the root, kept
  by the coordinator from the root weights its shards report.

Everything here works on the serial session state
(:meth:`~repro.engine.session.DetectionSession.state_dict`), so sharded and
serial checkpoints are one format.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

import numpy as np

from repro._vector import left_sum
from repro.core.ada import SplitStatsStore
from repro.core.config import TiresiasConfig
from repro.core.registry import ALGORITHMS
from repro.exceptions import CheckpointError, ConfigurationError
from repro.hierarchy.tree import HierarchyTree


class SubtreePartition:
    """Deterministic path -> shard-group routing by a path's first label.

    ``groups`` assigns depth-1 labels to shard groups.  A path belongs to
    the group owning its first label: a leaf, an interior node, or a path
    outside the monitored hierarchy under a known label.  The root routes
    to ``None``; a path under no known label (counted but never detected
    on) to ``default``, group 0 by convention.
    """

    def __init__(self, groups: Sequence[Sequence[str]]):
        self.groups: list[list[str]] = [list(labels) for labels in groups]
        self.label_to_gid: dict[str, int] = {}
        for gid, labels in enumerate(self.groups):
            for label in labels:
                if label in self.label_to_gid:
                    raise CheckpointError(
                        f"subtree label {label!r} assigned to two shard groups"
                    )
                self.label_to_gid[label] = gid
        self.num_groups = len(self.groups)

    def route(self, path: Sequence[str], default: "int | None" = 0) -> "int | None":
        """The shard group that receives records/state rows for ``path``."""
        if not path:
            return None
        return self.label_to_gid.get(path[0], default)


def plan_subtree_groups(
    leaves: Sequence[Sequence[str]], shards: int
) -> list[list[str]]:
    """Deterministically assign depth-1 labels to balanced groups.

    Labels are ordered by descending leaf count (ties lexicographic) and
    greedily placed on the lightest group (ties on the lowest group id) — a
    classic LPT schedule.  At most one group per label is produced; labels
    inside a group are returned sorted.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    counts: dict[str, int] = {}
    for path in leaves:
        counts[path[0]] = counts.get(path[0], 0) + 1
    k = min(shards, len(counts))
    groups: list[list[str]] = [[] for _ in range(k)]
    loads = [0] * k
    for label in sorted(counts, key=lambda u: (-counts[u], u)):
        gid = min(range(k), key=lambda g: (loads[g], g))
        groups[gid].append(label)
        loads[gid] += counts[label]
    return [sorted(group) for group in groups]


def split_session_state(
    state: Mapping[str, Any], groups: Sequence[Sequence[str]]
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Partition one serial session state into disjoint subtree-shard states.

    ``groups`` assigns every depth-1 label of the session's hierarchy to one
    shard group.  Each returned sub-state is a complete, loadable session
    state over the sub-hierarchy of its group's labels: path-keyed
    collections (series, reference buffers, split statistics, pending
    counts, STA weight tables) are routed through a
    :class:`SubtreePartition`, scalar clock/warm-up bookkeeping is
    replicated, and timing/operation counters start from zero so that
    merging later can add them back onto the serial baseline.

    The second return value holds ADA's root bookkeeping no shard owns —
    the root's split-rule statistics rows — which the sharded engine
    maintains coordinator-side from the per-timeunit root weights its ADA
    shards report.  STA withholds nothing: the root row of each retained
    weight table goes whole to group 0, so a shard's root rows are not what
    a from-scratch run over its sub-hierarchy would hold.  No STA code reads
    a root row (the root is never heavy here), and the merge sums root rows
    across shards, which restores the serial table.  Raises
    :class:`CheckpointError` when the session cannot be subtree-sharded:
    unsupported algorithm, ``track_root`` or ``allow_root_heavy`` enabled, a
    root-held time series, or an incomplete group cover.
    """
    if "shadow" in state:
        raise CheckpointError(
            "cannot subtree-shard a session that runs a shadow experiment; "
            "stop or promote the shadow before sharding"
        )
    algorithm = str(state["algorithm"])
    if algorithm not in ALGORITHMS:
        raise CheckpointError(
            f"unknown algorithm {algorithm!r}; known algorithms: {sorted(ALGORITHMS)}"
        )
    if bool(state["config"].get("track_root", True)) or bool(
        state["config"].get("allow_root_heavy", True)
    ):
        raise CheckpointError(
            "subtree sharding requires track_root=False and "
            "allow_root_heavy=False: the root is the only node whose series "
            "and adaptation span every depth-1 subtree, so it must be "
            "excluded from tracking for shard detections to equal a serial "
            "run"
        )
    part = SubtreePartition(groups)
    k = part.num_groups
    if k < 2:
        raise CheckpointError("subtree sharding needs at least two groups")

    leaves_by_gid: list[list[list[str]]] = [[] for _ in range(k)]
    for path in state["tree"]["leaves"]:
        gid = part.route(path, default=None)
        if gid is None:
            raise CheckpointError(
                f"shard groups do not cover subtree label {path[0]!r}"
            )
        leaves_by_gid[gid].append(list(path))
    for gid, leaves in enumerate(leaves_by_gid):
        if not leaves:
            raise CheckpointError(f"shard group {gid} owns no leaves")

    pending_by_gid: list[list[Any]] = [[] for _ in range(k)]
    for path, count in state["pending"]:
        pending_by_gid[part.route(path) or 0].append([list(path), count])

    algo_state = state["algorithm_state"]
    zero_stage = {key: 0.0 for key in algo_state["stage_seconds"]}
    withheld: dict[str, Any] = {}
    algo_by_gid: list[dict[str, Any]] = []
    if algorithm == "ada":
        withheld = {"stats": [], "stats_last_unit": []}
        split_lists: dict[str, list[list[list[Any]]]] = {
            field: [[] for _ in range(k)]
            for field in ("series", "reference", "stats", "stats_last_unit")
        }
        for field, routed in split_lists.items():
            for path, value in algo_state[field]:
                if path:
                    routed[part.route(path)].append([list(path), value])
                elif field in withheld:
                    withheld[field].append([list(path), value])
                else:
                    raise CheckpointError(
                        f"the hierarchy root holds a {field!r} row; this "
                        f"cannot come from a root-excluded run (was the "
                        f"session run with track_root=True?)"
                    )
        for gid in range(k):
            algo_by_gid.append(
                {
                    "timeunit": algo_state["timeunit"],
                    "split_operations": 0,
                    "merge_operations": 0,
                    "stage_seconds": dict(zero_stage),
                    "series": split_lists["series"][gid],
                    "reference": split_lists["reference"][gid],
                    "stats": split_lists["stats"][gid],
                    "stats_last_unit": split_lists["stats_last_unit"][gid],
                }
            )
    else:  # sta
        # Root rows too, each whole on group 0 (see the docstring).
        tables_by_gid: list[list[list[list[Any]]]] = [[] for _ in range(k)]
        for unit_table in algo_state["unit_weights"]:
            routed: list[list[list[Any]]] = [[] for _ in range(k)]
            for path, weight in unit_table:
                routed[part.route(path) or 0].append([list(path), weight])
            for gid in range(k):
                tables_by_gid[gid].append(routed[gid])
        for gid in range(k):
            algo_by_gid.append(
                {
                    "timeunit": algo_state["timeunit"],
                    "stage_seconds": dict(zero_stage),
                    "unit_weights": tables_by_gid[gid],
                }
            )

    sub_states = []
    for gid in range(k):
        sub_states.append(
            {
                "name": f"{state['name']}::shard{gid}",
                "algorithm": algorithm,
                "tree": {
                    "root_label": state["tree"]["root_label"],
                    "leaves": leaves_by_gid[gid],
                },
                "config": dict(state["config"]),
                "clock": dict(state["clock"]),
                "warmup_units": state["warmup_units"],
                # Workers return closed results over the pipe; retaining them
                # in the shard session would only grow worker memory.
                "max_results": 0,
                "units_processed": state["units_processed"],
                "warmup_announced": state["warmup_announced"],
                "pending_unit": state["pending_unit"],
                "pending": pending_by_gid[gid],
                "reading_seconds": 0.0,
                "reports": [],
                "algorithm_state": algo_by_gid[gid],
            }
        )
    return sub_states, withheld


def _require_agreement(sub_states: Sequence[Mapping[str, Any]], *keys: str) -> None:
    for key in keys:
        values = {json.dumps(sub[key], sort_keys=True) for sub in sub_states}
        if len(values) > 1:
            raise CheckpointError(
                f"torn sharded session state: shards disagree on {key!r}"
            )


def merge_session_states(
    sub_states: Sequence[Mapping[str, Any]],
    base: Mapping[str, Any],
    *,
    reports: Sequence[Mapping[str, Any]],
    withheld: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """Inverse of :func:`split_session_state`: one serial-format session state.

    ``base`` is the serial state the shards were split from (identity fields
    and pre-split counter baselines come from it), ``reports`` the
    coordinator-side merged anomaly store, and ``withheld`` the root
    bookkeeping returned by the split (updated by the coordinator while the
    shards ran) as path-keyed row lists.  Shard-local root rows — partial by
    construction — are dropped and replaced by the coordinator's exact
    replica rows; path-keyed collections are therefore order-insensitive
    (loaders key them by path).  The merged state loads into a plain
    :class:`~repro.engine.session.DetectionSession` whose subsequent
    detections equal an unsharded run — sharded and serial checkpoints are
    the same format and are mutually restorable.
    """
    if not sub_states:
        raise CheckpointError("cannot merge an empty list of shard states")
    _require_agreement(
        sub_states,
        "algorithm",
        "units_processed",
        "warmup_announced",
        "pending_unit",
        "warmup_units",
    )
    algorithm = str(sub_states[0]["algorithm"])
    first_algo = sub_states[0]["algorithm_state"]
    merged_stage = {
        key: float(base["algorithm_state"]["stage_seconds"].get(key, 0.0))
        + sum(float(sub["algorithm_state"]["stage_seconds"][key]) for sub in sub_states)
        for key in first_algo["stage_seconds"]
    }
    timeunits = {sub["algorithm_state"]["timeunit"] for sub in sub_states}
    if len(timeunits) > 1:
        raise CheckpointError("torn sharded session state: shards disagree on timeunit")

    if algorithm == "ada":
        algo_state: dict[str, Any] = {
            "timeunit": first_algo["timeunit"],
            "split_operations": int(base["algorithm_state"]["split_operations"])
            + sum(int(sub["algorithm_state"]["split_operations"]) for sub in sub_states),
            "merge_operations": int(base["algorithm_state"]["merge_operations"])
            + sum(int(sub["algorithm_state"]["merge_operations"]) for sub in sub_states),
            "stage_seconds": merged_stage,
        }
        for field in ("series", "reference", "stats", "stats_last_unit"):
            merged_list = []
            for sub in sub_states:
                for path, value in sub["algorithm_state"][field]:
                    if path:
                        merged_list.append([list(path), value])
                    elif field in ("series", "reference"):
                        raise CheckpointError(
                            f"shard state holds a root {field} entry; "
                            f"this cannot come from a root-excluded run"
                        )
                    # Shards keep local root statistics (their own raw
                    # weights feed them) but each copy is partial; the
                    # serial equivalent is the coordinator-maintained
                    # ``withheld`` replica, inserted below.
            if withheld and field in withheld:
                merged_list.extend([[list(p), v] for p, v in withheld[field]])
            algo_state[field] = merged_list
    else:  # sta
        lengths = {len(sub["algorithm_state"]["unit_weights"]) for sub in sub_states}
        if len(lengths) > 1:
            raise CheckpointError(
                "torn sharded session state: shards retain different numbers "
                "of timeunit weight tables"
            )
        unit_weights = []
        for tables in zip(*(sub["algorithm_state"]["unit_weights"] for sub in sub_states)):
            merged_table = []
            root = 0.0
            for table in tables:
                for path, weight in table:
                    if path:
                        merged_table.append([list(path), weight])
                    else:
                        root += float(weight)
            if root > 0:
                merged_table.append([[], root])
            unit_weights.append(merged_table)
        algo_state = {
            "timeunit": first_algo["timeunit"],
            "stage_seconds": merged_stage,
            "unit_weights": unit_weights,
        }

    pending: list[Any] = []
    for sub in sub_states:
        pending.extend(sub["pending"])
    return {
        "name": base["name"],
        "algorithm": algorithm,
        "tree": {
            "root_label": base["tree"]["root_label"],
            "leaves": [list(path) for path in base["tree"]["leaves"]],
        },
        "config": dict(base["config"]),
        "clock": dict(base["clock"]),
        "warmup_units": sub_states[0]["warmup_units"],
        "max_results": base.get("max_results"),
        "units_processed": sub_states[0]["units_processed"],
        "warmup_announced": sub_states[0]["warmup_announced"],
        "pending_unit": sub_states[0]["pending_unit"],
        "pending": pending,
        "reading_seconds": float(base["reading_seconds"])
        + sum(float(sub["reading_seconds"]) for sub in sub_states),
        "reports": [dict(report) for report in reports],
        "algorithm_state": algo_state,
    }


class FrontierReplica:
    """Coordinator replica of ADA's split-rule statistics for the root.

    The root is the one node no subtree shard owns.  Its raw weight is the
    sum of the shards' local root weights; this replica folds those sums
    into ADA's own split-statistics store, built over a root-only
    hierarchy.  The root is never heavy under the sharding preconditions
    (``track_root=False, allow_root_heavy=False``) and keeps no reference
    series (those start at depth 1), so these values cannot influence
    detections — they exist so merged checkpoints carry the root statistics
    a serial run would have.
    """

    def __init__(self, config: TiresiasConfig, withheld: Mapping[str, Any]):
        self.stats = SplitStatsStore(config, HierarchyTree([]))
        self.stats.load(withheld.get("stats", []), withheld.get("stats_last_unit", []))

    def observe(self, timeunit: int, weights: Sequence[float]) -> None:
        """Fold one closed timeunit into the store; ``weights`` holds each
        group's root raw weight, in group order."""
        self.stats.update_dense(timeunit, np.array([left_sum(weights)]))

    def export(self) -> dict[str, Any]:
        """Withheld-row form consumed by ``merge_session_states``."""
        stats_rows, last_rows = self.stats.emit()
        return {"stats": stats_rows, "stats_last_unit": last_rows}
