"""How one session's state divides across subtree shards.

A depth-``k`` *cut* splits a hierarchy into cut units — the depth-``k`` path
prefixes, plus any leaf shallower than ``k`` — and the sharded engine
(:mod:`repro.engine.sharded`) places groups of cut units on shard sessions.
This module is the layout those shards share, in one place:

* :func:`plan_subtree_groups` — which cut units go together;
* :func:`frontier_band_paths` — the root plus the ancestors above the cut,
  the nodes no shard owns;
* :class:`SubtreePartition` — which shard group a path belongs to;
* :func:`split_session_state` / :func:`merge_session_states` — one
  serial-format session state into per-shard states and back;
* :class:`FrontierReplica` — ADA's bookkeeping for the band, kept by the
  coordinator from the band weights its shards report.

Everything here works on the serial session state
(:meth:`~repro.engine.session.DetectionSession.state_dict`), so sharded and
serial checkpoints are one format.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.ada import RefStore, SplitStatsStore
from repro.core.config import TiresiasConfig
from repro.core.registry import ALGORITHMS
from repro.exceptions import CheckpointError, ConfigurationError, ShardingError
from repro.hierarchy.tree import HierarchyTree


def frontier_band_paths(
    leaves: Sequence[Sequence[str]], depth: int
) -> list[tuple]:
    """The shared ancestor band of a depth-``depth`` cut, in (depth, lex) order.

    These are the root plus every *proper* ancestor of a cut unit above the
    cut depth — the nodes whose state spans more than one shard and is
    therefore replayed coordinator-side.  Cut units themselves (depth-k
    prefixes and leaves shallower than the cut) are excluded: they live
    wholly inside one shard.  Workers and the coordinator derive the same
    list from the same leaf sets, so only weight tuples ever cross the
    transport.
    """
    band = {
        tuple(leaf[:d])
        for leaf in leaves
        for d in range(0, min(depth, len(leaf)))
    }
    return sorted(band, key=lambda p: (len(p), p))


class SubtreePartition:
    """Deterministic path -> shard-group routing for a depth-``depth`` cut.

    ``groups`` assigns cut-unit path prefixes to shard groups; depth-1
    string labels are accepted and normalized to 1-tuples.  A prefix may be
    shorter than ``depth`` when a *leaf* sits above the cut (it is then its
    own cut unit).  Band paths — proper ancestors of cut units — route to
    the group owning the lexicographically smallest cut prefix beneath them,
    so directly-classified interior records land on a shard whose
    sub-hierarchy contains that node.  Paths outside the monitored hierarchy
    (counted but never detected on) belong to group 0 by convention; the
    root routes to ``None``.
    """

    def __init__(self, groups: Sequence[Sequence[Any]], depth: int = 1):
        if depth < 1:
            raise CheckpointError(f"cut depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self.groups: list[list[tuple]] = []
        self.prefix_to_gid: dict[tuple, int] = {}
        for gid, prefixes in enumerate(groups):
            normalized: list[tuple] = []
            for prefix in prefixes:
                t = (prefix,) if isinstance(prefix, str) else tuple(prefix)
                if not 1 <= len(t) <= self.depth:
                    raise CheckpointError(
                        f"cut prefix {t!r} does not fit a depth-{depth} cut"
                    )
                if t in self.prefix_to_gid:
                    raise CheckpointError(
                        f"subtree prefix {t!r} assigned to two shard groups"
                    )
                self.prefix_to_gid[t] = gid
                normalized.append(t)
            self.groups.append(normalized)
        self.num_groups = len(self.groups)
        # Band ownership: first-wins over lexicographically sorted cut
        # prefixes, i.e. a band node belongs with its smallest cut child.
        self.band_owner: dict[tuple, int] = {}
        for prefix in sorted(self.prefix_to_gid):
            gid = self.prefix_to_gid[prefix]
            for d in range(1, len(prefix)):
                self.band_owner.setdefault(prefix[:d], gid)

    def route(self, path: Sequence[str], default: "int | None" = 0) -> "int | None":
        """The shard group that receives records/state rows for ``path``."""
        if not path:
            return None
        t = tuple(path)
        top = min(len(t), self.depth)
        for d in range(top, 0, -1):
            gid = self.prefix_to_gid.get(t[:d])
            if gid is not None:
                return gid
        for d in range(top, 0, -1):
            gid = self.band_owner.get(t[:d])
            if gid is not None:
                return gid
        return default


def plan_subtree_groups(
    leaves: Sequence[Sequence[str]], shards: int, depth: int = 1
) -> list[list]:
    """Deterministically assign depth-``depth`` cut units to balanced groups.

    Cut units are the distinct depth-``depth`` path prefixes of the leaf set
    (leaves shallower than ``depth`` are their own cut units).  Units are
    ordered by descending leaf count (ties lexicographic) and greedily
    placed on the lightest group (ties on the lowest group id) — a classic
    LPT schedule.  At most ``len(cut units)`` groups are produced; units
    inside a group are returned sorted.  For ``depth == 1`` the units are
    plain string labels (the historical format); deeper cuts use path
    tuples.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if depth < 1:
        raise ConfigurationError(f"subtree depth must be >= 1, got {depth}")
    counts: dict[Any, int] = {}
    for path in leaves:
        unit = path[0] if depth == 1 else tuple(path[:depth])
        counts[unit] = counts.get(unit, 0) + 1
    k = min(shards, len(counts))
    groups: list[list] = [[] for _ in range(k)]
    loads = [0] * k
    for unit in sorted(counts, key=lambda u: (-counts[u], u)):
        gid = min(range(k), key=lambda g: (loads[g], g))
        groups[gid].append(unit)
        loads[gid] += counts[unit]
    return [sorted(group) for group in groups]


def split_session_state(
    state: Mapping[str, Any],
    groups: Sequence[Sequence[Any]],
    depth: int = 1,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Partition one serial session state into disjoint subtree-shard states.

    ``groups`` assigns every depth-``depth`` cut prefix of the session's
    hierarchy to one shard group (depth-1 string labels accepted).  Each
    returned sub-state is a complete, loadable session state over the
    sub-hierarchy of its group's cut units: path-keyed collections (series,
    reference buffers, split statistics, pending counts, STA weight tables)
    are routed through a :class:`SubtreePartition`, scalar clock/warm-up
    bookkeeping is replicated, and timing/operation counters start from zero
    so that merging later can add them back onto the serial baseline.

    The second return value holds ADA's shared-ancestor-band bookkeeping no
    shard owns — split-rule statistics for the root and every band path, and
    (for ``depth > 1``) the band's reference series — as path-keyed row
    lists.  The sharded engine maintains these coordinator-side from the
    per-timeunit frontier weights its ADA shards report.  STA withholds
    nothing: each band row of a retained weight table goes whole to the
    shard its path routes to, so a shard's band rows are not what a
    from-scratch run over its sub-hierarchy would hold.  No STA code reads a
    band row (nothing above the cut is heavy), and the merge sums band rows
    across shards, which restores the serial table.  Raises
    :class:`CheckpointError` when the session cannot be subtree-sharded:
    unsupported algorithm, ``track_root`` enabled, ``min_heavy_depth``
    shallower than the cut, a root- or band-held time series, or an
    incomplete group cover.
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
    if depth > 1 and int(state["config"].get("min_heavy_depth", 1)) < depth:
        raise CheckpointError(
            f"depth-{depth} subtree sharding requires min_heavy_depth >= "
            f"{depth}: ancestors above the cut span several shards, so they "
            f"must be excluded from tracking for shard detections to equal "
            f"a serial run"
        )
    part = SubtreePartition(groups, depth)
    k = part.num_groups
    if k < 2:
        raise CheckpointError("subtree sharding needs at least two groups")

    leaves_by_gid: list[list[list[str]]] = [[] for _ in range(k)]
    for path in state["tree"]["leaves"]:
        gid = part.route(path, default=None)
        if gid is None:
            raise CheckpointError(
                f"shard groups do not cover subtree prefix "
                f"{tuple(path[:depth])!r}"
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
        band = set(frontier_band_paths(state["tree"]["leaves"], depth))
        withheld = {"stats": [], "stats_last_unit": [], "reference": []}
        split_lists: dict[str, list[list[list[Any]]]] = {
            field: [[] for _ in range(k)]
            for field in ("series", "reference", "stats", "stats_last_unit")
        }
        for field, routed in split_lists.items():
            for path, value in algo_state[field]:
                if tuple(path) not in band:
                    routed[part.route(path) or 0].append([list(path), value])
                elif field == "series":
                    raise CheckpointError(
                        "the hierarchy root or shared ancestor band "
                        "holds a time series; its adaptation couples "
                        "several subtrees and cannot be sharded (was "
                        "the session run with an earlier track_root "
                        "or min_heavy_depth config?)"
                    )
                elif field == "reference" and not path:
                    raise CheckpointError(
                        "the hierarchy root holds a reference series; "
                        "this cannot come from a root-excluded run"
                    )
                else:
                    withheld[field].append([list(path), value])
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
        # Band rows too, each whole on one shard (see the docstring).
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
    depth: int = 1,
) -> dict[str, Any]:
    """Inverse of :func:`split_session_state`: one serial-format session state.

    ``base`` is the serial state the shards were split from (identity fields
    and pre-split counter baselines come from it), ``reports`` the
    coordinator-side merged anomaly store, and ``withheld`` the
    shared-band bookkeeping returned by the split (updated by the
    coordinator while the shards ran) as path-keyed row lists.  Shard-local
    rows for band paths — partial by construction — are dropped and
    replaced by the coordinator's exact replica rows; path-keyed collections
    are therefore order-insensitive (loaders key them by path).  The merged
    state loads into a plain :class:`~repro.engine.session.DetectionSession`
    whose subsequent detections equal an unsharded run — sharded, depth-k
    sharded and serial checkpoints are the same format and are mutually
    restorable.
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
    band_order = frontier_band_paths(base["tree"]["leaves"], depth)
    band_set = set(band_order)

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
                    if not path and field in ("series", "reference"):
                        raise CheckpointError(
                            f"shard state holds a root {field} entry; "
                            f"this cannot come from a root-excluded run"
                        )
                    if tuple(path) in band_set:
                        # Shards keep local root/band bookkeeping (their own
                        # raw weights feed it) but each copy is partial; the
                        # serial equivalent is the coordinator-maintained
                        # ``withheld`` replica, inserted below.
                        continue
                    merged_list.append([list(path), value])
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
            band_totals: dict[tuple, float] = {}
            for table in tables:
                for path, weight in table:
                    t = tuple(path)
                    if t in band_set:
                        band_totals[t] = band_totals.get(t, 0.0) + float(weight)
                    else:
                        merged_table.append([list(path), weight])
            for band in band_order:
                total = band_totals.get(band, 0.0)
                if total > 0:
                    merged_table.append([list(band), total])
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
    """Coordinator replica of the frontier band's ADA bookkeeping.

    The band — root plus shared ancestors above the cut — is the set of
    nodes no subtree shard owns.  Each band node's raw weight is the sum of
    the shards' local weights for it; this replica folds those sums into
    ADA's own split-statistics and reference stores, built over the band's
    sub-hierarchy, whose node ids run in the serial (depth, lex) order.
    Band nodes are never heavy under the sharding preconditions (root
    exclusion + ``min_heavy_depth``), so these values cannot influence
    detections — they exist so merged checkpoints carry the same band
    statistics a serial run would have.
    """

    def __init__(
        self,
        config: TiresiasConfig,
        leaves_by_gid: Sequence[Sequence[tuple]],
        depth: int,
        withheld: Mapping[str, Any],
    ):
        band = frontier_band_paths(chain.from_iterable(leaves_by_gid), depth)
        inner = {path[:-1] for path in band if path}
        tree = HierarchyTree(sorted(path for path in band if path and path not in inner))
        #: Per group, the band node of each weight its shard reports — the
        #: band as the worker derives it from its own leaf set.
        self.positions = [
            np.array(
                [tree.path_to_id[path] for path in frontier_band_paths(leaves, depth)],
                dtype=np.intp,
            )
            for leaves in leaves_by_gid
        ]
        self.stats = SplitStatsStore(config, tree)
        self.stats.load(withheld.get("stats", []), withheld.get("stats_last_unit", []))
        ref_paths = tuple(
            path for path in tree.paths if 1 <= len(path) <= config.reference_levels
        )
        self.reference = RefStore(
            config.window_units,
            ref_paths,
            [tree.path_to_id[path] for path in ref_paths],
        )
        # Rows are emitted in load order: band order, as serially.
        self.reference.load(
            sorted(withheld.get("reference", []), key=lambda row: (len(row[0]), row[0]))
        )

    def observe(self, timeunit: int, weights: Sequence[Sequence[float]]) -> None:
        """Fold one closed timeunit into the stores; ``weights`` holds each
        group's band weights, in group order."""
        raw = np.zeros(self.stats.tree.num_nodes)
        for positions, values in zip(self.positions, weights):
            if len(values) != len(positions):
                raise ShardingError(
                    f"internal: a shard reported {len(values)} frontier "
                    f"weights for its {len(positions)}-node band"
                )
            raw[positions] += values
        self.stats.update_dense(timeunit, raw)
        self.reference.append_column(raw)

    def export(self) -> dict[str, Any]:
        """Withheld-row form consumed by ``merge_session_states``."""
        stats_rows, last_rows = self.stats.emit()
        return {
            "stats": stats_rows,
            "stats_last_unit": last_rows,
            "reference": self.reference.emit(),
        }
