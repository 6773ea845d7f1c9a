"""JSON checkpoint/restore for detection engines and sessions.

An always-on monitoring process must survive restarts without losing its
sliding-window state: the algorithm time-series (and, for STA, the retained
per-timeunit weight tables), the forecasting-model smoothing state, the clock
position inside the stream, and the anomaly report store.  This module
serializes all of it to a single JSON document so that a restored process
produces detections identical to an uninterrupted run.

Format (version 1)::

    {
      "format": "tiresias-checkpoint",
      "version": 1,
      "engine": {"unknown_stream": "raise"},   # engine checkpoints only
      "sessions": [ {<session state>}, ... ]
    }

A *session* state carries the hierarchy (root label + leaf paths — the tree is
rebuilt on restore), the full :class:`~repro.core.config.TiresiasConfig`, the
clock, warm-up bookkeeping, the pending (not yet closed) timeunit counts, the
report store, and the algorithm's ``state_dict()``.

Floats round-trip exactly through Python's JSON encoder (``repr``-based), so
restored forecasts are bit-identical.  Stream-key selectors are code, not
data: pass ``stream_key=`` again when loading an engine that used a custom
selector.

Columnar-bank compatibility: since the vectorized close path, ADA's
forecaster state lives columnar in a
:class:`~repro.forecasting.bank.ForecasterBank` and split-rule statistics in
dense per-node arrays — but checkpoints still emit and accept the canonical
*per-path* ``state_dict`` layout above (each bank row serializes through
``ForecasterBank.row_state_dict`` into the historical per-forecaster dict).
Pre-bank, bank-backed, serial and sharded checkpoints therefore all
cross-restore: a checkpoint written before the refactor loads into a
bank-backed session mid-stream and continues bit-identically, and vice
versa.  Path-keyed lists may appear in a different (but equivalent) order —
consumers must not rely on entry order, only on per-path content.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.detector import Anomaly
from repro.exceptions import (
    CheckpointError,
    CheckpointReadError,
    CheckpointWriteError,
    ConfigurationError,
)
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import DetectionEngine, StreamKey
    from repro.engine.session import DetectionSession

CHECKPOINT_FORMAT = "tiresias-checkpoint"
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Config / clock / tree serialization helpers
# ----------------------------------------------------------------------
def config_to_dict(config: TiresiasConfig) -> dict[str, Any]:
    """JSON-safe representation of a full detector configuration.

    ``min_heavy_depth`` is emitted only when it differs from the default so
    checkpoints written by configurations that never touch it keep their
    exact historical bytes.  Float fields are written as floats whatever the
    config was built with (``theta=12`` writes ``12.0``), the form
    :func:`config_from_dict` reads back, so a save/restore round trip and
    every engine write the same bytes.
    """
    forecast = config.forecast
    document = {
        "theta": float(config.theta),
        "ratio_threshold": float(config.ratio_threshold),
        "difference_threshold": float(config.difference_threshold),
        "delta_seconds": float(config.delta_seconds),
        "window_units": config.window_units,
        "split_rule": config.split_rule,
        "split_ewma_alpha": float(config.split_ewma_alpha),
        "reference_levels": config.reference_levels,
        "track_root": config.track_root,
        "allow_root_heavy": config.allow_root_heavy,
        "out_of_order_policy": config.out_of_order_policy,
        "forecast": {
            "alpha": float(forecast.alpha),
            "beta": float(forecast.beta),
            "gamma": float(forecast.gamma),
            "season_lengths": list(forecast.season_lengths),
            "season_weights": (
                None
                if forecast.season_weights is None
                else [float(w) for w in forecast.season_weights]
            ),
            "fallback_alpha": float(forecast.fallback_alpha),
            "model": forecast.model,
        },
    }
    if config.min_heavy_depth != 1:
        document["min_heavy_depth"] = config.min_heavy_depth
    return document


def config_from_dict(data: Mapping[str, Any]) -> TiresiasConfig:
    """Inverse of :func:`config_to_dict`."""
    fc = data["forecast"]
    forecast = ForecastConfig(
        alpha=float(fc["alpha"]),
        beta=float(fc["beta"]),
        gamma=float(fc["gamma"]),
        season_lengths=tuple(int(p) for p in fc["season_lengths"]),
        season_weights=(
            None
            if fc["season_weights"] is None
            else tuple(float(w) for w in fc["season_weights"])
        ),
        fallback_alpha=float(fc["fallback_alpha"]),
        model=str(fc.get("model", "auto")),
    )
    return TiresiasConfig(
        theta=float(data["theta"]),
        ratio_threshold=float(data["ratio_threshold"]),
        difference_threshold=float(data["difference_threshold"]),
        delta_seconds=float(data["delta_seconds"]),
        window_units=int(data["window_units"]),
        split_rule=str(data["split_rule"]),
        split_ewma_alpha=float(data["split_ewma_alpha"]),
        reference_levels=int(data["reference_levels"]),
        forecast=forecast,
        track_root=bool(data["track_root"]),
        allow_root_heavy=bool(data.get("allow_root_heavy", True)),
        out_of_order_policy=str(data.get("out_of_order_policy", "raise")),
        min_heavy_depth=int(data.get("min_heavy_depth", 1)),
    )


def clock_to_dict(clock: SimulationClock) -> dict[str, Any]:
    """JSON-safe clock, float fields as floats (see :func:`config_to_dict`)."""
    return {
        "delta": float(clock.delta),
        "epoch": float(clock.epoch),
        "epoch_weekday": clock.epoch_weekday,
        "epoch_hour": float(clock.epoch_hour),
    }


def clock_from_dict(data: Mapping[str, Any]) -> SimulationClock:
    return SimulationClock(
        delta=float(data["delta"]),
        epoch=float(data["epoch"]),
        epoch_weekday=int(data["epoch_weekday"]),
        epoch_hour=float(data["epoch_hour"]),
    )


def tree_to_dict(tree: HierarchyTree) -> dict[str, Any]:
    return {
        "root_label": tree.root.label,
        "leaves": [list(path) for path in tree.leaf_paths()],
    }


def tree_from_dict(data: Mapping[str, Any]) -> HierarchyTree:
    return HierarchyTree.from_leaf_paths(
        [tuple(path) for path in data["leaves"]],
        root_label=str(data["root_label"]),
    )


# ----------------------------------------------------------------------
# Session state
# ----------------------------------------------------------------------
def session_state_dict(
    session: "DetectionSession", include_shadow: bool = True
) -> dict[str, Any]:
    """JSON-safe snapshot of one detection session (see module docstring).

    A running shadow experiment
    (:meth:`~repro.engine.session.DetectionSession.start_shadow`) is included
    under an optional ``"shadow"`` key — its full session state plus the
    divergence tracker — so a crash-resumed process continues the experiment
    bit-identically.  Pre-shadow readers ignore the key.  ``include_shadow=
    False`` snapshots the primary alone (the substrate of reconfiguration
    and shadow cloning, which operate on core state).
    """
    if not hasattr(session.algorithm, "state_dict"):
        raise CheckpointError(
            f"algorithm {session.algorithm_name!r} does not implement "
            f"state_dict(); custom algorithms must provide state_dict()/"
            f"load_state_dict() to support checkpointing"
        )
    state = {
        "name": session.name,
        "algorithm": session.algorithm_name,
        "tree": tree_to_dict(session.tree),
        "config": config_to_dict(session.config),
        "clock": clock_to_dict(session.clock),
        "warmup_units": session.warmup_units,
        "max_results": session.max_results,
        "units_processed": session.units_processed,
        "warmup_announced": session.warmup_announced,
        "pending_unit": session._pending_unit,
        "pending": [
            [list(path), count] for path, count in session._pending.items()
        ],
        "reading_seconds": session.reading_seconds,
        "reports": [anomaly.to_dict() for anomaly in session.reports],
        "algorithm_state": session.algorithm.state_dict(),
    }
    if include_shadow and session._shadow is not None:
        state["shadow"] = {
            "session": session_state_dict(session._shadow),
            "tracker": session._shadow_tracker.state_dict(),
        }
    return state


def session_from_state_dict(state: Mapping[str, Any]) -> "DetectionSession":
    """Rebuild a session from :func:`session_state_dict` output."""
    from repro.engine.session import DetectionSession

    try:
        tree = tree_from_dict(state["tree"])
        config = config_from_dict(state["config"])
        clock = clock_from_dict(state["clock"])
        max_results = state.get("max_results")
        session = DetectionSession(
            tree,
            config,
            algorithm=str(state["algorithm"]),
            clock=clock,
            warmup_units=int(state["warmup_units"]),
            name=str(state["name"]),
            max_results=None if max_results is None else int(max_results),
        )
        session._units_processed = int(state["units_processed"])
        session.warmup_announced = bool(state["warmup_announced"])
        pending_unit = state["pending_unit"]
        session._pending_unit = None if pending_unit is None else int(pending_unit)
        for path, count in state["pending"]:
            session._pending[tuple(path)] = count
        session.reading_seconds = float(state["reading_seconds"])
        session.reports.add_many(
            Anomaly.from_dict(data) for data in state["reports"]
        )
        if not hasattr(session.algorithm, "load_state_dict"):
            raise CheckpointError(
                f"algorithm {session.algorithm_name!r} does not implement "
                f"load_state_dict(); cannot restore its checkpointed state"
            )
        session.algorithm.load_state_dict(state["algorithm_state"])
        shadow_state = state.get("shadow")
        if shadow_state is not None:
            from repro.engine.shadow import ShadowTracker

            session._shadow = session_from_state_dict(shadow_state["session"])
            session._shadow_tracker = ShadowTracker.from_state_dict(
                shadow_state["tracker"]
            )
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        # A stored config that fails validation, or a series whose window
        # disagrees with it, is a bad checkpoint too.
        raise CheckpointError(f"malformed session state: {exc!r}") from exc
    return session


# ----------------------------------------------------------------------
# Engine state
# ----------------------------------------------------------------------
def engine_state_dict(engine: "DetectionEngine") -> dict[str, Any]:
    """JSON-safe snapshot of an engine and all its sessions."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "engine": {"unknown_stream": engine.unknown_stream},
        "sessions": [
            session_state_dict(session) for session in engine.sessions.values()
        ],
    }


def engine_from_state_dict(
    state: Mapping[str, Any], stream_key: "StreamKey | None" = None
) -> "DetectionEngine":
    """Rebuild an engine from :func:`engine_state_dict` output."""
    from repro.engine.engine import DetectionEngine

    _check_header(state)
    engine = DetectionEngine(
        stream_key=stream_key,
        unknown_stream=str(state.get("engine", {}).get("unknown_stream", "raise")),
    )
    for session_state in state["sessions"]:
        engine.attach_session(session_from_state_dict(session_state))
    return engine


def _check_header(state: Mapping[str, Any]) -> None:
    if state.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a {CHECKPOINT_FORMAT} document (format={state.get('format')!r})"
        )
    if state.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )


# ----------------------------------------------------------------------
# Subtree-shard state surgery (used by repro.engine.sharded)
# ----------------------------------------------------------------------
#: Algorithms whose checkpointed state partitions cleanly by depth-k subtree.
SHARDABLE_ALGORITHMS: frozenset[str] = frozenset({"ada", "sta"})


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
    if algorithm not in SHARDABLE_ALGORITHMS:
        raise CheckpointError(
            f"algorithm {algorithm!r} does not support subtree sharding "
            f"(supported: {sorted(SHARDABLE_ALGORITHMS)})"
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


# ----------------------------------------------------------------------
# File round trips
# ----------------------------------------------------------------------
def save_checkpoint(engine: "DetectionEngine", path: "str | Path") -> None:
    """Write an engine checkpoint to ``path`` (JSON, UTF-8)."""
    _write_json(engine_state_dict(engine), path)


def load_checkpoint(
    path: "str | Path", stream_key: "StreamKey | None" = None
) -> "DetectionEngine":
    """Restore an engine from a file written by :func:`save_checkpoint`."""
    return engine_from_state_dict(_read_json(path), stream_key=stream_key)


def save_session_checkpoint(session, path: "str | Path") -> None:
    """Write a single-session checkpoint (``DetectionSession.save_checkpoint``).

    ``session`` is duck-typed on ``state_dict()`` so session-shaped objects
    (e.g. the service's sharded-tenant adapter, whose snapshot is the merged
    serial state) checkpoint through the same code path and format.
    """
    getter = getattr(session, "state_dict", None)
    state = getter() if callable(getter) else session_state_dict(session)
    _write_json(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "sessions": [state],
        },
        path,
    )


def load_session_checkpoint_state(path: "str | Path") -> dict[str, Any]:
    """The raw session state of a :func:`save_session_checkpoint` file."""
    state = _read_json(path)
    _check_header(state)
    sessions = state.get("sessions", [])
    if len(sessions) != 1:
        raise CheckpointError(
            f"expected exactly one session in the checkpoint, found {len(sessions)}"
        )
    return sessions[0]


def load_session_checkpoint(path: "str | Path") -> "DetectionSession":
    """Restore the single session of a :func:`save_session_checkpoint` file."""
    return session_from_state_dict(load_session_checkpoint_state(path))


def _write_json(document: Mapping[str, Any], path: "str | Path") -> None:
    """Write ``document`` atomically and durably: temp file, fsync, rename.

    A monitoring process killed mid-checkpoint must never leave a truncated
    JSON document behind — the sharded engine checkpoints several worker
    states into one file, and a partial write would lose all of them.
    ``os.replace`` is atomic on POSIX and Windows for same-directory targets,
    and the temp file is fsync'd *before* the rename so a power loss right
    after the replace cannot surface a named-but-empty checkpoint.  Write
    failures (disk full, permissions, dead volume) raise
    :class:`~repro.exceptions.CheckpointWriteError` after removing the temp
    file; the previous checkpoint at ``path``, if any, survives untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    payload = json.dumps(document)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            fault = _checkpoint_write_fault(path)
            if fault is not None:
                # Injected ENOSPC (see repro.testing.faults): leave a torn
                # half-write in the temp file, then fail exactly where a
                # full disk would — the cleanup below must still hold.
                handle.write(payload[: max(1, len(payload) // 2)])
                handle.flush()
                raise OSError(
                    _errno.ENOSPC, "no space left on device (injected fault)"
                )
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointWriteError(
            str(path), errno=exc.errno, detail=str(exc)
        ) from exc
    # Best-effort directory fsync so the rename itself is durable; not all
    # filesystems allow opening a directory, hence the silent fallback.
    try:
        dir_fd = os.open(str(path.parent) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(dir_fd)


def _checkpoint_write_fault(path: Path):
    """Deterministic-fault hook: the spec to inject for this write, if any.

    Imported lazily so checkpoint IO has no testing-module dependency until
    a fault plan is actually in play; with no plan active this is one
    dictionary lookup.
    """
    from repro.testing.faults import checkpoint_write_fault

    return checkpoint_write_fault(path)


def _read_json(path: "str | Path") -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        # Torn or corrupt file (crash mid-write by a foreign writer, bit
        # rot): typed so retention-aware callers can quarantine and fall
        # back to an older retained checkpoint.
        raise CheckpointReadError(
            str(path), f"not valid JSON: {exc}"
        ) from exc


def retained_checkpoint_path(path: "str | Path", age: int) -> Path:
    """Path of the ``age``-th retained predecessor of ``path``.

    ``age == 0`` is the primary file itself; ``age >= 1`` appends ``.{age}``
    (``tenant.ckpt.json.1`` is the previous checkpoint, ``.2`` the one
    before, ...).
    """
    path = Path(path)
    if age < 0:
        raise ValueError(f"retention age must be >= 0, got {age}")
    return path if age == 0 else path.with_name(f"{path.name}.{age}")


def rotate_retained_checkpoints(path: "str | Path", keep: int) -> None:
    """Shift the retained-checkpoint chain of ``path`` one step down.

    ``.{keep-1}`` → ``.{keep}`` … ``.1`` → ``.2``, then the primary is
    *hard-linked* to ``.1``: the subsequent :func:`_write_json` replaces the
    primary's directory entry with a new inode, so ``.1`` keeps the old
    bytes without ever copying them, and at every instant of the sequence
    either the primary or ``.1`` names a complete, valid checkpoint (crash
    windows included).  Filesystems without hard links fall back to a copy.
    Entries beyond ``keep`` are deleted.
    """
    path = Path(path)
    keep = int(keep)
    if keep < 1:
        raise ValueError(f"retention keep must be >= 1, got {keep}")
    if not path.exists():
        return
    # Ages kept after the upcoming write: 0 (new primary) .. keep-1.  The
    # current ``.{keep-1}`` would shift past the window — drop it (and any
    # stale deeper entries left by a larger previous retention setting).
    for age in range(keep - 1, keep + 2):
        if age < 1:
            continue
        try:
            retained_checkpoint_path(path, age).unlink()
        except OSError:
            pass
    for age in range(keep - 2, 0, -1):
        source = retained_checkpoint_path(path, age)
        if source.exists():
            try:
                os.replace(source, retained_checkpoint_path(path, age + 1))
            except OSError:  # pragma: no cover - racing cleanup
                pass
    if keep < 2:
        return
    slot_one = retained_checkpoint_path(path, 1)
    try:
        os.link(path, slot_one)
    except OSError:  # pragma: no cover - no-hardlink filesystem
        try:
            shutil.copy2(path, slot_one)
        except OSError:
            pass


def save_session_checkpoint_rolling(
    session, path: "str | Path", keep: int = 3
) -> None:
    """:func:`save_session_checkpoint` with rolling retention.

    Keeps the last ``keep`` checkpoints: the fresh primary plus up to
    ``keep - 1`` predecessors at ``.1`` … ``.{keep-1}``.  The rotation runs
    *before* the atomic write, so a crash — or a full disk — at any point
    leaves at least one complete, loadable checkpoint on disk (the
    pre-write primary survives as both the primary and ``.1`` hard link
    until the final ``os.replace`` commits the new bytes).
    """
    rotate_retained_checkpoints(path, keep)
    save_session_checkpoint(session, path)
