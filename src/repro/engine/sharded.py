"""Sharded detection engine: sessions and hierarchy subtrees across processes.

The detection pipeline is embarrassingly parallel along two axes: distinct
sessions never share state, and — because succinct-heavy-hitter weights,
series adaptation and detection are all computed bottom-up — disjoint
subtrees of one hierarchy interact only through their shared ancestors.
:class:`ShardedDetectionEngine` exploits both: it partitions its sessions
(and, on request, each session's depth-``k`` subtrees) across N workers
reached through a pluggable transport, and merges their outputs
deterministically, producing detections, timeunit results, reports and
checkpoints **bit-for-bit identical** to the serial
:class:`~repro.engine.engine.DetectionEngine` regardless of worker count,
transport, or scheduling.

How equivalence is preserved
----------------------------
Every session is one coordinator unit of one or more *shard groups*, each
group a shard session on one worker.  Batches are partitioned by stream key
coordinator-side with the existing one-pass partitioner, so a unit sees, in
order, exactly the sub-stream the serial router would have fed the session.
The coordinator holds each session's reports, processed-unit count and open
timeunit; workers keep neither results nor reports.

*Unsplit sessions* (``subtree_shards=1``, or a hierarchy with a single cut
unit) are one-group units: the group is the whole session, shipped as is
with no frontier band, so the mechanisms below reduce to one segment per
batch and a merge that returns the group's result unchanged.  Same code,
same inputs, same floats — and no constraint on the root.

*Split sessions.*  One session may be split into ``subtree_shards`` shard
sessions, each owning a disjoint group of depth-``subtree_depth`` cut units
(depth-``k`` prefixes, plus any leaves shallower than ``k``, which are their
own cut units).  Three mechanisms make the union of their outputs equal the
serial session:

1. **Watermark segmentation.**  Serially, all subtrees share one pending
   timeunit, advanced by every record of the session.  The coordinator
   therefore computes, per record, the running maximum timeunit of the whole
   session stream (one vectorized prefix-max per batch).  A shard needs that
   watermark in two places only.  *Before a late row* — one whose timeunit
   is behind a watermark the shard has not reached — the shard's rows are
   cut and the segment opens with ``advance_to(watermark)``, so the
   ``out_of_order_policy`` is applied against exactly the serial pending
   unit.  *After its last row*, a trailing ``advance_to`` closes the
   (possibly empty) timeunits the rest of the session moved past.  A row at
   or past its watermark closes, by itself, exactly the timeunits the
   advance would have, so an in-order batch reaches each shard as **one**
   ``ingest_record_batch`` call and the shard closes the batch's timeunits
   together, from one count matrix and one hierarchy sweep, as a serial
   session does.
2. **Deterministic merge.**  Shard results are buffered per timeunit and
   merged once every group has closed that unit: heavy hitter sets union,
   per-path actuals/forecasts are taken from the owning shard in sorted-path
   order (the serial iteration order), anomalies sort by node path.
3. **Frontier-band exclusion and replay.**  Only the root and the shared
   ancestors above the cut (the *frontier band*) couple subtrees: their
   series and split/merge adaptation would span several shards.  Subtree
   sharding therefore requires ``track_root=False`` with
   ``allow_root_heavy=False``, and — for cuts deeper than 1 —
   ``min_heavy_depth >= subtree_depth``, config choices the serial engine
   honours identically, so equivalence holds on *any* workload.  Band raw
   weights are still additive across shards, and ADA keeps split-rule
   statistics and top-``h`` reference series for band nodes too: each ADA
   shard reports its band weight tuple per closed timeunit, and the
   coordinator sums them into one band vector and replays it through
   ADA's own stores, built over the band's sub-hierarchy
   (:class:`~repro.engine.subtree.FrontierReplica`), so merged checkpoints
   stay faithful.  STA keeps no band bookkeeping beyond its weight tables,
   which the merge sums, so its shards capture nothing (capture depth 0).

Checkpoints are format-identical to serial ones: :meth:`state_dict` merges
shard states back into canonical serial session states (see
:func:`repro.engine.subtree.merge_session_states`), so a sharded engine can
resume an unsharded checkpoint and vice versa, at any worker count and cut
depth.

The coordinator loop
--------------------
A *round* is one command per involved worker (:class:`_Round`), and one
routine, :meth:`ShardedDetectionEngine._exchange`, does all shipping,
collecting, op-logging and recovery: per worker in id order it reads the
worker's reply to one round and at once sends it its command of the next.
Every channel therefore has **at most one command in flight** — what the
shared-memory transport's single reusable segment, the supervisor's per-op
deadlines and the "re-ship the in-flight round" recovery rest on — while
different workers may be on different rounds.

:meth:`~ShardedDetectionEngine.process_batches` (and ``process_stream``) is
software-pipelined on top of it: while the workers compute round *k* the
coordinator pulls the next batch and prepares round *k+1* (partition by
key, watermark segmentation, gathers); it then exchanges *k* for *k+1*
worker by worker, with no barrier, so a worker that has answered is
computing again while its peer is still on round *k*; and it merges round
*k* — observers fire here — while the workers compute *k+1*.  The price is
latency on a live iterator: a batch is pulled one round before the previous
round's results are merged, so alerts trail ingestion by up to one round.
:meth:`~ShardedDetectionEngine.ingest_record_batch` runs the same phases
back to back and stays synchronous, as do ``flush`` / ``state`` / ``query``
/ ``add`` / ``remove`` round trips (an exchange with one side empty).  With
a streamed round in flight, an engine call that needs a round trip of its
own — only an observer can make one — raises :class:`ShardingError`
instead of interleaving replies.

Transports (see :mod:`repro.engine.transport`) all move the same wire
frames, batch columns as raw buffers: ``"pipe"`` (default) over
``multiprocessing`` pipes, ``"shm"`` through shared-memory segments,
``"tcp"`` length-prefixed over sockets (workers may be remote).
Verb semantics live in :mod:`repro.engine.shard_worker`, shared by all
three, so results and checkpoint bytes never depend on the transport.

Churn-driven rebalancing: :meth:`rebalance_session` migrates one cut unit
from the busiest shard group (by split+merge adaptation churn) to the
lightest at a timeunit barrier, through the same split/merge checkpoint
machinery — the session's state is bit-identical before and after.

Under ``out_of_order_policy="raise"`` parallelism adds a caveat: the
offending record still raises
:class:`~repro.exceptions.OutOfOrderRecordError`, but records dispatched to
other shards in the same round — and, under the streaming loop, the part of
the next round that went out before the error reply was read — may already
have been ingested.  An unsplit session counts and reports every timeunit
its worker closed in those rounds (up to the error, in the failing one) and
reads its open timeunit back from the worker, so it continues exactly like
a serial session fed what its worker ingested; a split session's groups may
have diverged and it does not.
"""

from __future__ import annotations

import multiprocessing
import time
from itertools import chain
from typing import Any, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from repro.core.config import TiresiasConfig
from repro.core.detector import Anomaly
from repro.core.fused import CloseHistogram
from repro.core.reporting import AnomalyReportStore
from repro.core.results import TimeunitResult
from repro.engine.engine import (
    UNKNOWN_STREAM_POLICIES,
    StreamKey,
    attribute_stream_key,
    route_batch,
)
from repro.engine.hooks import EngineObserver, notify_close
from repro.engine.session import DetectionSession
from repro.engine.shadow import ShadowStateError
from repro.engine.shard_worker import revive_exception
from repro.engine.subtree import (
    FrontierReplica,
    SubtreePartition,
    merge_session_states,
    plan_subtree_groups,
    split_session_state,
)
from repro.engine.supervisor import ShardSupervisor
from repro.engine.transport import ShardTransport, make_transport
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ShardingError,
    WorkerFailureError,
)
from repro.hierarchy.tree import HierarchyTree
from repro.io.checkpoint import (
    check_header,
    checkpoint_document,
    clock_from_dict,
    config_from_dict,
    read_json,
    write_json,
)
from repro.streaming.batch import STREAM_BATCH_SIZE, RecordBatch, iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _segment_cuts(w_before, units_col, rows, anchor: int) -> tuple[list[int], int]:
    """Where one shard group's rows split into watermark segments.

    ``rows`` are the group's row indices (ascending) into a session
    sub-batch, ``w_before[i]`` the session watermark before row ``i`` and
    ``units_col[i]`` row ``i``'s timeunit.  The group's *progress* before a
    row is the shard session's open timeunit: ``anchor``, its own earlier
    rows, and the watermarks of earlier cuts.  Only a row that is **late
    against a watermark beyond the progress** (``unit < watermark``) starts
    a new segment — the worker advances to that watermark first, so the
    out-of-order policy meets the session's open timeunit, not the shard's.
    A row at or past its watermark needs no cut: ingesting it closes, by
    itself, exactly the timeunits the advance would have closed.
    Watermarks never decrease, so the cuts are the first row of each
    distinct watermark among the late rows whose watermark exceeds the
    cumulative maximum of the group's own earlier timeunits.

    Returns ``(cuts, progress)``: positions into ``rows`` and the progress
    after the last row.
    """
    if len(rows) == 0:
        return [], anchor
    w = w_before[rows]
    u = units_col[rows]
    own = np.maximum.accumulate(np.concatenate(([anchor], u[:-1])))
    late = np.flatnonzero((u < w) & (w > own))
    w_late = w[late]
    first = np.ones(len(late), dtype=bool)
    first[1:] = w_late[1:] != w_late[:-1]
    cuts = late[first].tolist()
    progress = max(anchor, int(u.max()), int(w[cuts[-1]]) if cuts else anchor)
    return cuts, progress


def _worker_columns(part: RecordBatch) -> RecordBatch:
    """``part`` as a worker needs it: timestamps and dictionary codes.

    No worker verb reads a batch's attribute column (routing by stream key
    happened coordinator-side), so it is left behind before any gather —
    neither the wire nor the supervisor's op-log carries it.
    """
    if part.attributes is None:
        return part
    return RecordBatch.from_dictionary_codes(
        part.timestamps, part.category_codes, part.code_dictionary, None
    )


# ----------------------------------------------------------------------
# Coordinator-side state
# ----------------------------------------------------------------------
class ShardedSessionHandle:
    """Stand-in passed to engine-level observers instead of a live session.

    Worker sessions never cross the process boundary, so observer hooks fire
    on the coordinator with this handle as the ``session`` argument.  It
    carries the attributes observers typically read (:attr:`name`,
    :attr:`config`, :attr:`warmup_units`, :attr:`units_processed`) and the
    coordinator's warm-up bookkeeping (:attr:`warmup_announced`).
    """

    def __init__(self, name: str, config: TiresiasConfig, warmup_units: int):
        self.name = name
        self.config = config
        self.warmup_units = warmup_units
        self.units_processed = 0
        self.warmup_announced = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardedSessionHandle(name={self.name!r})"


class _SessionUnit:
    """Coordinator record and merge state of one sharded session.

    A split session has one shard group per entry of ``groups`` (a
    :class:`~repro.engine.subtree.SubtreePartition` of depth-``depth`` cut
    units).  An unsplit session passes ``groups=None`` and ``depth=0``: its
    one group is the whole session, with no frontier band to replay, and
    ``base_state`` keeps no counter baselines because its worker's state
    carries them.
    """

    def __init__(
        self,
        name: str,
        base_state: dict[str, Any],
        groups: "Sequence[Sequence[Any]] | None",
        sub_states: Sequence[dict[str, Any]],
        workers: Sequence[int],
        withheld: Mapping[str, Any],
        depth: int = 1,
    ):
        self.name = name
        self.depth = int(depth)
        self.partition = (
            None if groups is None else SubtreePartition(groups, self.depth)
        )
        # Only the identity fields and pre-split counter baselines that
        # merge_session_states reads are retained; pinning the full pre-split
        # state (every node series) would double the session's footprint.
        base_algo = base_state["algorithm_state"]
        self.base_state: dict[str, Any] = {
            "name": base_state["name"],
            "algorithm": base_state["algorithm"],
            "tree": base_state["tree"],
            "config": base_state["config"],
            "clock": base_state["clock"],
            "max_results": base_state.get("max_results"),
            "reading_seconds": base_state["reading_seconds"],
            "algorithm_state": {
                key: base_algo[key]
                for key in ("stage_seconds", "split_operations", "merge_operations")
                if key in base_algo and self.partition is not None
            },
        }
        self.workers = list(workers)
        self.keys = [("s", name, gid) for gid in range(len(self.workers))]
        self.sub_states: "list[dict[str, Any]] | None" = list(sub_states)
        self.clock: SimulationClock = clock_from_dict(base_state["clock"])
        self.handle = ShardedSessionHandle(
            name, _config_of(base_state), int(base_state["warmup_units"])
        )
        self.handle.units_processed = int(base_state["units_processed"])
        self.handle.warmup_announced = bool(base_state["warmup_announced"])
        self.reports = AnomalyReportStore()
        self.reports.add_many(
            Anomaly.from_dict(data) for data in base_state["reports"]
        )
        #: Serial pending timeunit of the session (None = not anchored yet).
        self.carried: "int | None" = (
            None
            if base_state["pending_unit"] is None
            else int(base_state["pending_unit"])
        )
        self.frontier: "FrontierReplica | None" = None
        if str(base_state["algorithm"]) == "ada" and self.partition is not None:
            leaves_by_gid: list[list[tuple]] = [[] for _ in self.workers]
            for path in base_state["tree"]["leaves"]:
                leaves_by_gid[self.route(path)].append(tuple(path))
            self.frontier = FrontierReplica(
                self.handle.config, leaves_by_gid, self.depth, withheld
            )
        #: Cut depth a worker captures band weights at: 0 for a unit without
        #: a band replica (an unsplit or an STA session).
        self.capture_depth = self.depth if self.frontier is not None else 0
        #: Times this unit's layout was migrated by churn-driven rebalancing.
        self.rebalances = 0
        #: Times one of this unit's workers was respawned and rebuilt.
        self.recoveries = 0
        #: timeunit -> {gid: (result, local band raw-weight tuple or None)}
        self.buffer: dict[int, dict[int, tuple[TimeunitResult, Any]]] = {}
        #: (dictionary, group-per-code table) of the last dictionary routed.
        self._route_table: "tuple | None" = None

    @property
    def num_groups(self) -> int:
        return len(self.workers)

    def route(self, path: Sequence[str]) -> int:
        """Shard group of ``path``; root and out-of-tree paths go to group 0."""
        if self.partition is None:
            return 0
        return self.partition.route(path) or 0

    def route_table(self, dictionary: Sequence[tuple]):
        """Shard group per dictionary code, computed once per dictionary
        object: a columnar file shares one dictionary across all of its
        batches."""
        cached = self._route_table
        if cached is not None and cached[0] is dictionary:
            return cached[1]
        table = np.asarray(
            [self.route(category) for category in dictionary], dtype=np.intp
        )
        self._route_table = (dictionary, table)
        return table


class _Round:
    """One command per involved worker: what is shipped, collected, op-logged
    and — when a worker dies with it in flight — re-shipped as a unit."""

    __slots__ = ("verb", "ops", "awaiting", "replies", "failure", "index", "emit_bound")

    def __init__(
        self,
        verb: str,
        ops: Mapping[int, Any],
        index: "int | None" = None,
        emit_bound: "Mapping[str, int] | None" = None,
    ):
        self.verb = verb
        #: worker id -> command payload.
        self.ops = ops
        #: Workers the command went to whose reply has not been read yet.
        self.awaiting: set[int] = set()
        #: worker id -> payload of its ``"ok"`` reply (of an ``"error"``
        #: reply: what the worker closed before the error).
        self.replies: dict[int, Any] = {}
        #: Error of the first ``"error"`` reply (lowest worker id).
        self.failure: "tuple | None" = None
        #: Position in a ``process_batches`` stream (None outside one).
        self.index = index
        #: Subtree session -> watermark below which this round completes
        #: its timeunits on every group, in routing order.
        self.emit_bound = emit_bound or {}


def _config_of(state: Mapping[str, Any]) -> TiresiasConfig:
    return config_from_dict(state["config"])


def _merge_numeric_dicts(dicts: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge per-shard introspection dicts: numerics sum (recursing one
    level into nested dicts), everything else keeps the first value seen."""
    merged: dict[str, Any] = {}
    for source in dicts:
        for field, value in (source or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                current = merged.get(field, 0)
                merged[field] = (
                    current + value
                    if isinstance(current, (int, float))
                    and not isinstance(current, bool)
                    else value
                )
            elif isinstance(value, Mapping):
                inner = merged.setdefault(field, {})
                if isinstance(inner, dict):
                    for key, item in value.items():
                        if isinstance(item, (int, float)) and not isinstance(
                            item, bool
                        ):
                            inner[key] = inner.get(key, 0) + item
                        elif key not in inner:
                            inner[key] = item
            elif field not in merged:
                merged[field] = value
    return merged


def _merge_close_profiles(profiles: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """One session's close profile from its shards': unit counters sum and
    the ``close_time`` histograms merge bucket by bucket."""
    profiles = list(profiles)
    merged = _merge_numeric_dicts(profiles)
    histograms = [p["close_time"] for p in profiles if p and "close_time" in p]
    if histograms:
        merged["close_time"] = CloseHistogram.merge_dicts(histograms)
    return merged


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ShardedDetectionEngine:
    """Multi-process detection engine with serial-equivalent semantics.

    Parameters
    ----------
    num_workers:
        Number of worker processes.  Defaults to ``os.cpu_count()``.  Shard
        groups (an unsplit session is one group) are assigned round-robin in
        registration order, so the layout is deterministic.
    stream_key / unknown_stream:
        Routing exactly as in :class:`~repro.engine.engine.DetectionEngine`;
        both are applied coordinator-side, so custom selectors never need to
        be picklable.
    transport / transport_options:
        ``"pipe"`` (default), ``"shm"``, ``"tcp"`` — or a ready-made
        :class:`~repro.engine.transport.base.ShardTransport` instance (e.g.
        a :class:`~repro.engine.transport.tcp.TcpTransport` in external mode
        for remote workers).  Results are transport-independent; see
        :mod:`repro.engine.transport`.
    op_timeout / replay_buffer_ops / max_recovery_attempts:
        Every ship/collect runs through a
        :class:`~repro.engine.supervisor.ShardSupervisor` with a
        per-operation deadline of ``op_timeout`` seconds, and the
        coordinator keeps what exact recovery needs: a per-group state
        snapshot plus a bounded per-worker op log (at most
        ``replay_buffer_ops`` mutating rounds; beyond that the snapshot is
        refreshed from the worker and the log cleared).  When a worker
        dies, stalls past its deadline, or its channel breaks, the
        coordinator respawns it, restores its shard groups from the
        snapshots and replays the log — up to ``max_recovery_attempts``
        times — so a recovered run is bit-identical to an uninterrupted
        one; past that it raises :class:`~repro.exceptions.ShardingError`.
        Snapshots and the log cost memory proportional to the session
        states plus the buffered batches.
    fault_plan:
        Optional :class:`repro.testing.faults.FaultPlan` injected at the
        supervisor seam (tests); defaults to the process-wide active plan.

    Workers start lazily on first use; call :meth:`close` (or use the engine
    as a context manager) to terminate them.  Ingestion is batch-oriented:
    :meth:`ingest_record_batch` / :meth:`process_batches` are the native
    paths, with record-based entry points provided for API parity.
    """

    def __init__(
        self,
        num_workers: "int | None" = None,
        stream_key: "StreamKey | None" = None,
        unknown_stream: str = "raise",
        transport: "str | ShardTransport" = "pipe",
        transport_options: "Mapping[str, Any] | None" = None,
        op_timeout: float = 60.0,
        replay_buffer_ops: int = 64,
        max_recovery_attempts: int = 2,
        fault_plan: Any = None,
    ):
        if unknown_stream not in UNKNOWN_STREAM_POLICIES:
            raise ConfigurationError(
                f"unknown_stream must be one of {sorted(UNKNOWN_STREAM_POLICIES)}, "
                f"got {unknown_stream!r}"
            )
        if num_workers is None:
            num_workers = multiprocessing.cpu_count()
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.stream_key = stream_key or attribute_stream_key
        self.unknown_stream = unknown_stream
        # Built eagerly so a bad transport name fails at construction, but
        # connected lazily with the workers.
        self._transport: ShardTransport = make_transport(
            transport, transport_options
        )
        if float(op_timeout) <= 0:
            raise ConfigurationError(f"op_timeout must be > 0, got {op_timeout}")
        if int(replay_buffer_ops) < 1:
            raise ConfigurationError(
                f"replay_buffer_ops must be >= 1, got {replay_buffer_ops}"
            )
        if int(max_recovery_attempts) < 1:
            raise ConfigurationError(
                f"max_recovery_attempts must be >= 1, got {max_recovery_attempts}"
            )
        self.op_timeout = float(op_timeout)
        self.replay_buffer_ops = int(replay_buffer_ops)
        self.max_recovery_attempts = int(max_recovery_attempts)
        self._supervisor = ShardSupervisor(self._transport, self.op_timeout, fault_plan)
        #: key -> serial-format state at that worker's op-log start.
        self._snapshots: dict[Any, dict[str, Any]] = {}
        #: worker -> [(verb, ops)] mutating rounds since the last snapshot.
        self._oplog: dict[int, list[tuple[str, Any]]] = {}
        self._recoveries_total = 0
        self._replayed_batches_total = 0
        self._recovering_depth = 0
        self._last_recovery_unix: "float | None" = None
        self._units: dict[str, _SessionUnit] = {}
        self._observers: list[EngineObserver] = []
        self._started = False
        self._next_worker = 0
        self._rebalances_total = 0
        #: The process_batches round shipped but not collected yet.
        self._streaming: "_Round | None" = None
        self._closed = False

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def add_session(
        self,
        name: str,
        tree: HierarchyTree,
        config: TiresiasConfig,
        algorithm: str = "ada",
        clock: "SimulationClock | None" = None,
        warmup_units: "int | None" = None,
        max_results: "int | None" = None,
        subtree_shards: int = 1,
        subtree_depth: int = 1,
    ) -> None:
        """Create and register a named session (mirrors the serial engine).

        ``subtree_shards > 1`` additionally partitions the session's
        depth-``subtree_depth`` cut units into that many shard groups
        (capped at the number of cut units), which requires
        ``config.track_root=False`` with ``allow_root_heavy=False``, a
        shardable algorithm (``"ada"`` or ``"sta"``) and — for
        ``subtree_depth > 1`` — ``config.min_heavy_depth >= subtree_depth``.
        """
        session = DetectionSession(
            tree,
            config,
            algorithm=algorithm,
            clock=clock,
            warmup_units=warmup_units,
            name=name,
            max_results=max_results,
        )
        self.attach_session(
            session, subtree_shards=subtree_shards, subtree_depth=subtree_depth
        )

    def attach_session(
        self,
        session: DetectionSession,
        subtree_shards: int = 1,
        subtree_depth: int = 1,
    ) -> None:
        """Register an existing session from its state snapshot.

        The engine takes a snapshot at attach time; later mutations of the
        passed session object are not seen by the workers.
        """
        self.attach_session_state(
            session.state_dict(),
            subtree_shards=subtree_shards,
            subtree_depth=subtree_depth,
        )

    def attach_session_state(
        self,
        state: Mapping[str, Any],
        subtree_shards: int = 1,
        subtree_depth: int = 1,
    ) -> None:
        """Register a session from a serial-format ``state_dict`` snapshot."""
        self._check_open()
        name = str(state["name"])
        if name in self._units:
            raise ConfigurationError(f"a session named {name!r} is already registered")
        if "shadow" in state:
            raise ShadowStateError(
                f"session {name!r} runs a shadow experiment; the sharded "
                f"engine cannot host shadowed sessions — stop or promote the "
                f"shadow before attaching"
            )
        state = dict(state)
        subtree_shards = int(subtree_shards)
        if subtree_shards < 1:
            raise ConfigurationError(
                f"subtree_shards must be >= 1, got {subtree_shards}"
            )
        subtree_depth = int(subtree_depth)
        if subtree_depth < 1:
            raise ConfigurationError(
                f"subtree_depth must be >= 1, got {subtree_depth}"
            )
        groups = (
            plan_subtree_groups(
                state["tree"]["leaves"], subtree_shards, subtree_depth
            )
            if subtree_shards > 1
            else []
        )
        if len(groups) > 1:
            try:
                sub_states, withheld = split_session_state(
                    state, groups, subtree_depth
                )
            except CheckpointError as exc:
                raise ConfigurationError(str(exc)) from exc
            workers = [self._assign_worker() for _ in groups]
            unit = _SessionUnit(
                name, state, groups, sub_states, workers, withheld,
                depth=subtree_depth,
            )
        else:
            # Workers keep no results or reports: the coordinator holds them.
            shipped = dict(state, max_results=0, reports=[])
            unit = _SessionUnit(
                name, state, None, [shipped], [self._assign_worker()], {}, depth=0
            )
        self._units[name] = unit
        if self._started:
            self._ship_unit(unit)

    def _assign_worker(self) -> int:
        worker = self._next_worker % self.num_workers
        self._next_worker += 1
        return worker

    @property
    def session_names(self) -> tuple[str, ...]:
        return tuple(self._units)

    def __contains__(self, name: str) -> bool:
        return name in self._units

    def __len__(self) -> int:
        return len(self._units)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach an observer; hooks fire coordinator-side on merged results
        with a :class:`ShardedSessionHandle` as the session argument."""
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ShardingError("this sharded engine has been closed")

    def _ensure_started(self) -> None:
        self._check_open()
        if self._started:
            return
        self._transport.connect(self.num_workers)
        self._started = True
        for unit in self._units.values():
            self._ship_unit(unit)

    def _ship_unit(self, unit: _SessionUnit) -> None:
        # The shipped states are retained as recovery snapshots: a respawned
        # worker is rebuilt from them plus the bounded op log.  "add" rounds
        # are deliberately *not* logged — the snapshot taken here plays that
        # role during replay.
        assert unit.sub_states is not None
        ops: dict[int, list] = {}
        for gid, worker in enumerate(unit.workers):
            self._snapshots[unit.keys[gid]] = unit.sub_states[gid]
            ops.setdefault(worker, []).append(
                (unit.keys[gid], unit.sub_states[gid], unit.capture_depth)
            )
        self._roundtrip(ops, "add")
        unit.sub_states = None  # the workers own the live states from here on

    #: Verbs whose rounds must be replayed to rebuild a worker exactly.
    #: ("add" is covered by snapshots; "remove" only occurs inside
    #: rebalancing, which refreshes the involved workers around it.)
    _LOGGED_VERBS = frozenset({"ingest", "flush"})

    def _roundtrip(self, ops_by_worker: Mapping[int, Any], verb: str) -> dict[int, Any]:
        """Send one message per involved worker; collect replies determinately."""
        self._check_idle(f"a {verb!r} round trip")
        return self._run_round(_Round(verb, ops_by_worker))

    def _run_round(self, round_: _Round) -> dict[int, Any]:
        """Ship a whole round, then collect it; raises its first failure."""
        self._exchange(None, round_)
        self._exchange(round_, None)
        if round_.failure is not None:
            self._raise_failure(round_)
        return round_.replies

    def _ops_by_worker(
        self, units: "Iterable[_SessionUnit] | None" = None
    ) -> dict[int, list]:
        """The keys of every shard group of ``units`` (default: all), by
        hosting worker."""
        ops: dict[int, list] = {}
        for unit in self._units.values() if units is None else units:
            for gid, worker in enumerate(unit.workers):
                ops.setdefault(worker, []).append(unit.keys[gid])
        return ops

    def _check_idle(self, what: str) -> None:
        """Refuse a round trip while a streamed round is on the workers.

        Only an observer can get here with a round in flight (hooks fire
        while the next round computes); a second command on a channel that
        still owes a reply would pair the wrong replies with each other.
        """
        round_ = self._streaming
        if round_ is not None:
            raise ShardingError(
                f"{what} is not possible while process_batches() has round "
                f"{round_.index} of its stream in flight on the workers: the "
                f"replies would interleave.  Feed the batches through "
                f"ingest_record_batch(), which is synchronous, to call into "
                f"the engine from an observer"
            )

    def _exchange(self, collecting: "_Round | None", shipping: "_Round | None") -> None:
        """Per worker in id order: read its reply to ``collecting``, then
        send it its command of ``shipping`` (either side may be absent).

        There is no barrier between workers — one that has answered is
        computing again while its peers are still on the previous round —
        and a channel never holds two commands: a worker's next command
        goes out only once its previous reply has been read.  A
        :class:`~repro.exceptions.WorkerFailureError` on either leg triggers
        in-place recovery (respawn + snapshot restore + op-log replay +
        re-ship of that worker's in-flight command), so both rounds
        complete with exactly the replies an uninterrupted run would have
        produced.  Once a worker has reported an error for
        ``collecting`` nothing more of ``shipping`` is sent; the error is
        left in ``collecting.failure`` for the caller to raise.
        """
        collect_from = set(collecting.awaiting) if collecting is not None else ()
        ship_to = shipping.ops if shipping is not None else ()
        for worker_id in sorted({*collect_from, *ship_to}):
            if worker_id in collect_from:
                self._collect_round(collecting, worker_id)
            if worker_id in ship_to and (
                collecting is None or collecting.failure is None
            ):
                self._ship_round(shipping, worker_id)

    def _ship_round(self, round_: _Round, worker_id: int) -> None:
        try:
            self._supervisor.ship(worker_id, round_.verb, round_.ops[worker_id])
        except WorkerFailureError as exc:
            self._recover_worker(worker_id, exc)
            self._supervisor.ship(worker_id, round_.verb, round_.ops[worker_id])
        round_.awaiting.add(worker_id)

    def _collect_round(self, round_: _Round, worker_id: int) -> None:
        try:
            status, payload = self._supervisor.collect(worker_id)
        except WorkerFailureError as exc:
            self._recover_worker(worker_id, exc)
            # The rebuilt worker never saw the in-flight round: re-ship
            # it and take the reply an uninterrupted run would have had.
            self._supervisor.ship(worker_id, round_.verb, round_.ops[worker_id])
            status, payload = self._supervisor.collect(worker_id)
        round_.awaiting.discard(worker_id)
        if status == "error":
            error, closed = payload
            if round_.failure is None:
                round_.failure = error
            round_.replies[worker_id] = closed
        elif status == "ok":
            round_.replies[worker_id] = payload
            if round_.verb in self._LOGGED_VERBS:
                log = self._oplog.setdefault(worker_id, [])
                log.append((round_.verb, round_.ops[worker_id]))
                if len(log) > self.replay_buffer_ops:
                    self._refresh_worker(worker_id)

    # ------------------------------------------------------------------
    # Worker recovery
    # ------------------------------------------------------------------
    def _keys_on_worker(self, worker_id: int) -> list[tuple[Any, int]]:
        """``(key, capture_depth)`` of every shard group hosted by a worker."""
        out = [
            (unit.keys[gid], unit.capture_depth)
            for unit in self._units.values()
            for gid, worker in enumerate(unit.workers)
            if worker == worker_id
        ]
        out.sort(key=lambda item: item[0])
        return out

    def _refresh_worker(self, worker_id: int) -> None:
        """Re-anchor a worker's recovery baseline: snapshot now, clear log.

        Fetches the current state of every unit on the worker (through the
        supervised path, so the refresh itself is recoverable) and replaces
        the snapshots; the op log — now folded into the snapshots — is
        dropped.  This is what bounds both replay time and log memory.
        """
        keyed = self._keys_on_worker(worker_id)
        if keyed:
            # Not _roundtrip: a refresh runs inside an exchange, on a
            # channel whose reply has just been read, whatever its peers
            # still have in flight.
            replies = self._run_round(
                _Round("state", {worker_id: [key for key, _ in keyed]})
            )
            states = dict(replies[worker_id])
            for key, _depth in keyed:
                self._snapshots[key] = states[key]
        self._oplog[worker_id] = []

    def _recover_worker(self, worker_id: int, cause: WorkerFailureError) -> None:
        """Respawn ``worker_id`` and rebuild it bit-identically, or raise."""
        last_error: BaseException = cause
        self._recovering_depth += 1
        try:
            for _attempt in range(self.max_recovery_attempts):
                try:
                    self._attempt_recovery(worker_id)
                except WorkerFailureError as exc:
                    last_error = exc
                    continue
                self._recoveries_total += 1
                self._last_recovery_unix = time.time()
                for unit in self._units.values():
                    if worker_id in unit.workers:
                        unit.recoveries += 1
                return
        finally:
            self._recovering_depth -= 1
        raise ShardingError(
            f"shard worker {worker_id} could not be recovered after "
            f"{self.max_recovery_attempts} attempts: {last_error}"
        ) from last_error

    def _attempt_recovery(self, worker_id: int) -> None:
        self._supervisor.respawn(worker_id)
        add_ops: list[tuple[Any, dict[str, Any], int]] = []
        for key, depth in self._keys_on_worker(worker_id):
            state = self._snapshots.get(key)
            if state is None:
                raise ShardingError(
                    f"no recovery snapshot for shard unit {key!r}; worker "
                    f"{worker_id} cannot be rebuilt"
                )
            add_ops.append((key, state, depth))
        if add_ops:
            self._replay(worker_id, "add", add_ops)
        replayed = 0
        for verb, ops in list(self._oplog.get(worker_id, ())):
            self._replay(worker_id, verb, ops)
            replayed += 1
        self._replayed_batches_total += replayed

    def _replay(self, worker_id: int, verb: str, ops: Any) -> None:
        """One raw replay round against a freshly rebuilt worker.

        Replies are discarded — the original replies were already merged
        before the failure, and worker sessions are deterministic, so the
        replay only rebuilds state.  Raw transport is used on purpose: a
        replay must not consume fault-plan ordinals.
        """
        try:
            self._transport.ship(worker_id, verb, ops)
            status, _payload = self._transport.collect(
                worker_id, timeout=self.op_timeout
            )
        except WorkerFailureError:
            raise
        except ShardingError as exc:
            raise WorkerFailureError(worker_id, "replay", str(exc)) from exc
        if status != "ok":
            raise WorkerFailureError(
                worker_id, "replay", f"worker rejected a replayed {verb!r} round"
            )

    def close(self) -> None:
        """Stop every worker process.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        self._transport.close()
        self._started = False

    def __enter__(self) -> "ShardedDetectionEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_record_batch(
        self, batch: RecordBatch
    ) -> dict[str, list[TimeunitResult]]:
        """Route one columnar batch through the shards; merged closed results
        grouped by session name (bit-identical to the serial engine).

        Synchronous: the batch's results are merged, and observers have
        fired, when the call returns (prepare, ship, collect and merge run
        back to back; :meth:`process_batches` overlaps them across rounds).
        """
        self._ensure_started()
        self._check_idle("ingest_record_batch()")
        closed: dict[str, list[TimeunitResult]] = {name: [] for name in self._units}
        round_ = self._prepare_round(batch)
        if round_ is not None:
            self._run_round(round_)
            self._merge_round(round_, closed)
        return closed

    def _prepare_round(
        self, batch: RecordBatch, index: "int | None" = None
    ) -> "_Round | None":
        """Partition one batch by stream key and queue its per-worker
        commands; ``None`` when no record of it reaches a session."""
        routed = route_batch(batch, self.stream_key, self._units, self.unknown_stream)
        if not routed:
            return None
        ops: dict[int, list] = {}
        emit_bound = {
            name: self._dispatch_subtree(self._units[name], part, ops)
            for name, part in routed
        }
        return _Round("ingest", ops, index, emit_bound)

    def _merge_round(
        self, round_: _Round, closed: dict[str, list[TimeunitResult]]
    ) -> None:
        """Fold a collected ingest round into ``closed`` and emit what it
        completed, session by session in routing order; observers fire
        here."""
        self._collect(round_.replies)
        for name, bound in round_.emit_bound.items():
            closed[name].extend(self._emit_ready(self._units[name], upto=bound))

    def _raise_failure(
        self, round_: _Round, dropped: "_Round | None" = None
    ) -> NoReturn:
        """Raise the first worker error of a collected round.

        The round, and the streamed round ``dropped`` that went out behind
        it, are not merged, but an unsplit session's worker has still closed
        the timeunits their replies carry (a failed op's up to the error), as
        a serial session would have: they are counted and reported, without
        observer events, and the session is re-anchored.  Split sessions
        keep the caveat in the module docstring.
        """
        if round_.verb == "ingest":
            rounds = [round_] if dropped is None else [round_, dropped]
            for done in rounds:
                for worker_id in sorted(done.replies):
                    for key, results, _weights in done.replies[worker_id]:
                        unit = self._units[key[1]]
                        if unit.partition is None:
                            unit.handle.units_processed += len(results)
                            for result in results:
                                unit.reports.add_many(result.anomalies)
            self._reanchor(rounds)
        raise revive_exception(*round_.failure)

    def _reanchor(self, rounds: Sequence[_Round]) -> None:
        """Read back from its worker the open timeunit of every unsplit
        session that preparing ``rounds`` moved on.

        ``carried`` advances when a round is prepared; after a failed round
        the worker may have stopped at the error or never seen the batch.
        With its watermark read back, the session continues exactly like
        the serial one.
        """
        touched = {
            name: self._units[name]
            for done in rounds
            for name in done.emit_bound
            if self._units[name].partition is None
        }
        pending = self._query("pending_unit", touched.values())
        for unit in touched.values():
            unit.carried = pending[unit.keys[0]]

    def _dispatch_subtree(
        self, unit: _SessionUnit, part: RecordBatch, ops: dict[int, list]
    ) -> int:
        """Segment one session sub-batch by watermark and queue per-group ops.

        Per-batch cost is O(dictionary + late rows) in Python: rows are
        routed by dictionary code through a per-dictionary table, each
        group's rows are gathered once — timestamps and codes only
        (:func:`_worker_columns`) — and its segments ship as row ranges of
        that one gather.  :func:`_segment_cuts` says where they start: an
        in-order batch is one segment per group, plus a row-less trailing
        advance for a group the session watermark left behind.  An unsplit
        session's one group takes the whole part, never cut: its progress
        is the session watermark.

        Returns the new session watermark (timeunits strictly below it are
        complete across every group after this round).
        """
        part = _worker_columns(part)
        units_col = part.timeunit_indices(unit.clock)
        fresh = unit.carried is None
        anchor = int(units_col[0]) if fresh else unit.carried
        running_max = np.maximum.accumulate(units_col)
        new_carried = max(int(running_max[-1]), anchor)
        gids = None
        if unit.num_groups > 1:
            w_before = np.concatenate(([anchor], np.maximum(running_max[:-1], anchor)))
            gids = unit.route_table(part.code_dictionary)[part.category_codes]

        for gid in range(unit.num_groups):
            if gids is None:
                rows, count, cuts, progress = None, len(part), [], new_carried
            else:
                rows = np.flatnonzero(gids == gid)
                count = len(rows)
                cuts, progress = _segment_cuts(w_before, units_col, rows, anchor)
            # (watermark, start, stop): advance to the watermark, then ingest
            # rows [start, stop) of the group's batch.
            segments: list[tuple[int, int, int]] = []
            if count:
                bounds = [0, *cuts, count]
                marks = [anchor] + [int(w_before[rows[cut]]) for cut in cuts]
                segments.extend(zip(marks, bounds, bounds[1:]))
            elif fresh:
                segments.append((anchor, 0, 0))
            if new_carried > progress:
                segments.append((new_carried, count, count))
            if segments:
                group = None
                if count:
                    group = part if count == len(part) else part.take(rows)
                ops.setdefault(unit.workers[gid], []).append(
                    (unit.keys[gid], group, segments)
                )
        unit.carried = new_carried
        return new_carried

    def _collect(self, replies: Mapping[int, Any]) -> None:
        """Fold worker ingest/flush replies into the units' merge buffers.

        No hook fires here — an observer that raises must not leave a round
        half folded; :meth:`_emit_ready` merges and emits.
        """
        for worker_id in sorted(replies):
            for key, results, weights in replies[worker_id]:
                _, name, gid = key
                unit = self._units[name]
                if weights is None:  # no band replica: unsplit or STA
                    weights = [None] * len(results)
                elif len(weights) != len(results):
                    raise ShardingError(
                        f"internal: shard {key!r} returned {len(results)} "
                        f"results but {len(weights)} frontier weight records"
                    )
                for result, band in zip(results, weights):
                    slot = unit.buffer.setdefault(int(result.timeunit), {})
                    slot[gid] = (result, band)

    def _emit_ready(
        self, unit: _SessionUnit, upto: "int | None"
    ) -> list[TimeunitResult]:
        """Merge and emit buffered timeunits strictly below ``upto`` (all
        when ``upto`` is None), in timeunit order."""
        emitted: list[TimeunitResult] = []
        for timeunit in sorted(unit.buffer):
            if upto is not None and timeunit >= upto:
                break
            slot = unit.buffer.pop(timeunit)
            if len(slot) != unit.num_groups:
                raise ShardingError(
                    f"internal: timeunit {timeunit} of session {unit.name!r} "
                    f"closed on {len(slot)} of {unit.num_groups} shard groups"
                )
            if unit.frontier is not None:
                unit.frontier.observe(
                    timeunit, [slot[gid][1] for gid in range(unit.num_groups)]
                )
            merged = self._merge_unit_results(
                timeunit, [slot[gid][0] for gid in range(unit.num_groups)]
            )
            unit.handle.units_processed += 1
            unit.reports.add_many(merged.anomalies)
            notify_close(self._observers, unit.handle, merged)
            emitted.append(merged)
        return emitted

    @staticmethod
    def _merge_unit_results(
        timeunit: int, parts: Sequence[TimeunitResult]
    ) -> TimeunitResult:
        """One session-wide result from its shards' results of ``timeunit``.

        Shards own disjoint subtrees and nothing above the cut qualifies as
        heavy, so their heavy sets are disjoint: the merge concatenates the
        shards' lex-ordered columns, and sorts them only when the groups'
        paths interleave.  An unsplit session's one part is its result.
        """
        if len(parts) == 1:
            return parts[0]
        columns = [part.columns() for part in parts]
        paths = [path for heavy, _actual, _forecast in columns for path in heavy]
        actual = np.concatenate([column[1] for column in columns])
        forecast = np.concatenate([column[2] for column in columns])
        runs = [heavy for heavy, _actual, _forecast in columns if heavy]
        rows = None
        if any(left[-1] > right[0] for left, right in zip(runs, runs[1:])):
            rows = np.array(sorted(range(len(paths)), key=paths.__getitem__))
            actual = actual[rows]
            forecast = forecast[rows]
        anomalies = tuple(
            sorted(
                (anomaly for part in parts for anomaly in part.anomalies),
                key=lambda a: a.node_path,
            )
        )
        return TimeunitResult(timeunit, paths, actual, forecast, anomalies, rows)

    def ingest_batch(
        self, records: Iterable[OperationalRecord]
    ) -> dict[str, list[TimeunitResult]]:
        """Route records as one batch (columnarized coordinator-side)."""
        return self.ingest_record_batch(RecordBatch.from_records(records))

    def ingest_record(self, record: OperationalRecord) -> list[TimeunitResult]:
        """Route one record, a batch of one; returns results of timeunits it
        closed.  Each call is one worker round trip; prefer the batch
        paths."""
        return list(
            chain.from_iterable(
                self.ingest_record_batch(RecordBatch.from_records((record,))).values()
            )
        )

    def process_stream(
        self, records: Iterable[OperationalRecord]
    ) -> dict[str, list[TimeunitResult]]:
        """Consume a whole merged record stream in chunks of
        :data:`~repro.streaming.batch.STREAM_BATCH_SIZE` records
        (:meth:`process_batches`), then flush every session."""
        return self.process_batches(iter_record_batches(records, STREAM_BATCH_SIZE))

    def process_batches(
        self, batches: Iterable[RecordBatch]
    ) -> dict[str, list[TimeunitResult]]:
        """Consume a stream of columnar batches, then flush every session.

        The loop is software-pipelined.  While the workers compute round
        *k* the coordinator pulls the next batch and prepares round *k+1*;
        it then exchanges — per worker, read the reply to *k* and at once
        send *k+1* — and merges round *k* (observers fire) while the
        workers compute *k+1*.  Results, observer events and checkpoints
        equal a loop of :meth:`ingest_record_batch` calls; what differs is
        *when*: a batch is pulled one round before the previous batch's
        results are merged, so on a live iterator alerts trail ingestion by
        up to one round.  An exception from the iterator (or from routing
        the batch it produced) propagates only after the round in flight
        has been collected and merged, i.e. with callers and observers
        having seen everything the synchronous loop would have shown them.
        """
        self._ensure_started()
        self._check_idle("process_batches()")
        closed: dict[str, list[TimeunitResult]] = {name: [] for name in self._units}
        source = iter(batches)
        rounds = 0
        try:
            while True:
                following, stop = None, None
                try:
                    for batch in source:
                        following = self._prepare_round(batch, rounds)
                        if following is not None:
                            rounds += 1
                            break
                except Exception as exc:
                    stop = exc
                landed, self._streaming = self._streaming, None
                self._exchange(landed, following)
                if landed is not None and landed.failure is not None:
                    if following is not None:
                        # Read (and drop) what already went out, so that no
                        # later call finds a stale reply on a channel.
                        self._exchange(following, None)
                    self._raise_failure(landed, following)
                self._streaming = following
                if landed is not None:
                    self._merge_round(landed, closed)
                if stop is not None:
                    raise stop
                if following is None:
                    break
        except BaseException:
            in_flight, self._streaming = self._streaming, None
            if in_flight is not None:
                # The merge of the previous round failed (an observer
                # raised) with this one on the workers: read its replies so
                # the channels are idle and fold them, so the next call
                # emits the timeunits they closed, but hand nothing
                # more to hooks that have just raised.
                self._exchange(in_flight, None)
                self._collect(in_flight.replies)
                if in_flight.failure is not None:
                    self._reanchor([in_flight])
            raise
        finally:
            self._streaming = None
        for name, results in self.flush().items():
            closed[name].extend(results)
        return closed

    def flush(self) -> dict[str, list[TimeunitResult]]:
        """Close the accumulating timeunit of every session."""
        self._ensure_started()
        closed: dict[str, list[TimeunitResult]] = {name: [] for name in self._units}
        ops = self._ops_by_worker()
        if not ops:
            return closed
        self._collect(self._roundtrip(ops, "flush"))
        for name, unit in self._units.items():
            closed[name].extend(self._emit_ready(unit, upto=None))
            unit.carried = None
        return closed

    # ------------------------------------------------------------------
    # Churn-driven rebalancing
    # ------------------------------------------------------------------
    def rebalance_session(
        self, name: str, *, churn_threshold: float = 2.0
    ) -> dict[str, Any]:
        """Migrate one cut unit off the churn-heaviest shard group.

        Adaptation churn (split + merge operations) per shard group is the
        signal: when the busiest group's churn exceeds the lightest group's
        by ``churn_threshold`` (ratio, +1-smoothed) and the busiest owns
        more than one cut unit, its lexicographically last unit migrates to
        the lightest group through the split/merge checkpoint machinery —
        merge to the canonical serial state, remove the old shard sessions,
        re-split under the new layout, reship.  The operation happens at a
        timeunit barrier and is state-preserving: detections and checkpoint
        bytes are identical to never having rebalanced.

        Returns a report dict; ``"moved"`` is ``None`` when the layout was
        already balanced (no migration performed).
        """
        try:
            unit = self._units[name]
        except KeyError:
            raise ConfigurationError(
                f"no session named {name!r}; registered sessions: "
                f"{sorted(self._units)}"
            ) from None
        if unit.partition is None:
            raise ShardingError(
                f"session {name!r} is not subtree-sharded; nothing to rebalance"
            )
        self._ensure_started()
        self._check_idle("rebalance_session()")
        if unit.buffer:
            raise ShardingError(
                f"session {name!r} has timeunits mid-merge; rebalance at a "
                f"batch boundary"
            )
        per_key = self._query("adaptation_stats", [unit])
        churn = [
            int((per_key.get(key) or {}).get("split_operations", 0))
            + int((per_key.get(key) or {}).get("merge_operations", 0))
            for key in unit.keys
        ]
        gids = range(unit.num_groups)
        donor = max(gids, key=lambda g: (churn[g], -g))
        receiver = min(gids, key=lambda g: (churn[g], g))
        skew = (churn[donor] + 1) / (churn[receiver] + 1)
        report: dict[str, Any] = {
            "session": name,
            "churn": list(churn),
            "skew": skew,
            "threshold": float(churn_threshold),
            "moved": None,
            "from_group": None,
            "to_group": None,
        }
        if (
            donor == receiver
            or skew < churn_threshold
            or len(unit.partition.groups[donor]) < 2
        ):
            return report
        moved = max(unit.partition.groups[donor])
        merged = self.merged_session_state(name)
        # Re-anchor recovery baselines before mutating the layout: the old
        # op logs reference the pre-rebalance shard sessions and must never
        # be replayed onto the re-split ones.
        for worker_id in sorted(set(unit.workers)):
            self._refresh_worker(worker_id)
        new_groups = [list(group) for group in unit.partition.groups]
        new_groups[donor].remove(moved)
        new_groups[receiver].append(moved)
        new_groups = [sorted(group) for group in new_groups]
        try:
            sub_states, withheld = split_session_state(
                merged, new_groups, unit.depth
            )
        except CheckpointError as exc:  # pragma: no cover - defensive
            raise ShardingError(
                f"rebalance of session {name!r} failed to re-split: {exc}"
            ) from exc
        self._roundtrip(self._ops_by_worker([unit]), "remove")
        new_unit = _SessionUnit(
            name, merged, new_groups, sub_states, unit.workers, withheld,
            depth=unit.depth,
        )
        # Keep the observer-visible handle (with its warm-up bookkeeping) and
        # the coordinator report store (identity matters to subscribers;
        # contents are equal either way).
        new_unit.handle = unit.handle
        new_unit.reports = unit.reports
        new_unit.rebalances = unit.rebalances + 1
        new_unit.recoveries = unit.recoveries
        self._units[name] = new_unit
        self._ship_unit(new_unit)
        self._rebalances_total += 1
        report["moved"] = list(moved)
        report["from_group"] = donor
        report["to_group"] = receiver
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _query(
        self, what: str, units: "Iterable[_SessionUnit] | None" = None
    ) -> dict[Any, Any]:
        """Fetch a per-group attribute of ``units`` (default: all) from the
        workers, by key."""
        ops = self._ops_by_worker(units)
        if not ops:
            return {}
        self._ensure_started()
        replies = self._roundtrip(
            {worker: (what, keys) for worker, keys in ops.items()}, "query"
        )
        merged: dict[Any, Any] = {}
        for worker_id in sorted(replies):
            merged.update(dict(replies[worker_id]))
        return merged

    def anomalies(self) -> dict[str, list[Anomaly]]:
        """All reported anomalies, grouped by session name."""
        self._ensure_started()
        return {name: unit.reports.query() for name, unit in self._units.items()}

    def units_processed(self) -> dict[str, int]:
        self._ensure_started()
        return {
            name: unit.handle.units_processed for name, unit in self._units.items()
        }

    def open_timeunits(self) -> dict[str, "int | None"]:
        """Each session's open timeunit: what
        :attr:`DetectionSession.open_timeunit
        <repro.engine.session.DetectionSession.open_timeunit>` reads serially."""
        return {name: unit.carried for name, unit in self._units.items()}

    def memory_units(self) -> int:
        """Total memory cost proxy across all shard sessions."""
        self._ensure_started()
        return sum(self._query("memory_units").values())

    def adaptation_stats(self) -> dict[str, dict]:
        """Delta-adaptation counters per session, merged across shards.

        Subtree shards run the same id-based adaptation core as a serial
        session over their sub-hierarchies; numeric counters are summed
        across **all** shard groups of a session (shared fields like the
        adaptation mode come from the first shard).  Split sessions
        additionally report ``"rebalances"`` — how many times churn-driven
        rebalancing migrated their layout.  Sessions whose algorithm has no
        adaptation engine report ``{}``.
        """
        self._ensure_started()
        per_key = self._query("adaptation_stats")
        out: dict[str, dict] = {}
        for name, unit in self._units.items():
            merged = _merge_numeric_dicts(per_key.get(key) for key in unit.keys)
            if unit.partition is not None and (merged or unit.rebalances):
                merged["rebalances"] = unit.rebalances
            if unit.recoveries:
                merged["recoveries"] = unit.recoveries
            out[name] = merged
        return out

    def stage_seconds(self) -> dict[str, dict[str, float]]:
        """Per-session pipeline stage timings, summed across shard groups."""
        self._ensure_started()
        per_key = self._query("stage_seconds")
        out: dict[str, dict[str, float]] = {}
        for name, unit in self._units.items():
            merged = _merge_numeric_dicts(per_key.get(key) for key in unit.keys)
            for key, value in unit.base_state["algorithm_state"].get(
                "stage_seconds", {}
            ).items():
                if key in merged:
                    merged[key] += float(value)
            out[name] = merged
        return out

    def close_profile(self) -> dict[str, dict[str, Any]]:
        """Per-session close-path profile, merged across shard groups."""
        self._ensure_started()
        per_key = self._query("close_profile")
        return {
            name: _merge_close_profiles(per_key.get(key) for key in unit.keys)
            for name, unit in self._units.items()
        }

    def transport_stats(self) -> dict[str, Any]:
        """Cumulative transfer counters of the active transport."""
        stats = self._transport.stats()
        stats["connected"] = self._started
        return stats

    def sharding_info(self) -> dict[str, Any]:
        """Shard layout summary (transport, per-session groups, rebalances).

        This is what the service layer surfaces under ``"sharding"`` in
        tenant snapshots and ``/metrics``.
        """
        sessions: dict[str, Any] = {}
        for name, unit in self._units.items():
            if unit.partition is None:
                sessions[name] = {
                    "kind": "whole",
                    "worker": unit.workers[0],
                    "recoveries": unit.recoveries,
                }
            else:
                sessions[name] = {
                    "kind": "subtree",
                    "depth": unit.depth,
                    "groups": [
                        [list(prefix) for prefix in group]
                        for group in unit.partition.groups
                    ],
                    "workers": list(unit.workers),
                    "rebalances": unit.rebalances,
                    "recoveries": unit.recoveries,
                }
        info: dict[str, Any] = {
            "transport": self._transport.name,
            "num_workers": self.num_workers,
            "rebalances": self._rebalances_total,
            "sessions": sessions,
            "supervision": {
                "op_timeout": self.op_timeout,
                "recovering": self.recovering,
                "recoveries": self._recoveries_total,
                "replayed_batches": self._replayed_batches_total,
                "last_recovery_unix": self._last_recovery_unix,
                "failures": self._supervisor.failures_total,
                "faults_injected": self._supervisor.faults_injected,
            },
        }
        return info

    @property
    def recovering(self) -> bool:
        """True while a worker rebuild is in progress (degraded mode)."""
        return self._recovering_depth > 0

    @property
    def recoveries_total(self) -> int:
        """Workers successfully respawned and rebuilt over this engine's life."""
        return self._recoveries_total

    @property
    def replayed_batches_total(self) -> int:
        """Op-log rounds replayed onto rebuilt workers."""
        return self._replayed_batches_total

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def merged_session_state(self, name: str) -> dict[str, Any]:
        """Serial-format ``state_dict`` of one session, merged across shards.

        The returned state loads into a plain
        :class:`~repro.engine.session.DetectionSession` (or back into a
        sharded engine at any shard count) and continues bit-identically.
        An unsplit session's state is its worker's, with the coordinator's
        reports and the session's own ``max_results`` put back.
        """
        try:
            unit = self._units[name]
        except KeyError:
            raise ConfigurationError(
                f"no session named {name!r}; registered sessions: "
                f"{sorted(self._units)}"
            ) from None
        self._ensure_started()
        self._check_idle("merged_session_state()")
        if unit.buffer:
            raise ShardingError(
                f"session {name!r} has timeunits mid-merge; checkpoint at a "
                f"batch boundary"
            )
        replies = self._run_round(_Round("state", self._ops_by_worker([unit])))
        states_by_key = {key: st for reply in replies.values() for key, st in reply}
        sub_states = [states_by_key[key] for key in unit.keys]
        reports = [anomaly.to_dict() for anomaly in unit.reports]
        if unit.partition is None:
            state = sub_states[0]
            state["max_results"] = unit.base_state["max_results"]
            state["reports"] = reports
            return state
        withheld = unit.frontier.export() if unit.frontier is not None else {}
        return merge_session_states(
            sub_states,
            unit.base_state,
            reports=reports,
            withheld=withheld,
            depth=unit.depth,
        )

    def state_dict(self) -> dict[str, Any]:
        """Engine snapshot in the *serial* checkpoint format (version 1)."""
        return checkpoint_document(
            [self.merged_session_state(name) for name in self._units],
            engine={"unknown_stream": self.unknown_stream},
        )

    def save_checkpoint(self, path: Any) -> None:
        """Persist the merged engine state atomically as a JSON checkpoint.

        The file is indistinguishable from a serial
        :meth:`DetectionEngine.save_checkpoint` file: either engine can
        restore it.
        """
        write_json(self.state_dict(), path)

    @classmethod
    def from_state_dict(
        cls,
        state: Mapping[str, Any],
        *,
        subtree_shards: "int | Mapping[str, int]" = 1,
        subtree_depth: "int | Mapping[str, int]" = 1,
        **engine_options: Any,
    ) -> "ShardedDetectionEngine":
        """Rebuild a sharded engine from a (serial-format) engine snapshot.

        ``subtree_shards`` / ``subtree_depth`` apply to every session, or
        per session name through a mapping (default 1); ``engine_options``
        are the constructor's keyword arguments, except ``unknown_stream``,
        which the snapshot carries.
        """
        check_header(state)
        engine = cls(
            unknown_stream=str(
                state.get("engine", {}).get("unknown_stream", "raise")
            ),
            **engine_options,
        )
        for session_state in state["sessions"]:
            session_name = str(session_state["name"])
            shards = (
                subtree_shards.get(session_name, 1)
                if isinstance(subtree_shards, Mapping)
                else subtree_shards
            )
            depth = (
                subtree_depth.get(session_name, 1)
                if isinstance(subtree_depth, Mapping)
                else subtree_depth
            )
            engine.attach_session_state(
                session_state, subtree_shards=shards, subtree_depth=depth
            )
        return engine

    @classmethod
    def load_checkpoint(
        cls,
        path: Any,
        *,
        subtree_shards: "int | Mapping[str, int]" = 1,
        subtree_depth: "int | Mapping[str, int]" = 1,
        **engine_options: Any,
    ) -> "ShardedDetectionEngine":
        """Restore a sharded engine from any engine checkpoint file
        (arguments as in :meth:`from_state_dict`)."""
        return cls.from_state_dict(
            read_json(path),
            subtree_shards=subtree_shards,
            subtree_depth=subtree_depth,
            **engine_options,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedDetectionEngine(sessions={sorted(self._units)}, "
            f"num_workers={self.num_workers}, "
            f"transport={self._transport.name!r})"
        )
