"""ADA: the low-complexity adaptive heavy hitter tracking algorithm (§V-B).

ADA keeps a *single* weighted tree plus one time series per current heavy
hitter.  When the heavy hitter set changes between time instances, the
existing time series are *adapted* instead of being reconstructed from ℓ
stored timeunits:

* **SPLIT** (Fig. 7): a heavy hitter whose weight moved down the hierarchy
  hands (a share of) its time series to descendants, the share being chosen
  by a split rule (Uniform / Last-Time-Unit / Long-Term-History / EWMA,
  §V-B4).
* **MERGE** (Fig. 8): nodes that stopped being heavy fold their time series
  back into their nearest heavy ancestor.
* **Reference time series** (§V-B5): nodes in the top ``h`` levels always keep
  the time series of their *unmodified* weight ``A_n``; a node that just
  received a split-derived (hence possibly biased) series replaces it with
  ``reference − Σ(series of heavy descendants)``.

The heavy hitter membership itself is recomputed exactly per Definition 2
every timeunit with a single bottom-up pass (the same
``Update-Ishh-and-Weight`` recursion as Fig. 6), so Lemma 1 -- ADA tracks the
correct succinct heavy hitter set -- holds by construction; only the
*historical* part of each adapted time series is approximate, which is the
error Fig. 12 and Table V quantify.

One close, whatever the forecasting model.  The hierarchy update — raw
weights, modified weights, heavy masks — depends on a timeunit's own counts
only, so the front end ADA shares with STA
(:meth:`HierarchyTracker.sweep_timeunits
<repro.core.tracking.HierarchyTracker.sweep_timeunits>`) computes it for all
the timeunits a batch closes with one
:meth:`HierarchyIndex.sweep <repro.hierarchy.index.HierarchyIndex.sweep>`
(integer arithmetic; a single timeunit is its one-row call).  Everything
after it reads the previous timeunit's state and runs per unit, in order.
The id-based planner (:mod:`repro.core.adapt`) adapts on the heavy-set delta
only: it walks from each new heavy hitter up to its nearest series-holding
ancestor (split, top-down) and from each stale series holder up to its
nearest heavy ancestor (merge, bottom-up) — the nodes the pseudocode's
``tosplit`` flags and level-order traversals visit, without the corner-case
ambiguities of its in-place weight mutations.  Each SPLIT, MERGE and
reference correction is whole-row arithmetic on *row numbers* of the
:class:`~repro.forecasting.bank.ForecasterBank` row store, which holds every
series' forecaster state *and* windows as matrix rows: the forecasting
models are the closed set of linear Holt-Winters forms.  One
:meth:`~repro.forecasting.bank.ForecasterBank.observe_rows` call (one
kernel, whatever the size of the heavy set) updates every tracked
forecaster, one
:meth:`~repro.forecasting.bank.ForecasterBank.record_rows` call appends
every window, split-rule statistics update in one masked pass over dense
per-node arrays (:meth:`SplitStatsStore.update_dense`), and the
dual-threshold check evaluates as one batch comparison
(:meth:`~repro.core.detector.ThresholdDetector.check_many`).  The
:class:`~repro.core.results.TimeunitResult` a close returns holds those
arrays; its per-path views are built only when read.  A tracked path's
series is read as its checkpoint snapshot
(:meth:`ADAAlgorithm.series_state`).
:mod:`repro.testing.reference` is the slow per-path oracle it is tested
against.

Each step of the close has one form, and a restore holds only rows this
program writes: a series path, statistics row or reference row the session
could never have produced — a path outside the tree or the reference
levels, a forecaster snapshot of another layout — is refused with
:class:`~repro.exceptions.CheckpointError` rather than carried along.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro._types import CategoryPath, TimeunitIndex
from repro.core.adapt import FOLD, FRESH, MOVE, SPLIT, plan_adaptation
from repro.core import fused
from repro.core.config import TiresiasConfig
from repro.core.results import TimeunitResult
from repro.core.split_rules import (
    LastTimeUnitSplitRule,
    LongTermHistorySplitRule,
    UniformSplitRule,
    make_split_rule,
)
from repro.core.tracking import HierarchyTracker
from repro.exceptions import CheckpointError
from repro.forecasting.bank import ForecasterBank
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree

#: The columns of a close with no heavy hitter (most units of a stable
#: stream): one shared read-only array, so retained results of empty units
#: hold no allocation of their own.
_NO_COLUMN = np.empty(0)
_NO_COLUMN.setflags(write=False)


#: ``SplitStatsStore.last_unit_arr`` of a node without a last unit: above
#: every timeunit, so the stale test ``last_unit < timeunit - 1`` never
#: selects it, and far enough below the int64 limit that ``timeunit - 1 -
#: last_unit`` cannot overflow.  A restored last unit this large is refused.
NO_LAST_UNIT = 1 << 62


class SplitStatsStore:
    """Split-rule statistics for every node seen so far (§V-B4 bookkeeping).

    Dense per-node arrays over node ids, updated by one pass per timeunit
    (:meth:`update_dense`, read by the split-rule scorers of
    :meth:`ADAAlgorithm._make_id_scorer`).  ``seen`` marks the nodes with a
    statistics row; ``last_unit_arr`` holds each node's last observed
    timeunit, or :data:`NO_LAST_UNIT` for a node without one (a fresh node,
    or a restored statistics row without a last-unit row).  Values are
    bit-identical to a per-node :class:`~repro.core.split_rules.NodeUsageStats`
    walk (the EWMA decay powers are precomputed with Python's ``**``).
    Checkpoint emission keeps the canonical ``[[path, stats], ...]`` rows, in
    node-id order; a row for a path outside the tree, a path named twice, a
    ``-0.0`` cumulative weight or a last unit at or above
    :data:`NO_LAST_UNIT` is refused at load — rows this program never
    writes.
    """

    def __init__(self, config: TiresiasConfig, index: HierarchyIndex):
        self.alpha = config.split_ewma_alpha
        self.index = index
        n = index.num_nodes
        self.last_weight = np.zeros(n)
        self.cumulative = np.zeros(n)
        self.ewma = np.zeros(n)
        self.observations = np.zeros(n, dtype=np.int64)
        self.last_unit_arr = np.full(n, NO_LAST_UNIT, dtype=np.int64)
        self.seen = np.zeros(n, dtype=bool)
        #: ``(1 - alpha) ** g`` for g = 0..; grown lazily with Python pow so
        #: the decay factors match a per-node walk bit for bit.
        self._decay = np.ones(1)

    # ------------------------------------------------------------------
    # Per-timeunit updates
    # ------------------------------------------------------------------
    def _decay_table(self, gap: int):
        """The decay table, grown to cover a silent gap of ``gap`` timeunits."""
        decay = self._decay
        if len(decay) <= gap:
            base = 1 - self.alpha
            decay = self._decay = np.concatenate(
                [decay, [base ** g for g in range(len(decay), gap + 1)]]
            )
        return decay

    def update_dense(self, timeunit: int, raw_vec) -> None:
        """Fold one timeunit of dense raw weights into the statistics.

        Per node, the float operations of the silent-gap decay and
        :meth:`NodeUsageStats.update`, in their order, for the nodes with
        ``raw_vec > 0``; every other node keeps its values bit for bit.
        Whole-vector arithmetic, with no id list built: a fancy-indexed
        gather or scatter costs several unmasked ops at these sizes.  Two
        updates run unmasked because they are the identity where the weight
        is zero:

        * the cumulative add — raw weights are counts, so an unobserved
          node adds ``+0.0``, which leaves every value but ``-0.0`` as it
          is (and ``load`` refuses a ``-0.0`` cumulative weight);
        * the gap decay — a node that is not back after a silence
          multiplies by ``decay[0] == 1.0``.

        A node without a last unit holds :data:`NO_LAST_UNIT`, so the stale
        test is one compare and one ``&``.  The decay table grows only when
        a gap outruns it (the gather's ``IndexError``), to the longest gap
        decayed, so a unit whose gaps it covers pays no ``max``.
        """
        mask = raw_vec > 0
        if not np.count_nonzero(mask):
            return
        ewma = self.ewma
        last_unit = self.last_unit_arr
        # Nodes back after silent timeunits: their EWMA decays over the gap
        # first.  The gap is zeroed everywhere else, where ``decay[0] == 1.0``
        # multiplies exactly.
        stale = last_unit < timeunit - 1
        stale &= mask
        if np.count_nonzero(stale):
            gap = (timeunit - 1) - last_unit
            gap *= stale
            try:
                factors = self._decay.take(gap)
            except IndexError:  # a silence longer than any decayed before
                factors = self._decay_table(int(gap.max())).take(gap)
            ewma *= factors
        self.cumulative += raw_vec
        blend = self.alpha * raw_vec
        blend += (1 - self.alpha) * ewma
        first = self.observations == 0
        first &= mask
        np.putmask(ewma, mask, blend)
        if np.count_nonzero(first):
            np.putmask(ewma, first, raw_vec)
        np.putmask(self.last_weight, mask, raw_vec)
        np.putmask(last_unit, mask, timeunit)
        self.observations += mask
        self.seen |= mask

    # ------------------------------------------------------------------
    # Canonical checkpoint rows
    # ------------------------------------------------------------------
    def emit(self) -> tuple[list, list]:
        """``(stats_rows, last_unit_rows)`` in the canonical list format."""
        stats_rows = [
            [
                list(self.index.paths[node_id]),
                {
                    "last_weight": float(self.last_weight[node_id]),
                    "cumulative_weight": float(self.cumulative[node_id]),
                    "ewma_weight": float(self.ewma[node_id]),
                    "observations": int(self.observations[node_id]),
                },
            ]
            for node_id in np.flatnonzero(self.seen).tolist()
        ]
        last_rows = [
            [list(self.index.paths[node_id]), int(self.last_unit_arr[node_id])]
            for node_id in np.flatnonzero(self.last_unit_arr != NO_LAST_UNIT).tolist()
        ]
        return stats_rows, last_rows

    def load(self, stats_rows, last_rows) -> None:
        """Restore a fresh store from canonical rows (inverse of
        :meth:`emit`); raises :class:`~repro.exceptions.CheckpointError` for
        a row this program never writes (see the class docstring)."""
        node_of = self._node_of
        for path, row in stats_rows:
            node_id = node_of(path, "stats", self.seen)
            cumulative = float(row["cumulative_weight"])
            if cumulative == 0.0 and math.copysign(1.0, cumulative) < 0.0:
                raise CheckpointError(
                    f"stats row for {tuple(path)!r}: a cumulative weight of -0.0"
                )
            self.last_weight[node_id] = float(row["last_weight"])
            self.cumulative[node_id] = cumulative
            self.ewma[node_id] = float(row["ewma_weight"])
            self.observations[node_id] = int(row["observations"])
        has_last = np.zeros_like(self.seen)
        for path, unit in last_rows:
            node_id = node_of(path, "stats_last_unit", has_last)
            unit = int(unit)
            if unit >= NO_LAST_UNIT:
                raise CheckpointError(
                    f"stats_last_unit row for {tuple(path)!r}: timeunit {unit} "
                    f"is out of range"
                )
            self.last_unit_arr[node_id] = unit

    def _node_of(self, path, section: str, claimed) -> int:
        """The node id of a ``section`` row's path, marked in the boolean
        vector ``claimed`` of the nodes the section already named."""
        node_id = self.index.path_to_id.get(tuple(path))
        if node_id is None:
            raise CheckpointError(
                f"{section} row for {tuple(path)!r}: not a node of this session's tree"
            )
        if claimed[node_id]:
            raise CheckpointError(f"{section} rows name {tuple(path)!r} twice")
        claimed[node_id] = True
        return node_id


class RefStore:
    """Reference (unmodified weight ``A_n``) series for the top-``h`` levels.

    One ``(window, len(paths))`` ring: slot ``s`` holds one timeunit's value
    of every path, in ``paths`` order, so each path owns one fixed column
    and a timeunit is a single gather straight into its slot at the shared
    cursor (:meth:`append_column`) — no permutation, no temporary.  Each
    path holds its own number of valid slots, the newest ending at the
    cursor — kept as an offset from the shared column counter
    (``min(window, _origin[i] + _columns)``), so a column write touches no
    count — and a ragged restore or a path with no restored row (a fresh
    session's, a depth-k shard's band rows, which the split withholds)
    reads exactly what a bounded deque per path would.

    Row order lives only in emission: restored rows first, in load order,
    then — once a column has been written — the paths without one, in
    ``paths`` order.  So checkpoints stay byte-identical across save/restore
    round trips, including merged sharded checkpoints, whose rows are
    shard-grouped.  A restored row for a path outside ``paths``, or a path
    named twice, is refused.
    """

    def __init__(self, maxlen: int, paths: "tuple[CategoryPath, ...]", ids=None):
        """``ids``: where each path's value sits in the weight vectors
        :meth:`append_column` receives — node ids for a close's dense raw
        weights; by default the vectors hold one value per path, in
        ``paths`` order."""
        self.maxlen = maxlen
        self.paths = paths
        self._ids = np.asarray(
            range(len(paths)) if ids is None else ids, dtype=np.intp
        )
        #: The ring column of each path.
        self._column_of = {path: column for column, path in enumerate(paths)}
        # Allocated once: a slot is read only after a restore or a column
        # wrote it, so a restore writes its rows over whatever is there.
        # Fresh zeros stay untouched pages until then.
        self._ring = np.zeros((maxlen, len(paths)))
        self.load([])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append_column(self, weights) -> None:
        """Append one timeunit: each path's value, read from ``weights`` at
        its id, straight into the cursor's slot.  The ids are valid indices,
        so ``"clip"`` never clips; it spares the buffered write that the
        default ``"raise"`` mode makes into ``out``."""
        pos = self._pos
        np.asarray(weights).take(self._ids, None, self._ring[pos], "clip")
        self._pos = 0 if pos + 1 == self.maxlen else pos + 1
        self._columns += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _values(self, column: int):
        """The path's values, oldest first: a view unless the range wraps."""
        pos = self._pos
        start = pos - min(self.maxlen, int(self._origin[column]) + self._columns)
        ring = self._ring
        if start >= 0:
            return ring[start:pos, column]
        return np.concatenate([ring[start:, column], ring[:pos, column]])

    def has_values(self, path: CategoryPath) -> bool:
        """Whether the path holds a value, read off its valid count (nothing
        is materialized)."""
        column = self._column_of.get(path)
        return column is not None and int(self._origin[column]) + self._columns > 0

    def corrected_base(self, path: CategoryPath):
        """A fresh, mutable oldest-first float64 copy of the path's values
        (or None), owned by the caller."""
        column = self._column_of.get(path)
        if column is None:
            return None
        values = self._values(column)
        if not len(values):
            return None
        if values.base is None:
            return values  # a wrapped range: already a fresh concatenation
        return values.copy()

    def total_len(self) -> int:
        return int(np.minimum(self._origin + self._columns, self.maxlen).sum())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def emit(self) -> list:
        column_of = self._column_of
        order = self._restored + self._late if self._columns else self._restored
        return [
            [list(path), self._values(column_of[path]).tolist()] for path in order
        ]

    def load(self, rows) -> None:
        """Restore from canonical ``[[path, values], ...]`` rows: each row's
        newest ``maxlen`` values end at the cursor (slot 0).  Raises
        :class:`~repro.exceptions.CheckpointError` for a path outside
        ``paths`` or named twice."""
        maxlen = self.maxlen
        column_of = self._column_of
        #: A path's valid slots are ``min(maxlen, _origin[i] + _columns)``.
        self._origin = np.zeros(len(self.paths), dtype=np.int64)
        restored: dict[CategoryPath, None] = {}  # an ordered set
        for path, values in rows:
            path = tuple(path)
            column = column_of.get(path)
            if column is None:
                raise CheckpointError(
                    f"reference row for {path!r}: not a node of this "
                    f"session's reference levels"
                )
            if path in restored:
                raise CheckpointError(f"reference rows name {path!r} twice")
            restored[path] = None
            tail = [float(v) for v in values][-maxlen:]
            if tail:
                self._ring[maxlen - len(tail) :, column] = tail
            self._origin[column] = len(tail)
        #: Restored paths, in load order.
        self._restored = list(restored)
        #: Paths without a restored row, in ``paths`` order: emitted once a
        #: column has been written.
        self._late = [path for path in self.paths if path not in restored]
        #: Columns written since the restore.
        self._columns = 0
        #: Slot the next column is written to.
        self._pos = 0


class ADAAlgorithm(HierarchyTracker):
    """Adaptive online heavy hitter tracking and time-series maintenance."""

    name = "ADA"

    def __init__(self, tree: HierarchyTree, config: TiresiasConfig):
        super().__init__(tree, config)
        self.split_rule = make_split_rule(config)
        #: Row store shared by every tracked node's series: one matrix row
        #: per series holds its forecaster state and both windows.
        self.bank = ForecasterBank(config.forecast, window=config.window_units)
        self._reset_registry()
        #: Split-rule statistics for every node seen so far.
        self._stats = SplitStatsStore(config, self._index)
        self.split_operations = 0
        self.merge_operations = 0
        #: Cached heavy order reused verbatim while the heavy set is
        #: unchanged: (mask bytes, lex-ordered heavy ids, their bank rows).
        self._hv_cache = None
        #: Adaptation counters (not checkpointed).
        self.fastpath_units = 0
        self.planned_units = 0
        self.adapt_seconds = 0.0
        #: Close-profile counters (not checkpointed): units closed, units
        #: closed from a swept count row, and a close-latency histogram for
        #: the service metrics.
        self.fused_units = 0
        self.dense_close_units = 0
        self.close_histogram = fused.CloseHistogram()
        #: Frontier-band capture for depth-k sharding: when the sharded
        #: engine calls :meth:`capture_frontier`, every close also records
        #: the raw weights of the shared ancestor band (root + depths
        #: 1..k-1) so the coordinator can replay their split-rule stats and
        #: reference series exactly.  Off (``None``) outside sharded workers.
        self._frontier_ids = None
        self.last_frontier_raw: tuple[float, ...] | None = None
        #: Nodes in the top h levels, cached once: these keep reference series.
        self._reference_nodes: tuple[CategoryPath, ...] = tuple(
            node.path
            for depth in range(1, config.reference_levels + 1)
            for node in tree.nodes_at_depth(depth)
        )
        #: Reference (unmodified weight) series for nodes in the top h levels.
        self._ref = RefStore(
            config.window_units,
            self._reference_nodes,
            self._node_ids(self._reference_nodes),
        )

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------
    def close_swept(
        self, swept: tuple, timeunit: TimeunitIndex | None = None
    ) -> TimeunitResult:
        """Close one timeunit from its :meth:`sweep_timeunits` triple — how a
        session closes every unit — counted in ``dense_close_units``."""
        self.dense_close_units += 1
        return self._close(timeunit, *swept)

    def capture_frontier(self, paths) -> None:
        """Record the raw weight of each of ``paths`` on every close.

        Used by depth-k sharded workers: ``paths`` is the shard's slice of
        the shared ancestor band (root plus ancestors above the cut depth),
        in (depth, lex) order.  After each closed timeunit
        :attr:`last_frontier_raw` holds one float per path; the coordinator
        sums them across shards and replays the band's split-rule
        statistics and reference series through a :class:`SplitStatsStore`
        and a :class:`RefStore` of its own, exactly as the serial cascade
        would.
        """
        self._frontier_ids = self._node_ids(tuple(p) for p in paths)
        self.last_frontier_raw = None

    def _node_ids(self, paths):
        """Node ids of ``paths`` as an index array — what the close gathers
        their raw weights with."""
        path_to_id = self._index.path_to_id
        return np.array([path_to_id[path] for path in paths], dtype=np.intp)

    def _close(
        self, timeunit: TimeunitIndex | None, raw_vec, modified_vec, heavy_mask
    ) -> TimeunitResult:
        """Advance the unit counter and close one swept row, timed: delta
        planner, array tail, batch detection."""
        self._timeunit = self._timeunit + 1 if timeunit is None else timeunit
        stage_seconds = self.stage_seconds
        # One clock read per stage boundary: each ends one stage and starts
        # the next.
        close_start = time.perf_counter()
        self.fused_units += 1
        # The lex-ordered heavy ids depend only on the mask; on stable
        # timeunits they are the cached array, untouched.
        stable, ids_arr = self._prepare_delta(heavy_mask)
        checked = time.perf_counter()
        self.adapt_seconds += checked - close_start
        stage_seconds["updating_hierarchies"] += checked - close_start

        actuals, forecasts = self._close_delta(
            stable, ids_arr, heavy_mask, raw_vec, modified_vec
        )
        if self._frontier_ids is not None:
            self.last_frontier_raw = tuple(
                float(v) for v in raw_vec[self._frontier_ids]
            )
        series_done = time.perf_counter()
        stage_seconds["creating_time_series"] += series_done - checked

        result = self._detect(ids_arr, actuals, forecasts)
        close_end = time.perf_counter()
        stage_seconds["detecting_anomalies"] += close_end - series_done
        self.last_result = result
        self.close_histogram.observe(close_end - close_start)
        return result

    def close_profile(self) -> dict:
        """Close-path execution profile for the service metrics / ledger.

        ``fused_units`` counts timeunits closed, ``dense_close_units`` those
        closed from a swept count row (:meth:`close_swept`) — every unit a
        session closes, so only direct :meth:`process_timeunit` calls make
        the two differ — and
        ``close_time`` is a log-bucketed histogram of per-timeunit close wall
        times — the close proper: a batch's hierarchy sweep runs once, before
        its first unit closes, and is in ``stage_seconds`` only.
        ``staged_units`` is always 0: ADA has one close, and the key stays
        for the readers that report it.  Not checkpointed — these describe
        this process's execution, not algorithm state.
        """
        return {
            "fused_units": self.fused_units,
            "staged_units": 0,
            "dense_close_units": self.dense_close_units,
            "close_time": self.close_histogram.to_dict(),
        }

    # ------------------------------------------------------------------
    # Delta-driven close path (id-based fast path + planner)
    # ------------------------------------------------------------------
    def _prepare_delta(self, heavy_mask):
        """The timeunit's lex-ordered heavy node ids, from the mask alone.

        Returns ``(stable, ids_arr)`` — on a stable timeunit (mask
        unchanged) the ids are the cached array; otherwise they are built
        fresh.  No path is looked up.
        """
        cache = self._hv_cache
        if cache is not None and cache[0] == heavy_mask.tobytes():
            # The whole adaptation engine's work for a stable timeunit is
            # this one mask comparison (bytes compare: one memcmp).
            return True, cache[1]
        lex = self._index.lex_order
        return False, lex[heavy_mask[lex]]

    def _close_delta(self, stable, ids_arr, heavy_mask, raw_vec, modified_vec):
        """Adapt on the heavy-set delta only, then append this unit's weights.

        When the heavy mask is unchanged from the previous timeunit the whole
        adaptation stage reduces to one mask comparison and the cached
        heavy ids and bank rows are reused verbatim; otherwise the shared
        planner emits the SPLIT/MERGE cascade as ops which are applied as
        whole-row bank operations; the plan leaves every heavy hitter
        tracked.  The tail is array-native either way and returns the
        ``(actual, forecast)`` float64 columns in heavy-id order.
        """
        if stable:
            rows = self._hv_cache[2]
            self.fastpath_units += 1
        else:
            index = self._index
            adapt_start = time.perf_counter()
            plan = plan_adaptation(
                index,
                self._series_mask,
                heavy_mask,
                self._ref_has_id,
                self._make_id_scorer(),
            )
            if plan.ops:
                self._apply_plan(plan)
            self.split_operations += plan.num_splits
            self.merge_operations += plan.num_merges
            self.planned_units += 1
            rows = self._series_rows[ids_arr]
            self._hv_cache = (heavy_mask.tobytes(), ids_arr, rows)
            self.adapt_seconds += time.perf_counter() - adapt_start
        if self._reference_nodes:
            # The unmodified weight A_n of every reference-level node (§V-B5).
            self._ref.append_column(raw_vec)
        if len(rows):
            # A fancy-indexed gather: a fresh array sized by the heavy set, so
            # a retained result pins no row of the batch's sweep matrices.
            values_vec = modified_vec[ids_arr]
            if heavy_mask[0] and modified_vec[0] <= 0.0:
                # A tracked root with zero modified weight falls back to its
                # raw weight; the root is lexicographically first when present.
                values_vec[0] = raw_vec[0]
            # One observe kernel call and one indexed store per window for
            # the whole heavy set.
            bank = self.bank
            forecasts_vec = bank.observe_rows(rows, values_vec)
            bank.record_rows(rows, values_vec, forecasts_vec)
        else:
            values_vec = forecasts_vec = _NO_COLUMN
        self._stats.update_dense(self._timeunit, raw_vec)
        return values_vec, forecasts_vec

    def _make_id_scorer(self):
        """The split rule's score ``X_n`` of a node id at this timeunit.

        Evaluates only the statistics field the rule reads, adjusted for the
        timeunits the node was silent in (Python ``**`` decay, last-weight
        zeroing) — bit for bit the rule's ``score`` of the reference's
        :meth:`ReferenceStats.view <repro.testing.reference.ReferenceStats.view>`,
        without materializing a statistics view per receiver.  Covers the
        four rules :func:`~repro.core.split_rules.make_split_rule` builds.
        """
        rule_cls = type(self.split_rule)
        store = self._stats
        timeunit = self._timeunit
        cache: dict[int, float] = {}
        if rule_cls is UniformSplitRule:
            def score(node_id: int) -> float:
                return 1.0
        elif rule_cls is LongTermHistorySplitRule:
            cumulative, seen = store.cumulative, store.seen
            def score(node_id: int) -> float:
                value = cache.get(node_id)
                if value is None:
                    value = float(cumulative[node_id]) if seen[node_id] else 0.0
                    cache[node_id] = value
                return value
        elif rule_cls is LastTimeUnitSplitRule:
            last_weight, seen = store.last_weight, store.seen
            last_unit = store.last_unit_arr
            def score(node_id: int) -> float:
                value = cache.get(node_id)
                if value is None:
                    if not seen[node_id]:
                        value = 0.0
                    else:
                        last = int(last_unit[node_id])
                        if last == NO_LAST_UNIT:
                            last = -1
                        value = 0.0 if timeunit - last > 1 else float(
                            last_weight[node_id]
                        )
                    cache[node_id] = value
                return value
        else:  # EWMASplitRule, the last rule make_split_rule builds
            ewma, seen = store.ewma, store.seen
            last_unit = store.last_unit_arr
            alpha = store.alpha
            def score(node_id: int) -> float:
                value = cache.get(node_id)
                if value is None:
                    if not seen[node_id]:
                        value = 0.0
                    else:
                        value = float(ewma[node_id])
                        last = int(last_unit[node_id])
                        if last == NO_LAST_UNIT:
                            last = -1
                        gap = timeunit - last
                        if gap > 0:
                            value = value * (1 - alpha) ** (gap - 1)
                    cache[node_id] = value
                return value
        return score

    def _ref_has_id(self, node_id: int) -> bool:
        return self._ref.has_values(self._index.paths[node_id])

    def _apply_plan(self, plan) -> None:
        """Apply a planner op list in exact cascade order, on bank row numbers.

        Every op is whole-row arithmetic in the bank — a SPLIT is two
        multiplies, a FOLD one add (see
        :meth:`~repro.forecasting.bank.ForecasterBank.split_row` /
        :meth:`~repro.forecasting.bank.ForecasterBank.fold_row`) — applied
        one by one: each float operation happens where the paper's cascade
        performs it, and a reference correction reads the rows the splits
        before it wrote.  The registry is integers throughout: no per-series
        object is made or touched.
        """
        bank = self.bank
        ids = self._series_ids
        rows = self._series_rows
        for op in plan.ops:
            kind = op[0]
            if kind == SPLIT:
                _kind, donor_id, child_id, ratio, correct = op
                row = bank.split_row(ids[donor_id], ratio)
                ids[child_id] = rows[child_id] = row
                if correct:
                    self._correct_from_reference(child_id, row)
            elif kind == FRESH:
                ids[op[1]] = rows[op[1]] = bank.new_row()
            elif kind == MOVE:
                src_id, dst_id = op[1], op[2]
                ids[dst_id] = rows[dst_id] = ids.pop(src_id)
                rows[src_id] = -1
            else:  # FOLD into op[2], or DROP
                src_id = op[1]
                row = ids.pop(src_id)
                rows[src_id] = -1
                if kind == FOLD:
                    bank.fold_row(ids[op[2]], row)
                bank.free_row(row)

    def _correct_from_reference(self, node_id: int, row: int) -> None:
        """§V-B5 on row numbers: ``row`` (the series of ``node_id``, fresh
        from a split) becomes reference − Σ tracked descendants.

        Descendants subtract in tracking order — the registry's order —
        because float subtraction does not commute with itself.
        """
        corrected = self._ref.corrected_base(self._index.paths[node_id])
        if corrected is None:
            return
        length = corrected.shape[0]
        below = self._index.descendant_ids(node_id)
        bank = self.bank
        for other_id, other_row in self._series_ids.items():
            if other_id in below:
                # Aligned on the newest element, clipped to the overlap.
                descendant = bank.window_values(other_row, 0, length)
                corrected[length - len(descendant) :] -= descendant
        if length:
            bank.reseed(row, corrected)

    # ------------------------------------------------------------------
    # Series registry
    # ------------------------------------------------------------------
    def _reset_registry(self) -> None:
        """Empty the series registry (construction and restore).

        ``_series_ids`` maps node id to bank row in tracking order — the
        order checkpoints list series in and reference corrections subtract
        descendants in — and ``_series_rows`` is the same map as a dense
        vector (−1: untracked) for the close's gathers.  Readers go through
        :meth:`series_state`, :meth:`series_for` and :meth:`state_dict`.
        """
        self._series_ids: dict[int, int] = {}
        self._series_rows = np.full(self._index.num_nodes, -1, dtype=np.int64)

    def _track(self, node_id: int, row: int) -> None:
        """Register bank ``row`` as the series of ``node_id``."""
        self._series_ids[node_id] = self._series_rows[node_id] = row

    @property
    def _series_mask(self):
        """Registry occupancy as a boolean vector over node ids."""
        return self._series_rows >= 0

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def _detect(self, ids_arr, actuals, forecasts) -> TimeunitResult:
        """The close's columns as a result: the index's path table, the
        lex-ordered heavy ids into it (so the anomaly sequence is identical
        across processes) and the two float64 columns; only flagged rows
        have their paths looked up."""
        paths = self._index.paths
        anomalies = ()
        if len(ids_arr):  # an empty heavy set flags nothing
            anomalies = tuple(
                self.detector.check_many(
                    paths,
                    self._timeunit,
                    actuals,
                    forecasts,
                    rows=ids_arr,
                    algorithm=self.name,
                )
            )
        return TimeunitResult(
            self._timeunit, paths, actuals, forecasts, anomalies, rows=ids_arr
        )

    # ------------------------------------------------------------------
    # Introspection used by the evaluation harness
    # ------------------------------------------------------------------
    def _row_of(self, path: CategoryPath) -> "int | None":
        return self._series_ids.get(self._index.path_to_id.get(tuple(path)))

    def series_for(self, path: CategoryPath) -> list[float]:
        """The adapted actual series currently held for ``path``."""
        row = self._row_of(path)
        return [] if row is None else self.bank.window_values(row, 0).tolist()

    def series_state(self, path: CategoryPath) -> "dict | None":
        """The canonical snapshot of ``path``'s series — the entry
        :meth:`state_dict` lists for it (both windows oldest first and the
        forecaster state) — or ``None`` when ``path`` is not tracked.  Built
        on each call from the bank row, so mutating it leaves the algorithm
        untouched."""
        row = self._row_of(path)
        return None if row is None else self.bank.series_state_dict(row)

    def memory_units(self) -> int:
        """Number of stored scalars (Table IV cost proxy): one tree + series."""
        window_len = self.bank.window_len
        series_cost = sum(
            window_len(row, 0) + window_len(row, 1) for row in self._series_ids.values()
        )
        return self.tree.num_nodes + series_cost + self._ref.total_len()

    def adaptation_stats(self) -> dict:
        """Adaptation counters (not part of the checkpoint format).

        ``mode`` names the adaptation engine, the id-based planner:
        ``"delta"``.  ``fastpath_units`` counts timeunits whose heavy set was
        unchanged (adaptation skipped entirely), ``planned_units`` those that
        went through the planner; ``adapt_seconds`` is the time spent in
        the heavy-set check and in adaptation proper (plan + apply).
        """
        return {
            "mode": "delta",
            "fastpath_units": self.fastpath_units,
            "planned_units": self.planned_units,
            "split_operations": self.split_operations,
            "merge_operations": self.merge_operations,
            "adapt_seconds": self.adapt_seconds,
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of all mutable tracking state.

        Category paths (tuples of labels) become lists; dicts keyed by paths
        become ``[path, value]`` pairs so the snapshot survives JSON's
        string-only object keys.  This is the canonical per-path format that
        predates the columnar bank — serial and sharded sessions read and
        write it interchangeably.
        """
        stats_rows, last_rows = self._stats.emit()
        paths = self._index.paths
        series_state = self.bank.series_state_dict
        return {
            "timeunit": self._timeunit,
            "split_operations": self.split_operations,
            "merge_operations": self.merge_operations,
            "stage_seconds": dict(self.stage_seconds),
            "series": [
                [list(paths[node_id]), series_state(row)]
                for node_id, row in self._series_ids.items()
            ],
            "reference": self._ref.emit(),
            "stats": stats_rows,
            "stats_last_unit": last_rows,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` (same tree/config).

        Raises :class:`~repro.exceptions.CheckpointError`, naming the path,
        for a row this session never writes: a series of a path that is not
        a node of this tree or whose forecaster snapshot does not fit the
        bank's layout, a statistics or last-unit row outside the tree, a
        reference row outside the reference levels, and a second row for a
        path in any of the four sections.
        """
        forecast_config = self.config.forecast
        self._timeunit = int(state["timeunit"])
        self.split_operations = int(state["split_operations"])
        self.merge_operations = int(state["merge_operations"])
        self.stage_seconds = {k: float(v) for k, v in state["stage_seconds"].items()}
        self.bank = ForecasterBank(forecast_config, window=self.config.window_units)
        self._reset_registry()
        self._hv_cache = None
        path_to_id = self._index.path_to_id
        for path, ts_state in state["series"]:
            path = tuple(path)
            if path not in self.tree:
                raise CheckpointError(
                    f"series path {path!r} is not a node of this session's tree"
                )
            if path_to_id[path] in self._series_ids:
                raise CheckpointError(f"series rows name {path!r} twice")
            try:
                row = self.bank.load_series_state(ts_state)
            except CheckpointError as exc:
                raise CheckpointError(f"series {path!r}: {exc}") from exc
            self._track(path_to_id[path], row)
        self._ref.load(state["reference"])
        self._stats = SplitStatsStore(self.config, self._index)
        self._stats.load(state["stats"], state["stats_last_unit"])
        self.last_result = None

