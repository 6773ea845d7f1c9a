"""Unit coverage for the sharded engine's moving parts.

The end-to-end equivalence guarantees live in
``tests/integration/test_sharded_equivalence.py`` and the golden suite; this
module exercises the pieces in isolation: shard planning, configuration
validation, session state split/merge, lifecycle, observers and the
session-level ``advance_to`` primitive the watermark protocol builds on.
"""

from __future__ import annotations

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.hooks import CallbackObserver
from repro.engine.session import DetectionSession
from repro.engine.shard_worker import worker_handle
from repro.engine.sharded import ShardedDetectionEngine, ShardedSessionHandle
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ShardingError,
)
from repro.engine.shadow import ShadowStateError
from repro.engine.transport import TRANSPORTS
from repro.hierarchy.tree import HierarchyTree
from repro.engine.subtree import (
    SubtreePartition,
    merge_session_states,
    plan_subtree_groups,
    split_session_state,
)
from repro.streaming.batch import iter_record_batches
from repro.streaming.record import OperationalRecord


@pytest.fixture
def shardable_config() -> TiresiasConfig:
    return TiresiasConfig(
        theta=3.0,
        ratio_threshold=2.0,
        difference_threshold=3.0,
        delta_seconds=900.0,
        window_units=16,
        reference_levels=1,
        track_root=False,
        allow_root_heavy=False,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )


def records_for(tree: HierarchyTree, units: int, per_unit: int = 4):
    leaves = tree.leaf_paths()
    return [
        OperationalRecord(unit * 900.0 + i * 90.0, leaves[(unit + i) % len(leaves)])
        for unit in range(units)
        for i in range(per_unit)
    ]


# ----------------------------------------------------------------------
# plan_subtree_groups
# ----------------------------------------------------------------------
class TestPlanSubtreeGroups:
    def test_balances_by_leaf_count(self):
        leaves = (
            [("a", f"x{i}") for i in range(8)]
            + [("b", f"y{i}") for i in range(4)]
            + [("c", f"z{i}") for i in range(4)]
        )
        groups = plan_subtree_groups(leaves, 2)
        assert groups == [["a"], ["b", "c"]]

    def test_caps_groups_at_depth1_count(self):
        leaves = [("a", "x"), ("b", "y")]
        assert len(plan_subtree_groups(leaves, 5)) == 2

    def test_deterministic(self):
        leaves = [(f"t{i}", f"l{j}") for i in range(7) for j in range(i + 1)]
        assert plan_subtree_groups(leaves, 3) == plan_subtree_groups(leaves, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            plan_subtree_groups([("a", "x")], 0)

    def test_units_are_depth1_labels_of_deep_leaves(self):
        leaves = (
            [("a", "x", f"l{i}") for i in range(4)]
            + [("a", "y", f"l{i}") for i in range(2)]
            + [("b", "z", "l0"), ("c",)]
        )
        assert plan_subtree_groups(leaves, 2) == [["a"], ["b", "c"]]

    def test_equal_loads_break_ties_lexicographically(self):
        leaves = [("d", "x"), ("c", "x"), ("b", "x"), ("a", "x")]
        assert plan_subtree_groups(leaves, 3) == [["a", "d"], ["b"], ["c"]]


# ----------------------------------------------------------------------
# SubtreePartition routing
# ----------------------------------------------------------------------
class TestSubtreePartition:
    @pytest.mark.parametrize(
        "path, gid",
        [
            ((), None),  # the root: no shard owns it
            (("ghost",), 0),  # out of the tree: group 0
            (("ghost", "x", "y"), 0),
            (("a",), 0),  # interior: its first label's group
            (("b",), 1),
            (("c", "x"), 1),
            (("a", "x", "l0"), 0),  # a leaf
            (("c", "nowhere"), 1),  # out of the tree under a known label
        ],
    )
    def test_routes_by_first_label(self, path, gid):
        part = SubtreePartition([["a"], ["b", "c"]])
        assert part.route(path) == gid

    def test_unknown_label_takes_the_default(self):
        part = SubtreePartition([["a"], ["b"]])
        assert part.route(("ghost", "x"), default=None) is None
        assert part.route((), default=1) is None

    def test_duplicate_label_rejected(self):
        with pytest.raises(CheckpointError, match="two shard groups"):
            SubtreePartition([["a"], ["b", "a"]])


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_track_root_contradiction_rejected(self):
        with pytest.raises(ConfigurationError):
            TiresiasConfig(track_root=True, allow_root_heavy=False)

    def test_subtree_sharding_requires_root_exclusion(self, small_tree, fast_config):
        engine = ShardedDetectionEngine(num_workers=2)
        with pytest.raises(ConfigurationError, match="allow_root_heavy"):
            engine.add_session("s", small_tree, fast_config, subtree_shards=2)
        engine.close()

    def test_track_root_session_shards_whole_only(self, small_tree, fast_config, clock):
        # Whole-session sharding has no root constraint.
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session("s", small_tree, fast_config, clock=clock)
            records = records_for(small_tree, 6)
            serial = DetectionEngine()
            serial.add_session("s", small_tree, fast_config, clock=clock)
            assert (
                engine.process_stream(records)["s"]
                == serial.process_stream(records)["s"]
            )

    def test_duplicate_session_rejected(self, small_tree, shardable_config):
        with ShardedDetectionEngine(num_workers=1) as engine:
            engine.add_session("s", small_tree, shardable_config)
            with pytest.raises(ConfigurationError, match="already registered"):
                engine.add_session("s", small_tree, shardable_config)

    def test_bad_unknown_stream_policy(self):
        with pytest.raises(ConfigurationError):
            ShardedDetectionEngine(unknown_stream="explode")

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ShardedDetectionEngine(num_workers=0)


# ----------------------------------------------------------------------
# Session state split / merge
# ----------------------------------------------------------------------
class TestStateSurgery:
    def make_state(self, tree, config, clock, units=8):
        session = DetectionSession(tree, config, clock=clock, name="surgery")
        session.ingest_batch(records_for(tree, units))
        return session.state_dict()

    def test_split_then_merge_is_lossless_enough_to_resume(
        self, small_tree, shardable_config, clock
    ):
        state = self.make_state(small_tree, shardable_config, clock)
        groups = plan_subtree_groups(state["tree"]["leaves"], 3)
        sub_states, withheld = split_session_state(state, groups)
        assert len(sub_states) == 3
        merged = merge_session_states(
            sub_states, state, reports=state["reports"], withheld=withheld
        )
        resumed = DetectionSession.from_state_dict(merged)
        reference = DetectionSession.from_state_dict(state)
        tail = records_for(small_tree, 14)[8 * 4 :]
        assert resumed.ingest_batch(tail) + resumed.flush() == reference.ingest_batch(
            tail
        ) + reference.flush()

    def test_split_rejects_root_tracking_config(self, small_tree, fast_config, clock):
        session = DetectionSession(small_tree, fast_config, clock=clock)
        with pytest.raises(CheckpointError, match="allow_root_heavy"):
            split_session_state(session.state_dict(), [["region-0"], ["region-1"]])

    def test_split_rejects_incomplete_cover(self, small_tree, shardable_config, clock):
        state = self.make_state(small_tree, shardable_config, clock)
        with pytest.raises(CheckpointError, match="cover"):
            split_session_state(state, [["region-0"], ["region-1"]])

    def test_split_rejects_single_group(self, small_tree, shardable_config, clock):
        state = self.make_state(small_tree, shardable_config, clock)
        with pytest.raises(CheckpointError, match="two groups"):
            split_session_state(state, [["region-0", "region-1", "region-2"]])

    def test_merge_detects_torn_state(self, small_tree, shardable_config, clock):
        state = self.make_state(small_tree, shardable_config, clock)
        groups = plan_subtree_groups(state["tree"]["leaves"], 2)
        sub_states, withheld = split_session_state(state, groups)
        sub_states[1]["units_processed"] += 1
        with pytest.raises(CheckpointError, match="torn"):
            merge_session_states(
                sub_states, state, reports=[], withheld=withheld
            )

    def test_merge_detects_shards_at_different_timeunits(
        self, small_tree, shardable_config, clock
    ):
        state = self.make_state(small_tree, shardable_config, clock)
        groups = plan_subtree_groups(state["tree"]["leaves"], 2)
        sub_states, withheld = split_session_state(state, groups)
        sub_states[1]["algorithm_state"]["timeunit"] += 1
        with pytest.raises(CheckpointError, match="disagree on timeunit"):
            merge_session_states(sub_states, state, reports=[], withheld=withheld)

    def test_merge_needs_a_shard_state(self, small_tree, shardable_config, clock):
        state = self.make_state(small_tree, shardable_config, clock)
        with pytest.raises(CheckpointError, match="empty list"):
            merge_session_states([], state, reports=[], withheld={})

    def test_split_rejects_an_unknown_algorithm(self, small_tree, shardable_config, clock):
        state = self.make_state(small_tree, shardable_config, clock)
        state["algorithm"] = "magic"
        with pytest.raises(CheckpointError, match="unknown algorithm 'magic'"):
            split_session_state(state, [["region-0"], ["region-1", "region-2"]])


# ----------------------------------------------------------------------
# Engine lifecycle and observers
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_idempotent_and_final(self, small_tree, shardable_config):
        engine = ShardedDetectionEngine(num_workers=1)
        engine.add_session("s", small_tree, shardable_config)
        engine.flush()  # starts workers
        engine.close()
        engine.close()
        with pytest.raises(ShardingError, match="closed"):
            engine.ingest_batch(records_for(small_tree, 2))

    def test_context_manager_closes(self, small_tree, shardable_config):
        with ShardedDetectionEngine(num_workers=1) as engine:
            engine.add_session("s", small_tree, shardable_config)
            engine.flush()
        with pytest.raises(ShardingError):
            engine.flush()

    def test_observers_fire_with_handle(self, small_tree, shardable_config, clock):
        seen: list = []
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "obs", small_tree, shardable_config, clock=clock, subtree_shards=2
            )
            engine.subscribe(
                CallbackObserver(
                    on_timeunit_closed=lambda session, result: seen.append(
                        (type(session), session.name, result.timeunit)
                    )
                )
            )
            engine.process_stream(records_for(small_tree, 6))
        assert [entry[2] for entry in seen] == list(range(6))
        assert all(entry[0] is ShardedSessionHandle for entry in seen)
        assert all(entry[1] == "obs" for entry in seen)

    def test_observer_event_stream_matches_serial(
        self, small_tree, shardable_config, clock
    ):
        def collect(engine_like):
            events: list = []
            engine_like.subscribe(
                CallbackObserver(
                    on_timeunit_closed=lambda s, r: events.append(("unit", r.timeunit)),
                    on_anomaly=lambda s, a: events.append(("anomaly", a.to_dict())),
                    on_warmup_complete=lambda s, u: events.append(("warmup", u)),
                )
            )
            return events

        records = records_for(small_tree, 14, per_unit=9)
        serial = DetectionEngine()
        serial.add_session("obs", small_tree, shardable_config, clock=clock)
        serial_events = collect(serial)
        serial.process_stream(records)

        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "obs", small_tree, shardable_config, clock=clock, subtree_shards=2
            )
            sharded_events = collect(engine)
            engine.process_stream(records)
        assert sharded_events == serial_events

    def test_unknown_stream_drop_and_raise(self, small_tree, shardable_config, clock):
        tagged = [
            OperationalRecord(i * 900.0, small_tree.leaf_paths()[0], {"stream": "ghost"})
            for i in range(3)
        ]
        with ShardedDetectionEngine(num_workers=1, unknown_stream="drop") as engine:
            engine.add_session("a", small_tree, shardable_config, clock=clock)
            engine.add_session("b", small_tree, shardable_config, clock=clock)
            out = engine.ingest_batch(tagged)
            assert out == {"a": [], "b": []}
        from repro.exceptions import StreamError

        with ShardedDetectionEngine(num_workers=1) as engine:
            engine.add_session("a", small_tree, shardable_config, clock=clock)
            engine.add_session("b", small_tree, shardable_config, clock=clock)
            with pytest.raises(StreamError, match="ghost"):
                engine.ingest_batch(tagged)

    def test_introspection_matches_serial(self, small_tree, shardable_config, clock):
        records = records_for(small_tree, 8)
        serial = DetectionEngine()
        serial.add_session("x", small_tree, shardable_config, clock=clock)
        serial.process_stream(records)
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "x", small_tree, shardable_config, clock=clock, subtree_shards=2
            )
            engine.process_stream(records)
            assert engine.units_processed() == serial.units_processed()
            assert "x" in engine and len(engine) == 1
            assert engine.session_names == ("x",)
            assert engine.memory_units() > 0

    def test_worker_raise_preserves_exception_attributes(
        self, small_tree, shardable_config, clock
    ):
        from repro.exceptions import OutOfOrderRecordError

        config = shardable_config.replace(out_of_order_policy="raise")
        leaves = small_tree.leaf_paths()
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "x", small_tree, config, clock=clock, subtree_shards=2
            )
            engine.ingest_batch([OperationalRecord(5 * 900.0, leaves[0])])
            with pytest.raises(OutOfOrderRecordError) as exc_info:
                engine.ingest_batch([OperationalRecord(0.0, leaves[-1])])
        # The worker-side raise crosses the process boundary whole.
        assert exc_info.value.timestamp == 0.0
        assert exc_info.value.window_start == 5 * 900.0

    def test_ingest_record_parity(self, small_tree, shardable_config, clock):
        records = records_for(small_tree, 5)
        serial_session = DetectionSession(
            small_tree, shardable_config, clock=clock, name="r"
        )
        serial_results = [serial_session.ingest_record(r) for r in records]
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "r", small_tree, shardable_config, clock=clock, subtree_shards=2
            )
            sharded_results = [engine.ingest_record(r) for r in records]
        assert sharded_results == serial_results


# ----------------------------------------------------------------------
# DetectionSession.advance_to
# ----------------------------------------------------------------------
class TestAdvanceTo:
    def test_anchor_on_fresh_session(self, small_tree, shardable_config, clock):
        session = DetectionSession(small_tree, shardable_config, clock=clock)
        assert session.advance_to(5) == []
        assert session._pending_unit == 5

    def test_closes_everything_before_target(self, small_tree, shardable_config, clock):
        session = DetectionSession(small_tree, shardable_config, clock=clock)
        session.ingest_record(OperationalRecord(0.0, small_tree.leaf_paths()[0]))
        closed = session.advance_to(4)
        assert [r.timeunit for r in closed] == [0, 1, 2, 3]
        assert session._pending_unit == 4

    def test_noop_at_or_below_pending(self, small_tree, shardable_config, clock):
        session = DetectionSession(small_tree, shardable_config, clock=clock)
        session.advance_to(3)
        assert session.advance_to(3) == []
        assert session.advance_to(1) == []
        assert session._pending_unit == 3


class TestAdaptationStatsQuery:
    def test_stats_merge_across_subtree_shards(self, shardable_config):
        tree = HierarchyTree(
            [("a", "a1"), ("a", "a2"), ("b", "b1"), ("c", "c1")]
        )
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "s", tree, shardable_config, subtree_shards=2
            )
            engine.ingest_batch(records_for(tree, 6, per_unit=6))
            engine.flush()
            stats = engine.adaptation_stats()["s"]
        assert stats["mode"] in ("delta", "legacy")
        # Counters summed over both shard groups; six units closed per shard.
        assert stats["planned_units"] + stats["fastpath_units"] >= 6
        assert stats["split_operations"] >= 0

    def test_whole_session_stats_pass_through(self, shardable_config):
        tree = HierarchyTree([("a", "a1"), ("b", "b1")])
        with ShardedDetectionEngine(num_workers=1) as engine:
            engine.add_session("w", tree, shardable_config)
            engine.ingest_batch(records_for(tree, 4))
            engine.flush()
            stats = engine.adaptation_stats()["w"]
        assert "split_operations" in stats

    def test_stats_aggregate_over_more_groups_than_workers(self, shardable_config):
        tree = HierarchyTree(
            [(top, f"{top}{i}") for top in "abcd" for i in range(2)]
        )
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session("s", tree, shardable_config, subtree_shards=4)
            engine.ingest_batch(records_for(tree, 6, per_unit=8))
            engine.flush()
            stats = engine.adaptation_stats()["s"]
            assert len(engine.sharding_info()["sessions"]["s"]["groups"]) == 4
        # Four shard groups each closed six units; the counters are summed
        # across all of them, not just one group per worker.
        assert stats["planned_units"] + stats["fastpath_units"] >= 24
        assert "rebalances" not in stats


# ----------------------------------------------------------------------
# Shadowed sessions are refused up front
# ----------------------------------------------------------------------
class TestShadowGuard:
    def test_attach_shadowed_session_rejected_before_any_work(
        self, small_tree, shardable_config, clock
    ):
        session = DetectionSession(
            small_tree, shardable_config, clock=clock, name="sh"
        )
        session.ingest_batch(records_for(small_tree, 4))
        session.start_shadow(shardable_config.replace(theta=4.0))
        engine = ShardedDetectionEngine(num_workers=2)
        try:
            # Typed, up-front refusal — for subtree-sharded attaches...
            with pytest.raises(ShadowStateError, match="shadow"):
                engine.attach_session(session, subtree_shards=2)
            # ...and for whole-session attaches, where nothing downstream
            # would otherwise have complained until much later.
            with pytest.raises(ShadowStateError, match="shadow"):
                engine.attach_session_state(session.state_dict())
            assert len(engine) == 0  # nothing was half-registered
        finally:
            engine.close()

    def test_shadow_free_state_still_attaches(
        self, small_tree, shardable_config, clock
    ):
        session = DetectionSession(
            small_tree, shardable_config, clock=clock, name="ok"
        )
        session.ingest_batch(records_for(small_tree, 4))
        with ShardedDetectionEngine(num_workers=1) as engine:
            engine.attach_session_state(session.state_dict())
            assert "ok" in engine


# ----------------------------------------------------------------------
# Introspection surfaces of a subtree-sharded session
# ----------------------------------------------------------------------
class TestIntrospectionSurfaces:
    def test_timing_profile_and_layout(self, small_tree, shardable_config, clock):
        with ShardedDetectionEngine(num_workers=2, transport="shm") as engine:
            engine.add_session(
                "s", small_tree, shardable_config, clock=clock, subtree_shards=2
            )
            engine.process_stream(records_for(small_tree, 6))
            stage = engine.stage_seconds()["s"]
            profile = engine.close_profile()["s"]
            info = engine.sharding_info()
            stats = engine.transport_stats()
        assert stage and all(value >= 0 for value in stage.values())
        assert profile
        assert info["transport"] == "shm"
        assert info["num_workers"] == 2
        assert info["sessions"]["s"]["kind"] == "subtree"
        assert info["sessions"]["s"]["workers"] == [0, 1]
        assert stats["transport"] == "shm" and stats["connected"] is True
        assert stats["ship_serialized_bytes"] < stats["ship_bytes"]


    @pytest.mark.parametrize("shards", [2, 3])
    def test_layout_lists_each_group_as_label_prefixes(
        self, small_tree, shardable_config, shards
    ):
        """``groups`` is ``[[[label], ...], ...]``: one one-element path
        prefix per depth-1 label, as readers key owners by
        ``tuple(prefix)``.  Nothing names a cut depth or a migration."""
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "s", small_tree, shardable_config, subtree_shards=shards
            )
            info = engine.sharding_info()
        layout = info["sessions"]["s"]
        expected = plan_subtree_groups(small_tree.leaf_paths(), shards)
        assert layout["groups"] == [[[label] for label in group] for group in expected]
        assert set(layout) == {"kind", "groups", "workers", "recoveries"}
        assert "rebalances" not in info


# ----------------------------------------------------------------------
# A deep hierarchy splits into its depth-1 subtrees
# ----------------------------------------------------------------------
class TestDeepHierarchy:
    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    def test_deep_tree_matches_serial(
        self, deep_tree, shardable_config, clock, algorithm
    ):
        records = records_for(deep_tree, 10, per_unit=8)
        serial = DetectionEngine()
        serial.add_session(
            "d", deep_tree, shardable_config, algorithm=algorithm, clock=clock
        )
        serial_results = serial.process_stream(records)["d"]
        with ShardedDetectionEngine(num_workers=2) as engine:
            engine.add_session(
                "d",
                deep_tree,
                shardable_config,
                algorithm=algorithm,
                clock=clock,
                subtree_shards=3,  # capped at the two depth-1 labels
            )
            results = engine.process_stream(records)["d"]
            layout = engine.sharding_info()["sessions"]["d"]
        assert results == serial_results
        assert layout["groups"] == [[["vho-0"]], [["vho-1"]]]


# ----------------------------------------------------------------------
# Unsplit sessions: the worker keeps nothing the coordinator holds
# ----------------------------------------------------------------------
class TestUnsplitWorkerRetention:
    def test_worker_keeps_no_results_and_the_checkpoint_keeps_max_results(
        self, small_tree, fast_config, clock
    ):
        """Every command the engine ships for an unsplit session, replayed
        in process through ``worker_handle``, leaves the worker session with
        no results; the merged checkpoint still carries the session's own
        ``max_results``."""
        shipped: list = []

        class Recording(TRANSPORTS["pipe"]):
            def ship(self, worker_id, verb, ops, **options):
                shipped.append((verb, ops))
                super().ship(worker_id, verb, ops, **options)

        with ShardedDetectionEngine(num_workers=1, transport=Recording()) as engine:
            engine.add_session("s", small_tree, fast_config, clock=clock, max_results=5)
            results = engine.process_batches(
                iter_record_batches(records_for(small_tree, 12), 8)
            )
            state = engine.merged_session_state("s")
        assert len(results["s"]) == 12
        assert state["max_results"] == 5

        units: dict = {}
        for verb, ops in shipped:
            if verb in ("add", "ingest", "flush"):
                worker_handle(units, verb, ops)
        [key] = units
        assert units[key].session.units_processed == 12
        assert len(units[key].session.results) == 0
