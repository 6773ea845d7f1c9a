"""Composable detection engine: sessions, routing, lifecycle hooks.

This package is the public API layer introduced on top of the core
algorithms:

* :class:`~repro.engine.session.DetectionSession` — one (tree, config,
  algorithm) triple run online, with observer hooks and checkpointable state;
* :class:`~repro.engine.engine.DetectionEngine` — N named sessions fed from
  one merged record stream via a stream-key selector;
* :mod:`~repro.engine.hooks` — the observer protocol
  (``on_timeunit_closed`` / ``on_anomaly`` / ``on_warmup_complete``);
* :class:`~repro.engine.sharded.ShardedDetectionEngine` — the same engine
  semantics scaled across N worker processes (sessions and, optionally,
  disjoint hierarchy subtrees), with bit-identical detections.

A single hierarchy needs no engine: a :class:`DetectionSession` runs on its
own, with the same ingest, report and checkpoint surface.
"""

from repro.engine.engine import (
    UNKNOWN_STREAM_POLICIES,
    DetectionEngine,
    attribute_stream_key,
)
from repro.engine.hooks import CallbackObserver, EngineObserver
from repro.engine.session import DetectionSession
from repro.engine.sharded import ShardedDetectionEngine, ShardedSessionHandle
from repro.engine.subtree import plan_subtree_groups

__all__ = [
    "DetectionEngine",
    "ShardedDetectionEngine",
    "ShardedSessionHandle",
    "DetectionSession",
    "EngineObserver",
    "CallbackObserver",
    "attribute_stream_key",
    "plan_subtree_groups",
    "UNKNOWN_STREAM_POLICIES",
]
