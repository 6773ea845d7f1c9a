"""Sharded tenant backing: a session-shaped facade over the sharded engine.

A tenant spec may carry a ``sharding`` mapping (see
:class:`~repro.service.config.TenantSpec`), in which case the service
materializes the tenant not as an in-process
:class:`~repro.engine.session.DetectionSession` but as a single-session
:class:`~repro.engine.sharded.ShardedDetectionEngine` behind this adapter.
The adapter exposes the exact session surface the
:class:`~repro.service.manager.SessionManager` and the metrics endpoint
consume — ingest, flush, observers, introspection, ``state_dict`` — so the
rest of the service layer cannot tell the difference, while detections,
reports and checkpoint bytes stay bit-identical to a serial tenant (the
sharded engine's core guarantee).

Checkpoints round-trip through the ordinary single-session file format:
:meth:`state_dict` returns the *merged serial* session state, so an evicted
sharded tenant can be reactivated serially (or at a different shard count /
transport) from the same file.

Online reconfiguration and shadow experiments are not supported for sharded
tenants — both mutate live per-node state that is distributed across worker
processes; the typed errors below say so explicitly.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver
from repro.engine.sharded import ShardedDetectionEngine
from repro.engine.transport import TRANSPORTS
from repro.exceptions import ConfigurationError
from repro.io.checkpoint import config_from_dict

#: Recognised keys of a tenant spec's ``sharding`` mapping.
SHARDING_KEYS = frozenset(
    {"workers", "subtree_shards", "subtree_depth", "transport", "transport_options"}
)


def validate_sharding(sharding: Mapping[str, Any]) -> dict[str, Any]:
    """Normalize and validate a tenant ``sharding`` mapping."""
    unknown = set(sharding) - SHARDING_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown sharding keys {sorted(unknown)}; "
            f"recognised: {sorted(SHARDING_KEYS)}"
        )
    out: dict[str, Any] = {
        "workers": int(sharding.get("workers", 2)),
        "subtree_shards": int(sharding.get("subtree_shards", 1)),
        "subtree_depth": int(sharding.get("subtree_depth", 1)),
        "transport": str(sharding.get("transport", "pipe")),
    }
    options = sharding.get("transport_options")
    out["transport_options"] = None if options is None else dict(options)
    if out["workers"] < 1:
        raise ConfigurationError(
            f"sharding.workers must be >= 1, got {out['workers']}"
        )
    if out["subtree_shards"] < 1:
        raise ConfigurationError(
            f"sharding.subtree_shards must be >= 1, got {out['subtree_shards']}"
        )
    if out["subtree_depth"] < 1:
        raise ConfigurationError(
            f"sharding.subtree_depth must be >= 1, got {out['subtree_depth']}"
        )
    if out["transport"] not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown sharding.transport {out['transport']!r}; "
            f"known transports: {sorted(TRANSPORTS)}"
        )
    return out


class ShardedSessionAdapter:
    """One sharded tenant, wearing the ``DetectionSession`` interface."""

    #: The manager checks this before offering shadow operations.
    has_shadow = False

    def __init__(self, engine: ShardedDetectionEngine, name: str, config):
        self._engine = engine
        self.name = name
        self.config = config

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "ShardedSessionAdapter":
        """Fresh sharded tenant from its :class:`TenantSpec`."""
        sharding = validate_sharding(spec.sharding)
        engine = ShardedDetectionEngine(
            num_workers=sharding["workers"],
            transport=sharding["transport"],
            transport_options=sharding["transport_options"],
        )
        engine.add_session(
            spec.name,
            spec.tree,
            spec.config,
            algorithm=spec.algorithm,
            clock=spec.clock,
            warmup_units=spec.warmup_units,
            max_results=spec.max_results,
            subtree_shards=sharding["subtree_shards"],
            subtree_depth=sharding["subtree_depth"],
        )
        return cls(engine, spec.name, spec.config)

    @classmethod
    def from_session_state(
        cls, state: Mapping[str, Any], sharding: Mapping[str, Any]
    ) -> "ShardedSessionAdapter":
        """Resume a sharded tenant from a serial-format session state.

        The state may come from a serial tenant's checkpoint — the formats
        are interchangeable — but a state carrying a shadow experiment is
        refused with :class:`~repro.engine.shadow.ShadowStateError` (stop or
        promote the shadow under a serial activation first).
        """
        sharding = validate_sharding(sharding)
        engine = ShardedDetectionEngine(
            num_workers=sharding["workers"],
            transport=sharding["transport"],
            transport_options=sharding["transport_options"],
        )
        engine.attach_session_state(
            state,
            subtree_shards=sharding["subtree_shards"],
            subtree_depth=sharding["subtree_depth"],
        )
        name = str(state["name"])
        return cls(engine, name, config_from_dict(state["config"]))

    # ------------------------------------------------------------------
    # Session surface consumed by the manager / metrics
    # ------------------------------------------------------------------
    def ingest_record_batch(self, batch) -> list[TimeunitResult]:
        return self._engine.ingest_record_batch(batch)[self.name]

    def flush(self) -> list[TimeunitResult]:
        return self._engine.flush()[self.name]

    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        return self._engine.subscribe(observer)

    def unsubscribe(self, observer: EngineObserver) -> None:
        self._engine.unsubscribe(observer)

    @property
    def units_processed(self) -> int:
        return self._engine.units_processed()[self.name]

    @property
    def anomalies(self):
        return self._engine.anomalies()[self.name]

    @property
    def open_timeunit(self) -> "int | None":
        return self._engine.open_timeunits()[self.name]

    def memory_units(self) -> int:
        return self._engine.memory_units()

    def stage_seconds(self) -> dict[str, float]:
        return self._engine.stage_seconds()[self.name]

    def adaptation_stats(self) -> dict[str, Any]:
        return self._engine.adaptation_stats()[self.name]

    def close_profile(self) -> dict[str, Any]:
        return self._engine.close_profile()[self.name]

    def sharding_info(self) -> dict[str, Any]:
        """Shard layout + transport block surfaced in ``/metrics``."""
        info = self._engine.sharding_info()
        return {
            "transport": info["transport"],
            "num_workers": info["num_workers"],
            "session": info["sessions"][self.name],
            "supervision": info.get("supervision"),
            "transport_stats": self._engine.transport_stats(),
        }

    @property
    def recovering(self) -> bool:
        """True while a failed worker is being respawned/replayed."""
        return self._engine.recovering

    @property
    def recoveries_total(self) -> int:
        return self._engine.recoveries_total

    @property
    def replayed_batches_total(self) -> int:
        return self._engine.replayed_batches_total

    def rebalance(self, churn_threshold: float = 2.0) -> dict[str, Any]:
        """Churn-driven shard rebalancing for this tenant (state-preserving)."""
        return self._engine.rebalance_session(
            self.name, churn_threshold=churn_threshold
        )

    # ------------------------------------------------------------------
    # Checkpointing / lifecycle
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Merged *serial-format* session state (checkpoint-compatible)."""
        return self._engine.merged_session_state(self.name)

    def close(self) -> None:
        self._engine.close()

    # ------------------------------------------------------------------
    # Unsupported session features — typed, explicit
    # ------------------------------------------------------------------
    def reconfigure(self, config) -> None:
        raise ConfigurationError(
            f"tenant {self.name!r} is sharded; online reconfiguration is not "
            f"supported for sharded tenants — checkpoint, edit the spec and "
            f"reactivate instead"
        )

    def start_shadow(self, config) -> None:
        raise ConfigurationError(
            f"tenant {self.name!r} is sharded; shadow experiments require an "
            f"in-process session — run the candidate config on a serial tenant"
        )

    def stop_shadow(self) -> dict[str, Any]:
        raise ConfigurationError(
            f"tenant {self.name!r} is sharded and has no shadow experiment"
        )

    def promote_shadow(self) -> dict[str, Any]:
        raise ConfigurationError(
            f"tenant {self.name!r} is sharded and has no shadow experiment"
        )

    def shadow_report(self) -> dict[str, Any]:
        raise ConfigurationError(
            f"tenant {self.name!r} is sharded and has no shadow experiment"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardedSessionAdapter(name={self.name!r})"
