"""Service configuration: tenants, ports, queues, checkpoint cadence.

A :class:`ServiceConfig` describes one daemon deployment — which *tenants*
(named detection sessions) it serves, where their checkpoints live and how
often they roll, the bounded-queue sizes that define backpressure, and the
network endpoints.  It is a frozen dataclass with a JSON file representation
(``ServiceConfig.from_file``) so the same document drives ``repro-serve``,
``python -m repro.service`` and the test harnesses.

Tenant detector state (hierarchy, :class:`~repro.core.config.TiresiasConfig`,
clock) reuses the exact serializers of :mod:`repro.io.checkpoint`, so a
service config file and a checkpoint file agree byte-for-byte on how a
configuration is spelled.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.config import TiresiasConfig
from repro.core.registry import ALGORITHMS
from repro.exceptions import CheckpointError, ConfigurationError
from repro.hierarchy.tree import HierarchyTree
from repro.io.checkpoint import (
    clock_from_dict,
    clock_to_dict,
    config_from_dict,
    config_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.streaming.clock import SimulationClock

#: Tenant names double as checkpoint file stems and URL query values, so the
#: grammar is deliberately conservative.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def validate_tenant_name(name: str) -> str:
    """``name`` if it is a legal tenant name, else :class:`ConfigurationError`."""
    if not _TENANT_NAME.match(name):
        raise ConfigurationError(
            f"invalid tenant name {name!r}: must match {_TENANT_NAME.pattern} "
            f"(it names checkpoint files and URL parameters)"
        )
    return name


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to start one tenant's detection session from scratch.

    A tenant is one named :class:`~repro.engine.session.DetectionSession`:
    its hierarchical domain, detector configuration, algorithm and clock.
    The spec is only consulted for a *fresh* start — once the tenant has a
    checkpoint on disk, activation resumes from the checkpoint (which is
    self-contained) and the spec's detector fields are ignored.
    """

    name: str
    tree: HierarchyTree
    config: TiresiasConfig
    algorithm: str = "ada"
    clock: SimulationClock | None = None
    warmup_units: int | None = None
    #: Bounded result retention — an always-on tenant must not grow its
    #: ``results`` list without bound; consumers use hooks and ``/metrics``.
    max_results: int | None = 256
    #: Optional scale-out block: when set, the tenant is backed by a
    #: :class:`~repro.engine.sharded.ShardedDetectionEngine` instead of an
    #: in-process session.  Keys: ``workers``, ``subtree_shards``,
    #: ``transport`` (``pipe``/``shm``/``tcp``), ``transport_options``.
    #: Detections and checkpoints stay bit-identical to a serial tenant.
    sharding: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        validate_tenant_name(self.name)
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r} for tenant {self.name!r}; "
                f"known algorithms: {sorted(ALGORITHMS)}"
            )
        if self.sharding is not None:
            from repro.service.sharded_adapter import validate_sharding

            object.__setattr__(self, "sharding", validate_sharding(self.sharding))

    def build_session(self):
        """A fresh :class:`~repro.engine.session.DetectionSession` for this tenant."""
        from repro.engine.session import DetectionSession

        return DetectionSession(
            self.tree,
            self.config,
            algorithm=self.algorithm,
            clock=self.clock,
            warmup_units=self.warmup_units,
            name=self.name,
            max_results=self.max_results,
        )

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "name": self.name,
            "algorithm": self.algorithm,
            "warmup_units": self.warmup_units,
            "max_results": self.max_results,
            "tree": tree_to_dict(self.tree),
            "config": config_to_dict(self.config),
            "clock": None if self.clock is None else clock_to_dict(self.clock),
        }
        if self.sharding is not None:
            doc["sharding"] = dict(self.sharding)
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        try:
            warmup = data.get("warmup_units")
            max_results = data.get("max_results", 256)
            clock = data.get("clock")
            sharding = data.get("sharding")
            return cls(
                name=str(data["name"]),
                tree=tree_from_dict(data["tree"]),
                config=config_from_dict(data["config"]),
                algorithm=str(data.get("algorithm", "ada")),
                clock=None if clock is None else clock_from_dict(clock),
                warmup_units=None if warmup is None else int(warmup),
                max_results=None if max_results is None else int(max_results),
                sharding=None if sharding is None else dict(sharding),
            )
        except (CheckpointError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed tenant spec: {exc!r}") from exc


@dataclass(frozen=True)
class ServiceConfig:
    """One daemon deployment: tenants + endpoints + queues + checkpoints."""

    tenants: tuple[TenantSpec, ...]
    checkpoint_dir: Path
    host: str = "127.0.0.1"
    #: HTTP port; 0 binds an ephemeral port (reported in the ready file).
    port: int = 8787
    #: Raw TCP NDJSON ingest port; ``None`` disables the socket path,
    #: 0 binds ephemeral.
    socket_port: int | None = None
    #: Rolling checkpoint cadence in seconds; 0 disables the timer (explicit
    #: ``POST /checkpoint`` and graceful shutdown still checkpoint).
    checkpoint_interval: float = 30.0
    #: Rolling checkpoints kept per tenant (primary plus ``.1`` ... ``.N-1``
    #: predecessors).  A corrupt newest checkpoint is quarantined on
    #: activation and the newest valid predecessor loads instead.
    checkpoint_retention: int = 3
    #: Bound of the ingest queue, in batches.  A full queue is the
    #: backpressure signal: HTTP ingestion returns 429, the socket path
    #: stops reading.
    queue_max_batches: int = 64
    #: Target rows per :class:`~repro.streaming.batch.RecordBatch` built by
    #: the ingestion front ends.
    ingest_batch_size: int = 4096
    #: LRU cap on concurrently materialized sessions; ``None`` = unlimited.
    #: Excess tenants are evicted to their checkpoint and lazily reactivated.
    max_active_sessions: int | None = None
    #: Tenant used for records/requests that name none.  Defaults to the
    #: single tenant when exactly one is configured.
    default_tenant: str | None = None
    #: Anomaly egress: append one JSON line per anomaly to this file.
    alert_jsonl_path: Path | None = None
    #: Anomaly egress: POST each anomaly to this URL (best-effort stub).
    webhook_url: str | None = None

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate tenant names: {dupes}")
        if self.queue_max_batches < 1:
            raise ConfigurationError("queue_max_batches must be >= 1")
        if self.ingest_batch_size < 1:
            raise ConfigurationError("ingest_batch_size must be >= 1")
        if self.max_active_sessions is not None and self.max_active_sessions < 1:
            raise ConfigurationError("max_active_sessions must be >= 1 or None")
        if self.checkpoint_interval < 0:
            raise ConfigurationError("checkpoint_interval must be >= 0")
        if self.checkpoint_retention < 1:
            raise ConfigurationError("checkpoint_retention must be >= 1")
        if self.default_tenant is None and len(self.tenants) == 1:
            object.__setattr__(self, "default_tenant", self.tenants[0].name)
        if self.default_tenant is not None and self.default_tenant not in names:
            raise ConfigurationError(
                f"default_tenant {self.default_tenant!r} is not a configured "
                f"tenant: {sorted(names)}"
            )
        object.__setattr__(self, "checkpoint_dir", Path(self.checkpoint_dir))
        if self.alert_jsonl_path is not None:
            object.__setattr__(self, "alert_jsonl_path", Path(self.alert_jsonl_path))

    def spec(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"no tenant named {name!r}")

    def replace(self, **changes: Any) -> "ServiceConfig":
        """A copy with the given fields replaced (CLI flag overrides)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "socket_port": self.socket_port,
            "checkpoint_dir": str(self.checkpoint_dir),
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoint_retention": self.checkpoint_retention,
            "queue_max_batches": self.queue_max_batches,
            "ingest_batch_size": self.ingest_batch_size,
            "max_active_sessions": self.max_active_sessions,
            "default_tenant": self.default_tenant,
            "alert_jsonl_path": (
                None if self.alert_jsonl_path is None else str(self.alert_jsonl_path)
            ),
            "webhook_url": self.webhook_url,
            "tenants": [spec.to_dict() for spec in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        try:
            socket_port = data.get("socket_port")
            max_active = data.get("max_active_sessions")
            alert_path = data.get("alert_jsonl_path")
            default_tenant = data.get("default_tenant")
            return cls(
                tenants=tuple(
                    TenantSpec.from_dict(spec) for spec in data.get("tenants", ())
                ),
                checkpoint_dir=Path(data["checkpoint_dir"]),
                host=str(data.get("host", "127.0.0.1")),
                port=int(data.get("port", 8787)),
                socket_port=None if socket_port is None else int(socket_port),
                checkpoint_interval=float(data.get("checkpoint_interval", 30.0)),
                checkpoint_retention=int(data.get("checkpoint_retention", 3)),
                queue_max_batches=int(data.get("queue_max_batches", 64)),
                ingest_batch_size=int(data.get("ingest_batch_size", 4096)),
                max_active_sessions=None if max_active is None else int(max_active),
                default_tenant=None if default_tenant is None else str(default_tenant),
                alert_jsonl_path=None if alert_path is None else Path(alert_path),
                webhook_url=(
                    None if data.get("webhook_url") is None else str(data["webhook_url"])
                ),
            )
        except ConfigurationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed service config: {exc!r}") from exc

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "ServiceConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read service config {path}: {exc}") from exc
        return cls.from_dict(data)
