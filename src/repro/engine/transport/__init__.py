"""Pluggable shard transports for :class:`repro.engine.sharded`.

Three carriers of one frame format (:mod:`~repro.engine.transport.wire`:
record-batch columns ship as raw little-endian buffers, only command
skeletons are pickled), one contract
(:class:`~repro.engine.transport.base.ShardTransport`):

``"pipe"``
    Frames sent over duplex ``multiprocessing`` pipes.  The default.
``"shm"``
    Frames written into ``multiprocessing.shared_memory`` segments the
    worker maps zero-copy; the pipe carries only a notify.
``"tcp"``
    Frames length-prefixed over sockets; workers may live in other
    processes or on other hosts (``examples/remote_workers.py``).

All three execute verbs through :mod:`repro.engine.shard_worker`, so
detections, reports and checkpoint bytes are identical across transports —
the CI ``sharded-transports`` job asserts it.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.engine.transport.base import ShardTransport
from repro.engine.transport.pipe import PipeTransport
from repro.engine.transport.shm import SharedMemoryTransport
from repro.engine.transport.tcp import TcpTransport, run_worker
from repro.exceptions import ConfigurationError

TRANSPORTS: dict[str, type] = {
    "pipe": PipeTransport,
    "shm": SharedMemoryTransport,
    "tcp": TcpTransport,
}

__all__ = [
    "ShardTransport",
    "PipeTransport",
    "SharedMemoryTransport",
    "TcpTransport",
    "TRANSPORTS",
    "make_transport",
    "run_worker",
]


def make_transport(
    spec: "str | ShardTransport",
    options: "Mapping[str, Any] | None" = None,
) -> ShardTransport:
    """Build a transport from a name (plus options) or pass one through."""
    if isinstance(spec, ShardTransport):
        if options:
            raise ConfigurationError(
                "transport_options require a transport name, not an instance"
            )
        return spec
    try:
        cls = TRANSPORTS[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown shard transport {spec!r}; available: "
            f"{sorted(TRANSPORTS)}"
        ) from None
    try:
        return cls(**dict(options or {}))
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid options for shard transport {spec!r}: {exc}"
        ) from exc
