"""The :class:`ShardTransport` contract shared by every shard transport.

A transport moves coordinator verbs to shard workers and replies back —
nothing more.  Verb *semantics* live in :mod:`repro.engine.shard_worker`;
the engine only ever calls :meth:`connect` / :meth:`ship` / :meth:`collect`
/ :meth:`close`, so transports are interchangeable and the sharded engine's
bit-identical-to-serial guarantee holds for all of them (the CI
``sharded-transports`` job asserts exactly that).

The engine's protocol is strict request/reply per worker: after
:meth:`ship`\\ ping to a worker it always :meth:`collect`\\ s that worker's
reply before shipping to it again (different workers may be on different
rounds; no channel ever holds two commands).  Transports may rely on this
(the shared-memory transport reuses one segment per worker because of it).

Supervision surface
-------------------
Every operation is *bounded*: :meth:`collect` takes an optional per-op
deadline and transports convert dead peers, torn channels and expired
deadlines into a typed, picklable
:class:`~repro.exceptions.WorkerFailureError` instead of blocking forever.
:meth:`is_alive` / :meth:`kill_worker` / :meth:`respawn` give the
:class:`~repro.engine.supervisor.ShardSupervisor` the levers for exact
recovery: a respawned worker gets a *fresh* channel (including a reset
delta-dictionary encoder where applicable) and the coordinator rebuilds its
state from snapshots.  Close paths escalate ``join(timeout)`` →
``terminate()`` → ``kill()`` so no shutdown leaks zombie processes; the
escalations are counted in :meth:`stats`.

Byte accounting
---------------
Each transport tracks two ship-side byte counters:

``ship_bytes``
    Total payload bytes handed to the OS (frames, pickles, notifies).
``ship_serialized_bytes``
    Bytes that passed through a serializer (``pickle``).  All three
    transports ship ``RecordBatch`` columns — timestamps, category codes and
    still-encoded attribute rows — as raw little-endian buffers of one
    :mod:`~repro.engine.transport.wire` frame and serialize only the
    operation skeleton (plus, for NDJSON-born batches, their decoded
    attribute rows), so this is a small fraction of ``ship_bytes``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.exceptions import ShardingError, WorkerFailureError


class ShardTransport:
    """Abstract coordinator<->worker byte mover (see module docstring)."""

    name = "base"

    def __init__(self) -> None:
        self.ships = 0
        self.collects = 0
        self.ship_bytes = 0
        self.ship_serialized_bytes = 0
        self.collect_bytes = 0
        self.ship_seconds = 0.0
        self.collect_seconds = 0.0
        # Supervision / shutdown-hygiene counters.
        self.respawns = 0
        self.zombies_terminated = 0
        self.zombies_killed = 0

    # -- lifecycle ------------------------------------------------------
    def connect(self, num_workers: int) -> None:
        """Start (or accept) ``num_workers`` workers and open channels."""
        raise NotImplementedError

    def ship(
        self, worker_id: int, verb: str, ops: Any, *, corrupt: bool = False
    ) -> None:
        """Send one ``(verb, ops)`` command to ``worker_id``.

        ``corrupt=True`` deliberately mangles the payload bytes on the way
        out — the seam the ``corrupt_frame`` fault injection uses; the
        receiver must detect the damage (checksum / unpickling failure) and
        die loudly rather than process garbage.
        """
        raise NotImplementedError

    def collect(self, worker_id: int, timeout: "float | None" = None) -> tuple:
        """Receive ``worker_id``'s ``(status, payload)`` reply.

        Blocking when ``timeout`` is None; otherwise bounded, raising
        :class:`~repro.exceptions.WorkerFailureError` if no reply lands
        within ``timeout`` seconds or the worker dies first.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Stop workers / close channels.  Idempotent."""
        raise NotImplementedError

    # -- supervision ----------------------------------------------------
    def is_alive(self, worker_id: int) -> "bool | None":
        """Liveness of the worker process; ``None`` when unknowable
        (e.g. external TCP workers on another host)."""
        return None

    def kill_worker(self, worker_id: int) -> None:
        """Forcibly take the worker down (process kill or channel sever).

        Used by the supervisor to guarantee a half-dead worker is fully
        dead before :meth:`respawn`, and by fault injection to simulate
        crashes.  Must be idempotent and must not raise on an already-dead
        worker.
        """
        raise ShardingError(
            f"transport {self.name!r} does not support killing workers"
        )

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh one on a fresh channel.

        The replacement starts *empty*: the caller (the supervisor) is
        responsible for rebuilding its shard units.  Transports with
        per-channel delta dictionaries reset the channel's encoder here so
        coordinator and worker mirrors restart in sync.
        """
        raise ShardingError(
            f"transport {self.name!r} does not support respawning workers"
        )

    # -- accounting -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Cumulative transfer counters (see module docstring)."""
        return {
            "transport": self.name,
            "ships": self.ships,
            "collects": self.collects,
            "ship_bytes": self.ship_bytes,
            "ship_serialized_bytes": self.ship_serialized_bytes,
            "collect_bytes": self.collect_bytes,
            "ship_seconds": self.ship_seconds,
            "collect_seconds": self.collect_seconds,
            "respawns": self.respawns,
            "zombies_terminated": self.zombies_terminated,
            "zombies_killed": self.zombies_killed,
        }

    def _note_ship(self, nbytes: int, serialized: int, seconds: float) -> None:
        self.ships += 1
        self.ship_bytes += nbytes
        self.ship_serialized_bytes += serialized
        self.ship_seconds += seconds

    def _note_collect(self, nbytes: int, seconds: float) -> None:
        self.collects += 1
        self.collect_bytes += nbytes
        self.collect_seconds += seconds

    def _dead(
        self, worker_id: int, exc: BaseException, op: str = "command"
    ) -> WorkerFailureError:
        return WorkerFailureError(
            worker_id, op, f"channel failed ({exc!r})"
        )

    def _reap(self, process: Any, timeout: float = 5.0) -> None:
        """Join a worker process, escalating terminate → kill; never hangs.

        The escalation counters surface in :meth:`stats` (and from there in
        ``/metrics``), so leaked-zombie pressure is observable.
        """
        if process is None:
            return
        process.join(timeout=timeout)
        if not process.is_alive():
            return
        process.terminate()
        process.join(timeout=timeout)
        if not process.is_alive():
            self.zombies_terminated += 1
            return
        process.kill()
        process.join(timeout=timeout)
        self.zombies_killed += 1

    @staticmethod
    def _mangle(data: bytes) -> bytes:
        """Deterministically corrupt a payload (``corrupt_frame`` faults).

        Flips the first byte and a middle byte: the first-byte flip breaks
        the frame magic / pickle protocol marker, the mid-byte flip damages
        the body, so detection is guaranteed on every transport.
        """
        if not data:
            return data
        corrupted = bytearray(data)
        corrupted[0] ^= 0xFF
        corrupted[len(corrupted) // 2] ^= 0xFF
        return bytes(corrupted)

    @staticmethod
    def _clock() -> float:
        return time.perf_counter()
