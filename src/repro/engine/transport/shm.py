"""Shared-memory transport: zero-copy batch shipping through ``shm`` rings.

Commands are encoded with the :mod:`~repro.engine.transport.wire` frame
format into one ``multiprocessing.shared_memory`` segment per worker; the
control pipe carries only a tiny pickled notify ``(segment name, frame
length)``.  The worker maps the same segment and wraps the batch columns
with ``numpy.frombuffer`` straight out of the mapping: record timestamps and category codes cross the process boundary
without ever being pickled or copied coordinator-side.

The engine's request/reply protocol is strict *per channel*, not per
round — the streaming coordinator loop lets workers be on different rounds,
but never has more than one command in flight to any one worker — and that
is what makes a single reusable segment per worker safe: the coordinator
only rewrites a segment after collecting the reply to the previous frame,
by which point the worker has fully consumed it.  Segments
grow by replacement — a too-small segment is unlinked and a doubled one
created; the worker notices the new name in the notify and re-attaches.

Replies flow back pickled over the control pipe: they are small (closed
timeunit results, state dicts at checkpoint time) and carry no record
columns.

Everything else — the worker loop, the per-channel delta-dictionary
encoders, supervision (deadline-aware collects, kill/respawn, escalating
shutdown) — is inherited from
:class:`~repro.engine.transport.pipe.PipeTransport`, which sends the same
frames through the pipe itself.  Every frame carries a crc32 (see
:mod:`~repro.engine.transport.wire`), so a corrupted segment is detected
worker-side and fails loudly rather than feeding garbage into a session.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory
from typing import Any

from repro.engine.transport.pipe import PipeTransport, pipe_worker_main
from repro.engine.transport.wire import encode_frame

#: Initial per-worker segment size; grows by doubling when a frame exceeds it.
DEFAULT_SEGMENT_BYTES = 1 << 20


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-owned segment without tracker side effects.

    ``SharedMemory(name=...)`` registers the mapping with the attaching
    process' resource tracker, which would unlink coordinator-owned
    segments (and warn) when the worker exits.  The coordinator is the
    sole owner, so registration is suppressed for the attach (the 3.13
    ``track=False`` flag, backported by monkeypatch; the tracker API is
    internal but this is the standard recipe for 3.8-3.12)."""
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _SegmentReader:
    """Worker-side view of the coordinator's segment: resolves each notify
    to the frame's bytes inside the (re-attached on rename) mapping."""

    def __init__(self) -> None:
        self._attached: "tuple[str, shared_memory.SharedMemory] | None" = None

    def frame(self, notify: bytes):
        _, segment_name, frame_len = pickle.loads(notify)
        if self._attached is None or self._attached[0] != segment_name:
            self.close()
            self._attached = (segment_name, _attach_untracked(segment_name))
        return self._attached[1].buf[:frame_len]

    def close(self) -> None:
        if self._attached is not None:
            try:
                self._attached[1].close()
            except BufferError:  # pragma: no cover - lingering views
                pass
            self._attached = None


def _shm_worker_main(conn, worker_id: int) -> None:  # pragma: no cover - subprocess
    """Worker loop: decode frames out of the shared segment, reply by pipe."""
    segments = _SegmentReader()
    try:
        pipe_worker_main(conn, worker_id, segments.frame)
    finally:
        segments.close()


class SharedMemoryTransport(PipeTransport):
    """Frame commands through per-worker shared-memory segments."""

    name = "shm"

    _worker_main = staticmethod(_shm_worker_main)

    def __init__(self, segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        super().__init__()
        self._segment_bytes = max(int(segment_bytes), 4096)
        self._segments: "list[shared_memory.SharedMemory | None]" = []

    def connect(self, num_workers: int) -> None:
        self._segments = [None] * num_workers
        super().connect(num_workers)

    def ship(
        self, worker_id: int, verb: str, ops: Any, *, corrupt: bool = False
    ) -> None:
        start = self._clock()
        frame, serialized = encode_frame((verb, ops), self._encoders[worker_id])
        if corrupt:
            frame = self._mangle(frame)
        segment = self._segments[worker_id]
        if segment is None or segment.size < len(frame):
            wanted = max(
                len(frame),
                self._segment_bytes,
                0 if segment is None else 2 * segment.size,
            )
            if segment is not None:
                self._drop_segment(segment)
            segment = shared_memory.SharedMemory(create=True, size=wanted)
            self._segments[worker_id] = segment
        segment.buf[: len(frame)] = frame
        notify = pickle.dumps(
            ("frame", segment.name, len(frame)), protocol=pickle.HIGHEST_PROTOCOL
        )
        try:
            self._conns[worker_id].send_bytes(notify)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(worker_id, exc, "ship") from exc
        # Only the notify and the frame's skeleton pass through pickle; the
        # batch columns live in the segment as raw buffers.
        self._note_ship(
            len(frame) + len(notify), serialized + len(notify),
            self._clock() - start,
        )

    @staticmethod
    def _drop_segment(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - lingering views
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        super().close()
        for segment in self._segments:
            if segment is not None:
                self._drop_segment(segment)
        self._segments = []
