"""In-process pipe transport: one duplex pipe per forked/spawned worker.

This is the default transport.  Every command is encoded with the
:mod:`~repro.engine.transport.wire` frame format and sent over a
``multiprocessing`` pipe: record-batch columns (timestamps, category codes,
still-encoded attribute rows) travel as raw little-endian buffers the worker
wraps without copying, category dictionaries as per-channel deltas, and only
the small command skeleton goes through pickle.  Replies come back pickled:
they are small (closed timeunit results, state dicts at checkpoint time) and
carry no record columns.  The shared-memory transport moves the same frames
through a segment instead of the pipe; the TCP transport through a socket.

Supervision: :meth:`collect` accepts a per-operation deadline and polls the
pipe in short slices, checking worker liveness between slices, so a dead or
wedged worker surfaces as a typed
:class:`~repro.exceptions.WorkerFailureError` instead of a hang.
:meth:`kill_worker` / :meth:`respawn` replace a worker in place (fresh
process, fresh pipe, fresh delta-dictionary encoder, same worker id) for the
supervisor's exact-recovery path, and :meth:`close` escalates ``join`` →
``terminate`` → ``kill`` so a wedged worker can never block shutdown.  Every
frame carries a crc32, so a corrupted one is detected worker-side and fails
loudly rather than feeding garbage into a session.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Any, Callable

from repro.engine.shard_worker import handle_message
from repro.engine.transport.base import ShardTransport
from repro.engine.transport.wire import (
    DictDecoder,
    DictEncoder,
    decode_frame,
    encode_frame,
)
from repro.exceptions import ShardingError, WorkerFailureError

#: Poll slice while waiting under a collect deadline; short enough that
#: worker death is noticed promptly, long enough to stay off the CPU.
_POLL_SLICE = 0.05


def pipe_worker_main(
    conn, worker_id: int, frame_of: "Callable[[bytes], Any] | None" = None
) -> None:  # pragma: no cover - subprocess
    """Worker loop: executes coordinator commands until told to stop.

    ``frame_of`` maps a received pipe message to the frame's buffer (the
    shared-memory transport resolves a notify to its segment); by default
    the message *is* the frame.
    """
    units: dict[Any, Any] = {}
    decoder = DictDecoder()  # cumulative delta-dictionary mirror (see wire.py)
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        frame = data if frame_of is None else frame_of(data)
        verb, ops = decode_frame(frame, decoder)
        reply = ("ok", None)
        if verb != "stop":
            reply = handle_message(units, verb, ops, worker_id=worker_id)
        # Decoded columns are views into the frame; drop them before
        # acknowledging so the coordinator is free to reuse its buffer.
        del ops, frame
        try:
            conn.send_bytes(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        except (BrokenPipeError, OSError):
            return
        if verb == "stop":
            return


class PipeTransport(ShardTransport):
    """Wire frames over one duplex pipe per worker (the default)."""

    name = "pipe"

    #: Worker entry point; subclasses swap in their own loop and inherit the
    #: spawn/supervision machinery unchanged.
    _worker_main = staticmethod(pipe_worker_main)

    def __init__(self) -> None:
        super().__init__()
        self._procs: "list[Any] | None" = None
        self._conns: "list[Any] | None" = None
        self._start_method: "str | None" = None
        self._encoders: list[DictEncoder] = []

    def _spawn_worker(self, ctx, worker_id: int) -> tuple:
        """Start one worker process; returns ``(process, parent_conn)``."""
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=type(self)._worker_main,
            args=(child_conn, worker_id),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def connect(self, num_workers: int, start_method: "str | None" = None) -> None:
        self._start_method = start_method
        ctx = multiprocessing.get_context(start_method)
        self._procs, self._conns = [], []
        self._encoders = [DictEncoder() for _ in range(num_workers)]
        for worker_id in range(num_workers):
            process, conn = self._spawn_worker(ctx, worker_id)
            self._procs.append(process)
            self._conns.append(conn)

    def ship(
        self, worker_id: int, verb: str, ops: Any, *, corrupt: bool = False
    ) -> None:
        start = self._clock()
        data, serialized = encode_frame((verb, ops), self._encoders[worker_id])
        if corrupt:
            data = self._mangle(data)
        try:
            self._conns[worker_id].send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(worker_id, exc, "ship") from exc
        self._note_ship(len(data), serialized, self._clock() - start)

    def collect(self, worker_id: int, timeout: "float | None" = None) -> tuple:
        start = self._clock()
        conn = self._conns[worker_id]
        if timeout is not None:
            deadline = start + timeout
            try:
                while not conn.poll(_POLL_SLICE):
                    alive = self.is_alive(worker_id)
                    # A dead worker may still have flushed its final reply
                    # into the pipe; only fail once the pipe is drained too.
                    if alive is False and not conn.poll(0):
                        raise self._dead(
                            worker_id, EOFError("worker process exited"), "collect"
                        )
                    if self._clock() >= deadline:
                        raise WorkerFailureError(
                            worker_id,
                            "collect",
                            f"no reply within the {timeout:.3f}s deadline",
                        )
            except (OSError, ValueError) as exc:
                raise self._dead(worker_id, exc, "collect") from exc
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._dead(worker_id, exc, "collect") from exc
        self._note_collect(len(data), self._clock() - start)
        return pickle.loads(data)

    # -- supervision ----------------------------------------------------
    def is_alive(self, worker_id: int) -> "bool | None":
        if self._procs is None:
            return False
        process = self._procs[worker_id]
        return process is not None and process.is_alive()

    def kill_worker(self, worker_id: int) -> None:
        if self._procs is None:
            return
        process = self._procs[worker_id]
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)
        # Sever the channel so in-flight ships/collects fail fast instead of
        # buffering against a corpse.
        try:
            self._conns[worker_id].close()
        except OSError:  # pragma: no cover - already closed
            pass

    def respawn(self, worker_id: int, start_method: "str | None" = None) -> None:
        if self._procs is None:
            raise ShardingError("transport is not connected; cannot respawn")
        self.kill_worker(worker_id)
        ctx = multiprocessing.get_context(start_method or self._start_method)
        process, conn = self._spawn_worker(ctx, worker_id)
        self._procs[worker_id] = process
        self._conns[worker_id] = conn
        # The replacement starts with an empty delta-dictionary mirror.
        self._encoders[worker_id] = DictEncoder()
        self.respawns += 1

    def close(self) -> None:
        if self._procs is None:
            return
        for worker_id in range(len(self._conns)):
            try:
                self.ship(worker_id, "stop", None)
            except WorkerFailureError:
                pass
        for process, conn in zip(self._procs, self._conns):
            # Bounded wait for the stop ack — a wedged worker must not be
            # able to hang shutdown; _reap escalates to terminate/kill.
            try:
                if conn.poll(5):
                    conn.recv_bytes()
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._reap(process)
        self._procs = None
        self._conns = None
