"""TCP transport: length-prefixed wire frames over sockets.

The coordinator listens on ``host:port`` (port 0 picks a free one) and
waits for ``num_workers`` workers to dial in.  Both directions carry
:mod:`~repro.engine.transport.wire` frames prefixed with a ``<Q`` length,
so batch columns cross the socket as raw little-endian buffers and only
command skeletons are pickled — same byte discipline as the shared-memory
transport, minus the shared mapping.

Two modes:

* **self-spawn** (default): :meth:`connect` forks/spawns the workers
  locally, exactly like the other transports — useful to exercise the
  framing and for single-host deployments.
* **external** (``spawn_workers=False``): the coordinator only listens;
  workers are started elsewhere (other processes, other hosts) with
  :func:`run_worker` — see ``examples/remote_workers.py``, which the CI
  smoke job runs cross-process on localhost.

Worker ids are assigned in connection-arrival order.  That order is
nondeterministic, but shard placement affects only *where* a unit runs,
never its results — the engine's merge discipline is id-independent.

Supervision: every ship and collect runs under a socket deadline, so a
dead or black-holed remote surfaces as a typed
:class:`~repro.exceptions.WorkerFailureError` instead of blocking the
coordinator forever.  :meth:`kill_worker` severs a worker's connection
(the portable "kill" for a peer that may live on another host) and
:meth:`respawn` re-accepts a replacement on the retained listener with a
capped-exponential accept loop — self-spawn mode dials the replacement
itself; external mode waits for the operator (or orchestrator) to start
one.  Frames carry a crc32, so corruption on the wire fails loudly
worker-side.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import time
from typing import Any

from repro.engine.shard_worker import handle_message
from repro.engine.transport.base import ShardTransport
from repro.engine.transport.wire import (
    DictDecoder,
    DictEncoder,
    decode_frame,
    encode_frame,
)
from repro.exceptions import ShardingError, WorkerFailureError

_LEN = struct.Struct("<Q")


def _recv_exact(
    sock: socket.socket, nbytes: int, deadline: "float | None" = None
) -> bytes:
    """Read exactly ``nbytes``, honouring an absolute monotonic deadline.

    The deadline bounds the *whole* read, not each chunk, so a peer
    trickling bytes cannot stretch one logical receive indefinitely.
    """
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("shard reply deadline expired")
            sock.settimeout(remaining)
        n = sock.recv_into(view[got:], nbytes - got)
        if n == 0:
            raise EOFError("peer closed the shard connection")
        got += n
    return bytes(buf)


def send_frame(
    sock: socket.socket, obj: Any, encoder: "DictEncoder | None" = None
) -> tuple[int, int]:
    """Ship one framed object; returns (wire bytes, serialized bytes)."""
    frame, serialized = encode_frame(obj, encoder)
    sock.sendall(_LEN.pack(len(frame)) + frame)
    return _LEN.size + len(frame), _LEN.size + serialized


def recv_frame(
    sock: socket.socket,
    decoder: "DictDecoder | None" = None,
    deadline: "float | None" = None,
) -> tuple[Any, int]:
    """Receive one framed object; returns (object, wire bytes)."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size, deadline))
    data = _recv_exact(sock, length, deadline)
    return decode_frame(data, decoder), _LEN.size + length


def serve_connection(sock: socket.socket, worker_id: "int | None" = None) -> None:
    """Serve one coordinator connection until a stop verb or disconnect."""
    units: dict[Any, Any] = {}
    decoder = DictDecoder()  # cumulative delta-dictionary mirror (see wire.py)
    while True:
        try:
            (verb, ops), _ = recv_frame(sock, decoder)
        except (EOFError, ConnectionError, OSError):
            return
        if verb == "stop":
            try:
                send_frame(sock, ("ok", None))
            except OSError:
                pass
            return
        reply = handle_message(units, verb, ops, worker_id=worker_id)
        try:
            send_frame(sock, reply)
        except OSError:
            return


def run_worker(
    host: str,
    port: int,
    *,
    retries: int = 40,
    retry_delay: float = 0.25,
    worker_id: "int | None" = None,
) -> None:
    """Dial a sharded-engine coordinator and serve until stopped.

    This is the remote-worker entry point (``examples/remote_workers.py``
    wraps it in a CLI): run it once per worker, pointing at the
    coordinator's listen address, *before* the coordinator engine first
    ingests.  Connection attempts retry briefly so worker and coordinator
    processes can start in any order.  ``worker_id`` is advisory (external
    workers are identified by arrival order, not by this value); it scopes
    worker-side fault injection in the chaos suite.
    """
    last_error: "OSError | None" = None
    for _ in range(max(1, retries)):
        try:
            sock = socket.create_connection((host, port))
            break
        except OSError as exc:
            last_error = exc
            time.sleep(retry_delay)
    else:
        raise ShardingError(
            f"could not reach shard coordinator at {host}:{port}: {last_error!r}"
        )
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        serve_connection(sock, worker_id)


def _tcp_worker_main(
    host: str, port: int, worker_id: "int | None" = None
) -> None:  # pragma: no cover - subprocess
    run_worker(host, port, worker_id=worker_id)


class TcpTransport(ShardTransport):
    """Length-prefixed wire frames over localhost (or LAN) sockets."""

    name = "tcp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        accept_timeout: float = 60.0,
        op_timeout: float = 60.0,
    ) -> None:
        super().__init__()
        self.host = host
        self.port = int(port)  # 0 until connect() binds
        self.spawn_workers = bool(spawn_workers)
        self.accept_timeout = float(accept_timeout)
        #: Deadline for each outbound send; collects take theirs per call.
        self.op_timeout = float(op_timeout)
        self._listener: "socket.socket | None" = None
        self._socks: "list[socket.socket] | None" = None
        self._procs: list[Any] = []
        self._encoders: list[DictEncoder] = []

    def listen(self) -> int:
        """Bind the coordinator socket; returns the bound port.

        Called implicitly by :meth:`connect`; external deployments call it
        first to learn the port their workers must dial.
        """
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
            self._listener = listener
        return self.port

    def _spawn_worker_proc(self, worker_id: int) -> None:
        process = multiprocessing.Process(
            target=_tcp_worker_main,
            args=(self.host, self.port, worker_id),
            name=f"repro-shard-tcp-{worker_id}",
            daemon=True,
        )
        process.start()
        self._procs.append(process)

    def connect(self, num_workers: int) -> None:
        self.listen()
        # Backlog covers initial connects plus any future respawn dials.
        self._listener.listen(max(num_workers, 8))
        if self.spawn_workers:
            for worker_id in range(num_workers):
                self._spawn_worker_proc(worker_id)
        self._listener.settimeout(self.accept_timeout)
        self._socks = []
        self._encoders = [DictEncoder() for _ in range(num_workers)]
        try:
            for _ in range(num_workers):
                sock, _addr = self._listener.accept()
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._socks.append(sock)
        except socket.timeout as exc:
            raise ShardingError(
                f"only {len(self._socks)} of {num_workers} shard workers "
                f"connected to {self.host}:{self.port} within "
                f"{self.accept_timeout:.0f}s"
            ) from exc

    def ship(
        self, worker_id: int, verb: str, ops: Any, *, corrupt: bool = False
    ) -> None:
        start = self._clock()
        sock = self._socks[worker_id]
        try:
            sock.settimeout(self.op_timeout)
            frame, serialized = encode_frame((verb, ops), self._encoders[worker_id])
            if corrupt:
                frame = self._mangle(frame)
            sock.sendall(_LEN.pack(len(frame)) + frame)
            sock.settimeout(None)
        except socket.timeout as exc:
            raise WorkerFailureError(
                worker_id,
                "ship",
                f"send stalled past the {self.op_timeout:.3f}s deadline",
            ) from exc
        except OSError as exc:
            raise self._dead(worker_id, exc, "ship") from exc
        self._note_ship(
            _LEN.size + len(frame), _LEN.size + serialized, self._clock() - start
        )

    def collect(self, worker_id: int, timeout: "float | None" = None) -> tuple:
        start = self._clock()
        sock = self._socks[worker_id]
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            if deadline is None:
                sock.settimeout(None)
            reply, nbytes = recv_frame(sock, deadline=deadline)
        except socket.timeout as exc:
            raise WorkerFailureError(
                worker_id,
                "collect",
                f"no reply within the {timeout:.3f}s deadline",
            ) from exc
        except (EOFError, ConnectionError, OSError) as exc:
            raise self._dead(worker_id, exc, "collect") from exc
        finally:
            try:
                sock.settimeout(None)
            except OSError:  # pragma: no cover - socket already dead
                pass
        self._note_collect(nbytes, self._clock() - start)
        return reply

    # -- supervision ----------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """Sever the worker's connection (idempotent).

        For a peer that may live on another host, closing the socket *is*
        the kill: the worker's serve loop sees EOF and exits.  Self-spawned
        worker processes terminate themselves the same way.
        """
        if self._socks is None:
            return
        sock = self._socks[worker_id]
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def respawn(self, worker_id: int) -> None:
        if self._socks is None or self._listener is None:
            raise ShardingError("transport is not connected; cannot respawn")
        self.kill_worker(worker_id)
        if self.spawn_workers:
            self._spawn_worker_proc(worker_id)
        # Accept the replacement with capped-exponential waits so external
        # deployments get time to start one, without ever blocking past
        # accept_timeout in total.
        deadline = time.monotonic() + self.accept_timeout
        wait = 0.1
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailureError(
                    worker_id,
                    "respawn",
                    f"no replacement worker dialed in within "
                    f"{self.accept_timeout:.0f}s",
                )
            self._listener.settimeout(min(wait, remaining))
            try:
                sock, _addr = self._listener.accept()
                break
            except socket.timeout:
                wait = min(wait * 2, 2.0)
            except OSError as exc:
                raise WorkerFailureError(
                    worker_id, "respawn", f"listener failed ({exc!r})"
                ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._socks[worker_id] = sock
        # The replacement's decoder starts empty; restart its encoder too.
        self._encoders[worker_id] = DictEncoder()
        self.respawns += 1

    def close(self) -> None:
        if self._socks is not None:
            for sock in self._socks:
                try:
                    sock.settimeout(5.0)
                    send_frame(sock, ("stop", None))
                    recv_frame(sock)
                except (EOFError, ConnectionError, OSError):
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
            self._socks = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for process in self._procs:
            self._reap(process)
        self._procs = []
