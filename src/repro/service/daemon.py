"""The always-on detection daemon: composition root and CLI.

:class:`DetectionService` wires the pieces of :mod:`repro.service` together
around the existing engine layer:

* a :class:`~repro.service.manager.SessionManager` (lazy multi-tenant
  sessions, LRU eviction-to-checkpoint, crash recovery from
  ``<checkpoint_dir>/<tenant>.ckpt.json``);
* an :class:`~repro.service.worker.IngestWorker` (one bounded queue, one
  detection thread — detection state is only ever touched with queue
  ordering, which is what makes ``/checkpoint`` and ``/flush`` barriers
  deterministic);
* the asyncio front ends of :mod:`repro.service.http` (HTTP + optional raw
  socket NDJSON ingest);
* the alert sinks of :mod:`repro.service.alerts` subscribed to every
  session;
* a rolling checkpoint timer (``checkpoint_interval`` seconds; checkpoints
  never mutate detection state, so cadence is operational policy only).

Restart contract: records admitted (HTTP 202 / socket accept) are processed
in order and become durable at the next checkpoint (timer, explicit
``POST /checkpoint``, eviction, or graceful shutdown).  After a crash the
daemon resumes every tenant from its latest checkpoint **bit-identically**
— an interrupted-then-resumed run produces exactly the detections of an
uninterrupted one given the same post-checkpoint records (the crash-recovery
test suite replays the golden traces through a SIGKILL to prove it).

Run it with ``repro-serve --config service.json`` or
``python -m repro.service --config service.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.exceptions import ConfigurationError
from repro.service.alerts import JsonlAlertSink, WebhookAlertSink
from repro.service.config import ServiceConfig
from repro.service.http import HttpFrontend, SocketFrontend
from repro.service.manager import SessionManager
from repro.service.metrics import Counters
from repro.service.worker import IngestWorker


class DetectionService:
    """One daemon process serving many detection tenants."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.counters = Counters()
        self.jsonl_sink: Optional[JsonlAlertSink] = (
            JsonlAlertSink(config.alert_jsonl_path)
            if config.alert_jsonl_path is not None
            else None
        )
        self.webhook_sink: Optional[WebhookAlertSink] = (
            WebhookAlertSink(config.webhook_url)
            if config.webhook_url is not None
            else None
        )
        observers = [
            sink for sink in (self.jsonl_sink, self.webhook_sink) if sink is not None
        ]
        self.manager = SessionManager(
            config.tenants,
            config.checkpoint_dir,
            max_active=config.max_active_sessions,
            observers=observers,
            checkpoint_retention=config.checkpoint_retention,
        )
        self.worker = IngestWorker(self.manager, config.queue_max_batches)
        self.http = HttpFrontend(self)
        self.socket: Optional[SocketFrontend] = (
            SocketFrontend(self) if config.socket_port is not None else None
        )
        self._started_monotonic: float | None = None
        self._checkpoint_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Introspection used by the front ends
    # ------------------------------------------------------------------
    def uptime_seconds(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    @property
    def http_port(self) -> int | None:
        return self.http.port

    @property
    def socket_port(self) -> int | None:
        return None if self.socket is None else self.socket.port

    def tenant_inventory(self) -> dict[str, Any]:
        active = set(self.manager.active_tenants())
        return {
            "tenants": {
                name: {
                    "active": name in active,
                    "resumable": self.manager.has_checkpoint(name),
                    "configured": any(
                        spec.name == name for spec in self.config.tenants
                    ),
                }
                for name in self.manager.known_tenants()
            },
            "default_tenant": self.config.default_tenant,
            "max_active_sessions": self.config.max_active_sessions,
        }

    async def run_barrier(self, fn: Callable[[], Any], timeout: float = 60.0) -> Any:
        """Run ``fn`` on the worker thread behind all queued ingest work."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.worker.submit_call(fn, timeout=timeout)
        )

    def request_shutdown(self) -> None:
        """Ask the serving loop to stop (thread-safe, idempotent)."""
        loop, event = self._loop, self._shutdown_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start worker, front ends and the rolling-checkpoint timer."""
        self._loop = asyncio.get_running_loop()
        if self._shutdown_event is None:
            self._shutdown_event = asyncio.Event()
        self.worker.start()
        await self.http.start(self.config.host, self.config.port)
        if self.socket is not None:
            await self.socket.start(self.config.host, self.config.socket_port or 0)
        if self.config.checkpoint_interval > 0:
            self._checkpoint_task = asyncio.create_task(self._checkpoint_loop())
        self._started_monotonic = time.monotonic()

    async def _checkpoint_loop(self) -> None:
        interval = self.config.checkpoint_interval
        while True:
            await asyncio.sleep(interval)
            try:
                await self.run_barrier(self.manager.checkpoint_all)
            except Exception as exc:  # noqa: BLE001 - keep rolling
                # A failed rolling checkpoint (e.g. disk full) must not kill
                # ingestion; it stays visible through the worker error
                # counters and the stale last_write_unix.
                self.counters.inc("checkpoint_timer_failures_total")
                self.worker.last_error = repr(exc)

    async def stop(self) -> None:
        """Graceful shutdown: drain the queue, final checkpoint, close sinks."""
        if self._stopped:
            return
        self._stopped = True
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._checkpoint_task
            self._checkpoint_task = None
        await self.http.stop()
        if self.socket is not None:
            await self.socket.stop()
        if self.worker.running:
            # Final checkpoint runs as a barrier so it covers every admitted
            # record; shutdown never flushes (closing a partial timeunit is
            # an explicit, detection-visible action).
            try:
                await self.run_barrier(self.manager.checkpoint_all)
            except Exception:  # noqa: BLE001 - best effort on the way down
                self.counters.inc("checkpoint_timer_failures_total")
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.worker.stop
                )
            except TimeoutError:
                # The worker keeps draining on its (daemon) thread; shutdown
                # proceeds and the stall stays visible in the counters.
                self.counters.inc("worker_stop_timeouts_total")
        if self.jsonl_sink is not None:
            self.jsonl_sink.close()
        if self.webhook_sink is not None:
            # Stops the retry thread; alerts still queued for retry are
            # dropped (and counted) — shutdown does not wait on a dead
            # receiver's backoff schedule.
            self.webhook_sink.close()

    # ------------------------------------------------------------------
    # Serving loops
    # ------------------------------------------------------------------
    async def _serve(self, ready_file: "str | Path | None" = None) -> None:
        await self.start()
        if ready_file is not None:
            _write_ready_file(self, ready_file)
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.stop()

    def run(self, ready_file: "str | Path | None" = None) -> None:
        """Serve until SIGTERM/SIGINT (blocking; installs signal handlers)."""

        async def main() -> None:
            self._shutdown_event = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self._shutdown_event.set)
            await self._serve(ready_file)

        asyncio.run(main())

    def start_in_thread(self, timeout: float = 30.0) -> "ServiceHandle":
        """Run the daemon on a background thread of this process (the HTTP
        test suites start it this way; so can an embedding program).

        Returns once the front ends are bound; ``handle.stop()`` shuts down
        gracefully.
        """
        started = threading.Event()
        failure: list[BaseException] = []

        async def main() -> None:
            self._shutdown_event = asyncio.Event()
            try:
                await self.start()
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            await self._shutdown_event.wait()
            await self.stop()

        thread = threading.Thread(
            target=lambda: asyncio.run(main()), name="repro-service", daemon=True
        )
        thread.start()
        if not started.wait(timeout):
            raise TimeoutError("service did not start in time")
        if failure:
            thread.join(timeout=5)
            raise failure[0]
        return ServiceHandle(self, thread)


class ServiceHandle:
    """Join handle for :meth:`DetectionService.start_in_thread`."""

    def __init__(self, service: DetectionService, thread: threading.Thread):
        self.service = service
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        self.service.request_shutdown()
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _write_ready_file(service: DetectionService, path: "str | Path") -> None:
    """Atomically publish the bound endpoints (ephemeral-port discovery)."""
    path = Path(path)
    document = {
        "pid": os.getpid(),
        "host": service.config.host,
        "port": service.http_port,
        "socket_port": service.socket_port,
        "checkpoint_dir": str(service.manager.checkpoint_dir),
    }
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(document), encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Always-on multi-tenant anomaly-detection daemon over the "
            "Tiresias reproduction engine."
        ),
    )
    parser.add_argument(
        "--config",
        required=True,
        help="service config JSON (see repro.service.config.ServiceConfig)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="override the config's checkpoint directory",
    )
    parser.add_argument(
        "--port", type=int, default=None, help="override the HTTP port (0=ephemeral)"
    )
    parser.add_argument("--host", default=None, help="override the bind host")
    parser.add_argument(
        "--socket-port",
        type=int,
        default=None,
        help="enable/override the raw TCP ingest port (0=ephemeral)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        help="override the rolling checkpoint cadence in seconds (0 disables)",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write a JSON file with the bound ports once serving",
    )
    parser.add_argument(
        "--replay",
        action="append",
        default=None,
        metavar="TENANT=PATH",
        help=(
            "replay a trace file (CSV/JSONL/columnar) into a tenant before "
            "serving; repeatable, files replay in order"
        ),
    )
    return parser


def _parse_replays(specs: "list[str] | None") -> list[tuple[str, str]]:
    replays: list[tuple[str, str]] = []
    for spec in specs or []:
        tenant, sep, path = spec.partition("=")
        if not sep or not tenant or not path:
            raise ConfigurationError(
                f"--replay expects TENANT=PATH, got {spec!r}"
            )
        replays.append((tenant, path))
    return replays


def main(argv: "list[str] | None" = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        replays = _parse_replays(args.replay)
        config = ServiceConfig.from_file(args.config)
        overrides: dict[str, Any] = {}
        if args.checkpoint_dir is not None:
            overrides["checkpoint_dir"] = Path(args.checkpoint_dir)
        if args.port is not None:
            overrides["port"] = args.port
        if args.host is not None:
            overrides["host"] = args.host
        if args.socket_port is not None:
            overrides["socket_port"] = args.socket_port
        if args.checkpoint_interval is not None:
            overrides["checkpoint_interval"] = args.checkpoint_interval
        if overrides:
            config = config.replace(**overrides)
        service = DetectionService(config)
    except ConfigurationError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2

    def announce() -> None:
        endpoints = f"http://{config.host}:{service.http_port}"
        if service.socket_port is not None:
            endpoints += f" raw=tcp://{config.host}:{service.socket_port}"
        print(
            f"repro-serve: {len(config.tenants)} tenant(s), "
            f"checkpoints in {service.manager.checkpoint_dir}, "
            f"serving {endpoints}",
            flush=True,
        )

    async def amain() -> None:
        service._shutdown_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, service._shutdown_event.set)
        await service.start()
        for tenant, path in replays:
            summary = await asyncio.get_running_loop().run_in_executor(
                None, service.manager.replay_file, tenant, path
            )
            print(
                f"repro-serve: replayed {summary['records']} records into "
                f"{tenant!r} ({summary['units_closed']} units, "
                f"{summary['records_per_second']:.0f} rec/s)",
                flush=True,
            )
        announce()
        if args.ready_file is not None:
            _write_ready_file(service, args.ready_file)
        await service._shutdown_event.wait()
        await service.stop()

    asyncio.run(amain())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
