"""Asyncio network front ends: HTTP/NDJSON ingestion and a raw socket path.

Both front ends serve ``asyncio`` streams (no HTTP framework) and neither
parses a record line itself: they hand bytes — ``POST /ingest`` its whole
body, the raw socket one 64 KiB block at a time — to one
:class:`~repro.io.jsonl_io.NdjsonDecoder`, which parses each line with
``orjson`` (``json.loads`` decides the lines ``orjson`` refuses or would read
differently, so acceptance and error wording are ``json.loads``'), requires
it to be exactly one object, routes it to its tenant and appends it through
:meth:`ColumnAccumulator.add_trace_row
<repro.streaming.batch.ColumnAccumulator.add_trace_row>` (one Python call per
record, the same coercion the CSV and JSONL file readers use).  What comes
back are dictionary-coded :class:`~repro.streaming.batch.RecordBatch`
columns ready for the queue — timestamps, one ``int32`` category code per
record, the dictionary of the request (HTTP) or connection (socket), the
attribute rows — so the worker closes a post the way a replay closes an
``.rcol`` batch; the only per-record objects are the ones the parser makes
(the line's ``dict`` is dropped once its values are in the columns, a
category tuple once it is looked up unless it is the first of its kind).
Decoding runs on the event-loop thread, so every microsecond it saves is
GIL time handed to the detection worker's close.
Time spent decoding and bytes handed over are counted
(``ingest_decode_seconds_total`` / ``ingest_bytes_total`` in ``/metrics``).

HTTP endpoints (``Connection: close``; one request per connection):

``POST /ingest[?tenant=NAME]``
    Body: NDJSON records.  Tenant resolution order: ``tenant`` query
    parameter / ``X-Tenant`` header (whole request), per-record ``"tenant"``
    key, configured default tenant.  The body is decoded whole before
    anything is enqueued: one bad line (invalid JSON or UTF-8, not an
    object, no/empty/unknown tenant, a category that is not a non-empty
    list, a timestamp that is not a finite number) answers **400** with its
    1-based line number and enqueues nothing.  Admission is all-or-nothing
    too: a full ingest queue rejects the entire request with **429** (and
    ``Retry-After``) before any record is enqueued, so a retried request
    never double-ingests a prefix.
``POST /checkpoint``
    Barrier: runs after everything already queued, checkpoints every active
    session atomically; returns the files written.
``POST /flush``
    Barrier: closes the pending timeunit of one (``?tenant=``) or all
    active sessions (end-of-stream semantics; never implicit).
``GET /healthz`` / ``GET /metrics``
    See :mod:`repro.service.metrics`.  ``/healthz`` reads only lock-free
    state and includes a ``degraded`` flag (plus ``recovering_tenants``)
    that is true while a sharded tenant is respawning/replaying a failed
    worker; ``/metrics`` adds worker-recovery, checkpoint-retention and
    webhook-retry counters.
``GET /anomalies?tenant=NAME``
    All reported anomalies of a tenant (activates it from checkpoint if
    needed).
``GET /tenants``
    Known/active/resumable tenant inventory.
``POST /reconfigure?tenant=NAME``
    Barrier: apply a JSON config delta (body) to a running session at the
    next timeunit boundary — frozen structural fields are rejected with 400.
``POST /shadow?tenant=NAME`` / ``GET /shadow?tenant=NAME``
    Shadow experiments: body ``{"action": "start", "config": {...}}`` clones
    the live session under a candidate config, ``"stop"`` / ``"promote"``
    end it (promote swaps the shadow in as primary).  GET returns the live
    divergence report.  Conflicting actions (start while running, stop with
    none) map to 409.
``POST /shutdown``
    Graceful stop (final checkpoint included).

The raw socket path is for trusted high-volume producers: one JSON header
line (``{"tenant": "name"}``, optionally ``"batch_size": N`` with N >= 1)
then NDJSON records, all for that tenant (a per-record ``"tenant"`` key is
ignored here).  A first line that is already a record is taken as data for
the default tenant.  Backpressure is *slow-reader*: while the ingest queue
is full the server simply stops reading the connection (counted in
``backpressure_waits_total``), so a well-behaved producer blocks in ``send``
and no record is ever dropped.  On EOF the server flushes the tail batch and
replies with one JSON summary line ``{"accepted": N}``.  A bad header is
answered ``{"error": ...}``; a bad record line ends the stream with
``{"error": "line K: ...", "accepted": N}`` (K counts the header line).  In
both replies ``accepted`` is the number of records *enqueued*: every record
before the bad line is submitted before the reply is written, nothing after
it is read.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.engine.shadow import ShadowStateError
from repro.exceptions import ConfigurationError, StreamError
from repro.io.jsonl_io import READ_BLOCK_BYTES, NdjsonDecodeError, NdjsonDecoder
from repro.service.metrics import healthz_document, metrics_document
from repro.streaming.batch import RecordBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.daemon import DetectionService

#: Upper bound on an HTTP request body (NDJSON ingest chunk).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Poll interval of the socket path while the ingest queue is full.
BACKPRESSURE_POLL_SECONDS = 0.02
#: The socket's reply to a first line that is neither header nor record.
_HEADER_EXPECTED = 'first line must be a {"tenant": ...} header'


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class HttpFrontend:
    """Minimal HTTP/1.1 server over asyncio streams."""

    def __init__(self, service: "DetectionService"):
        self.service = service
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing ----------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            status, document, extra = await self._dispatch(method, path, query, body)
        except _HttpError as exc:
            status, document, extra = exc.status, {"error": exc.message}, exc.headers
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            status, document, extra = 500, {"error": repr(exc)}, ()
        try:
            writer.write(_json_response(status, document, extra))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split(" ")
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if length < 0:
            # int("-5") parses fine but readexactly(-5) raises ValueError,
            # which the blanket handler would turn into a 500.
            raise _HttpError(400, "invalid Content-Length: must be >= 0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        # keep_blank_values: ``?tenant=`` must surface as an (invalid) empty
        # string, not silently vanish into the default tenant.
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        if "x-tenant" in headers and "tenant" not in query:
            query["tenant"] = headers["x-tenant"]
        return method, split.path, query, body

    # -- routing -------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, query: dict[str, str], body: bytes
    ) -> tuple[int, Any, tuple]:
        service = self.service
        route = (method, path)
        if route == ("GET", "/healthz"):
            return 200, healthz_document(service), ()
        if route == ("GET", "/metrics"):
            return 200, metrics_document(service), ()
        if route == ("GET", "/tenants"):
            return 200, service.tenant_inventory(), ()
        if route == ("GET", "/anomalies"):
            tenant = self._resolve_tenant(query, required=True)
            self._require_known(tenant)
            anomalies = await service.run_barrier(
                lambda: service.manager.anomalies(tenant)
            )
            return 200, {"tenant": tenant, "anomalies": anomalies}, ()
        if route == ("POST", "/ingest"):
            return await self._handle_ingest(query, body)
        if route == ("POST", "/checkpoint"):
            written = await service.run_barrier(service.manager.checkpoint_all)
            return 200, {"checkpoints": written}, ()
        if route == ("POST", "/flush"):
            tenant = self._resolve_tenant(query, default_to_config=False)
            if tenant is not None:
                self._require_known(tenant)
            closed = await service.run_barrier(
                lambda: service.manager.flush(tenant)
            )
            return 200, {"closed": closed}, ()
        if route == ("POST", "/reconfigure"):
            return await self._handle_reconfigure(query, body)
        if route == ("POST", "/shadow"):
            return await self._handle_shadow(query, body)
        if route == ("GET", "/shadow"):
            tenant = self._resolve_tenant(query, required=True)
            self._require_known(tenant)
            report = await self._run_tenant_op(
                lambda: service.manager.shadow_report(tenant)
            )
            return 200, report, ()
        if route == ("POST", "/shutdown"):
            service.request_shutdown()
            return 202, {"status": "shutting down"}, ()
        raise _HttpError(404, f"no route {method} {path}")

    # -- tenant resolution / shared plumbing ---------------------------
    def _resolve_tenant(
        self,
        query: dict[str, str],
        *,
        default_to_config: bool = True,
        required: bool = False,
    ) -> "str | None":
        """The request's tenant: explicit param/header, else the default.

        An *empty* tenant (``?tenant=`` or an empty ``X-Tenant`` header) is
        an explicit 400 — silently falling through to the default tenant
        would misroute the request.
        """
        tenant = query.get("tenant")
        if tenant is not None:
            if not tenant:
                raise _HttpError(
                    400,
                    "tenant must not be empty (name a tenant or omit the "
                    "parameter)",
                )
            return tenant
        if default_to_config:
            tenant = self.service.config.default_tenant
        if tenant is None and required:
            raise _HttpError(400, "tenant parameter required")
        return tenant

    def _require_known(self, tenant: str) -> None:
        if not self.service.manager.is_known(tenant):
            raise _HttpError(404, f"unknown tenant {tenant!r}")

    @staticmethod
    def _parse_json_body(body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(data, Mapping):
            raise _HttpError(400, "request body must be a JSON object")
        return dict(data)

    async def _run_tenant_op(self, fn: Callable[[], Any]) -> Any:
        """Run a manager operation behind the ingest barrier; map shadow
        conflicts to 409 and config problems (frozen fields, bad deltas,
        unknown models) to 400."""
        try:
            return await self.service.run_barrier(fn)
        except ShadowStateError as exc:
            raise _HttpError(409, str(exc)) from exc
        except ConfigurationError as exc:
            raise _HttpError(400, str(exc)) from exc

    async def _handle_reconfigure(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, Any, tuple]:
        service = self.service
        tenant = self._resolve_tenant(query, required=True)
        self._require_known(tenant)
        delta = self._parse_json_body(body)
        if not delta:
            raise _HttpError(400, "reconfigure requires a JSON config delta body")
        config = await self._run_tenant_op(
            lambda: service.manager.reconfigure(tenant, delta)
        )
        service.counters.inc("reconfigure_requests_total")
        return 200, {"tenant": tenant, "config": config}, ()

    async def _handle_shadow(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, Any, tuple]:
        service = self.service
        tenant = self._resolve_tenant(query, required=True)
        self._require_known(tenant)
        document = self._parse_json_body(body)
        action = document.get("action")
        if action == "start":
            delta = document.get("config")
            if not isinstance(delta, Mapping):
                raise _HttpError(
                    400, 'shadow start requires a "config" object (a config delta)'
                )
            report = await self._run_tenant_op(
                lambda: service.manager.start_shadow(tenant, delta)
            )
        elif action == "stop":
            report = await self._run_tenant_op(
                lambda: service.manager.stop_shadow(tenant)
            )
        elif action == "promote":
            report = await self._run_tenant_op(
                lambda: service.manager.promote_shadow(tenant)
            )
        else:
            raise _HttpError(
                400, 'shadow action must be one of "start", "stop", "promote"'
            )
        service.counters.inc(f"shadow_{action}_requests_total")
        return 200, {"tenant": tenant, "action": action, "report": report}, ()

    async def _handle_ingest(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, Any, tuple]:
        service = self.service
        service.counters.inc("ingest_requests_total")
        decoder = NdjsonDecoder(
            service.config.ingest_batch_size,
            default_tenant=self._resolve_tenant(query),
            is_known_tenant=service.manager.is_known,
        )
        started = perf_counter()
        try:
            batches = decoder.feed(body, final=True)
        except NdjsonDecodeError as exc:
            service.counters.inc("ingest_bad_requests_total")
            raise _HttpError(400, str(exc)) from exc
        finally:
            service.counters.inc("ingest_decode_seconds_total", perf_counter() - started)
            service.counters.inc("ingest_bytes_total", len(body))
        if not service.worker.try_submit(batches):
            service.counters.inc("ingest_rejected_total")
            raise _HttpError(
                429,
                f"ingest queue full ({service.worker.capacity} batches); retry",
                headers=(("Retry-After", "1"),),
            )
        records = sum(len(batch) for _, batch in batches)
        service.counters.inc("ingest_records_total", records)
        service.counters.inc("ingest_batches_total", len(batches))
        return 202, {"accepted": records, "batches": len(batches)}, ()


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: tuple = ()):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _json_response(status: int, document: Any, extra_headers: tuple = ()) -> bytes:
    body = json.dumps(document).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# ----------------------------------------------------------------------
# Raw socket front end
# ----------------------------------------------------------------------
class SocketFrontend:
    """Raw TCP NDJSON ingest with slow-reader backpressure."""

    def __init__(self, service: "DetectionService"):
        self.service = service
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _submit_or_wait(self, tenant: str, batch: RecordBatch) -> None:
        """Admit one batch, pausing (not dropping) while the queue is full."""
        worker = self.service.worker
        while not worker.try_submit([(tenant, batch)]):
            worker.note_backpressure_wait()
            await asyncio.sleep(BACKPRESSURE_POLL_SECONDS)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            reply = await self._ingest(reader)
            if reply is not None:
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    def _parse_header(self, header_line: bytes) -> "tuple[str, int, bool]":
        """``(tenant, batch_size, first line is a record)`` of a connection.

        Raises :class:`~repro.exceptions.StreamError` with the text of the
        error reply.
        """
        config = self.service.config
        try:
            header = json.loads(header_line)
        except ValueError:  # bad JSON, or not UTF-8/16/32 at all
            header = None
        if not isinstance(header, Mapping):
            raise StreamError(_HEADER_EXPECTED)
        is_record = False
        tenant = header.get("tenant")
        if tenant is not None:
            tenant = str(tenant)
            if not tenant:
                raise StreamError("tenant must not be empty")
        elif "timestamp" in header or "category" in header:
            # A producer that skips the header line sends its first *data*
            # record here.  Treat it as data under the default tenant
            # instead of silently swallowing it.
            is_record, header = True, {}
        if tenant is None:
            tenant = config.default_tenant
        if not tenant:
            raise StreamError(_HEADER_EXPECTED)
        if not self.service.manager.is_known(tenant):
            raise StreamError(f"unknown tenant {tenant!r}")
        requested = header.get("batch_size", config.ingest_batch_size)
        try:
            batch_size = int(requested)
        except (TypeError, ValueError):
            batch_size = 0
        if batch_size < 1:
            raise StreamError(f"batch_size must be an integer >= 1, got {requested!r}")
        return tenant, batch_size, is_record

    async def _ingest(self, reader: asyncio.StreamReader) -> "dict[str, Any] | None":
        """Serve one connection; returns the reply line's document.

        ``accepted`` counts enqueued records only: when a line is refused,
        the records that preceded it are submitted before the error reply
        is returned, and the rest of the stream is not read.
        """
        counters = self.service.counters
        try:
            header_line = await reader.readline()
        except ValueError:  # longer than the stream reader's line limit
            return {"error": _HEADER_EXPECTED}
        if not header_line:
            return None
        try:
            tenant, batch_size, is_record = self._parse_header(header_line)
        except StreamError as exc:
            return {"error": str(exc)}
        decoder = NdjsonDecoder(
            batch_size, default_tenant=tenant, first_line=1 if is_record else 2
        )
        block = header_line if is_record else await reader.read(READ_BLOCK_BYTES)
        accepted = 0
        error = None
        while True:
            final = not block
            started = perf_counter()
            try:
                batches = decoder.feed(block, final)
            except NdjsonDecodeError as exc:
                error = str(exc)
                batches = decoder.feed(b"", final=True)
            counters.inc("ingest_decode_seconds_total", perf_counter() - started)
            counters.inc("ingest_bytes_total", len(block))
            for _, batch in batches:
                await self._submit_or_wait(tenant, batch)
                accepted += len(batch)
            if final or error is not None:
                break
            block = await reader.read(READ_BLOCK_BYTES)
        counters.inc("socket_records_total", accepted)
        if error is not None:
            return {"error": error, "accepted": accepted}
        return {"accepted": accepted}
