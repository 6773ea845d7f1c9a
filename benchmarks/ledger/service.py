"""Drivers of the two ``service-*`` workloads.

The program under test is a real ``python -m repro.service`` subprocess; this
module is its only client: one closed-loop HTTP connection at a time for
``service-ingest``, one open-loop sender on a fixed schedule for
``service-paced``.  Detections read back over ``GET /anomalies`` must equal an
in-process ``process_batches(read_batches_jsonl(...))`` run of the same bytes.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads as w
from tracing import DueTimes, Scaled, Tracer, machine_slowdown, percentile, summary

from repro.engine.session import DetectionSession
from repro.io.jsonl_io import read_batches_jsonl
from repro.service.config import ServiceConfig, TenantSpec

#: The daemon gets a CPU of its own (its threads share the GIL anyway) and the
#: load generator another, so that the machine-speed probe can be taken on the
#: CPU the daemon runs on.  On a single-CPU box nothing is pinned.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, DAEMON_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (None, None)

CHECKPOINT_SAVES = 3
RESTORES = 3
QUEUE_BATCHES = 64
INGEST_BATCH = 4096


class Daemon:
    """One ``python -m repro.service`` process and a minimal HTTP client."""

    def __init__(self, config_path: Path, tracer: "Tracer | None" = None):
        self.config_path = config_path
        self.ready_file = config_path.with_suffix(".ready.json")
        self.tracer = tracer
        self.process: "subprocess.Popen | None" = None
        self.port = 0
        self.socket_port = 0
        self.boot_seconds = 0.0

    def start(self) -> "Daemon":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(w.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.ready_file.unlink(missing_ok=True)
        started = perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--config", str(self.config_path),
                "--ready-file", str(self.ready_file),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        if DAEMON_CPU is not None:
            os.sched_setaffinity(self.process.pid, {DAEMON_CPU})
        deadline = started + 60.0
        while not self.ready_file.exists():
            if self.process.poll() is not None or perf_counter() > deadline:
                self.kill()
                raise RuntimeError("ledger: the daemon did not become ready")
            time.sleep(0.005)
        ready = json.loads(self.ready_file.read_text(encoding="utf-8"))
        self.port, self.socket_port = ready["port"], ready["socket_port"]
        self.boot_seconds = perf_counter() - started
        if self.tracer is not None:
            self.tracer.add("service.boot", started, started + self.boot_seconds)
        return self

    def request(self, method: str, path: str, body: "bytes | None" = None):
        """``(status, headers, document)`` of one request (one connection)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.headers, json.loads(response.read())
        finally:
            connection.close()

    def get(self, path: str):
        status, _, document = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"ledger: GET {path} -> {status} {document}")
        return document

    def post(self, path: str):
        status, _, document = self.request("POST", path)
        if status not in (200, 202):
            raise RuntimeError(f"ledger: POST {path} -> {status} {document}")
        return document

    def anomalies(self, tenants) -> dict:
        return {
            name: self.get(f"/anomalies?tenant={name}")["anomalies"] for name in tenants
        }

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="ascii")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("ledger: no VmHWM in /proc status")

    def shutdown(self) -> None:
        """Graceful stop; waits until the process has ended."""
        started = perf_counter()
        try:
            self.post("/shutdown")
            self.process.wait(timeout=60)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.kill()
        if self.tracer is not None:
            self.tracer.add("service.shutdown", started, perf_counter())

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        if self.process is not None:
            self.process.wait()


def tenant_session(params: dict, name: str) -> DetectionSession:
    spec = params["tenants"][name]
    return DetectionSession(
        w.build_tree(spec.kind),
        w.detector_config(spec.theta, spec.days),
        clock=w.build_clock(spec.kind),
        warmup_units=params["warmup_units"],
        name=name,
    )


def write_config(params: dict, directory: Path) -> Path:
    """A fresh deployment directory: config, checkpoint dir, alert sink."""
    directory.mkdir(parents=True, exist_ok=True)
    tenants = []
    for name, spec in params["tenants"].items():
        tenants.append(
            TenantSpec(
                name=name,
                tree=w.build_tree(spec.kind),
                config=w.detector_config(spec.theta, spec.days),
                clock=w.build_clock(spec.kind),
                warmup_units=params["warmup_units"],
            )
        )
    config = ServiceConfig(
        tenants=tuple(tenants),
        checkpoint_dir=directory / "checkpoints",
        port=0,
        socket_port=0,
        checkpoint_interval=params["checkpoint_interval"],
        queue_max_batches=QUEUE_BATCHES,
        ingest_batch_size=INGEST_BATCH,
        alert_jsonl_path=directory / "alerts.jsonl",
    )
    path = directory / "service.json"
    config.save(path)
    return path


def prepare_inputs(params: dict, seed: int, workdir: Path) -> dict:
    """Generate every tenant's trace as NDJSON and cut it into request bodies."""
    traces = {}
    for name, spec in params["tenants"].items():
        info = w.write_ndjson(spec, seed, workdir / f"{name}.ndjson")
        lines, stamps = info.pop("lines"), info.pop("timestamps")
        if "rate_per_s" in params:
            width = w.DELTA / params["chunks_per_unit"]
            cuts = [0]
            for row in range(1, len(stamps)):
                if int(stamps[row] // width) != int(stamps[row - 1] // width):
                    cuts.append(row)
            cuts.append(len(stamps))
        else:
            cuts = sorted({*range(0, len(stamps), params["post_records"]), len(stamps)})
        info["bodies"] = [
            {
                "tenant": name,
                "body": b"".join(lines[a:b]),
                "records": b - a,
                "first_ts": stamps[a],
                "last_ts": stamps[b - 1],
            }
            for a, b in zip(cuts, cuts[1:])
        ]
        traces[name] = info
    return traces


def interleave(traces: dict) -> list:
    """Alternate the tenants' bodies until every tenant is exhausted."""
    queues = [list(info["bodies"]) for info in traces.values()]
    out = []
    for row in range(max(len(q) for q in queues)):
        out.extend(q[row] for q in queues if row < len(q))
    return out


def reference_anomalies(params: dict, offered: dict, workdir: Path) -> "tuple[dict, dict]":
    """In-process run of exactly the offered bytes; also times the parse."""
    expected, parse = {}, {"seconds": 0.0, "records": 0}
    for name, bodies in offered.items():
        path = workdir / f"{name}.sent.ndjson"
        path.write_bytes(b"".join(body["body"] for body in bodies))
        with Scaled() as region:
            batches = list(read_batches_jsonl(path, INGEST_BATCH))
        parse["seconds"] += region.seconds
        parse["records"] += sum(len(batch) for batch in batches)
        session = tenant_session(params, name)
        session.process_batches(batches)
        # Through JSON, as the daemon's answer travels.
        expected[name] = json.loads(json.dumps([a.to_dict() for a in session.anomalies]))
    return expected, parse


def finish_pass(daemon: Daemon, params: dict, state: dict) -> dict:
    """Drain, flush, read detections back and collect the daemon's counters."""
    tracer = daemon.tracer
    last_ack = perf_counter()
    while not daemon.get("/healthz")["drained"]:
        time.sleep(0.002)
    drained = perf_counter()
    for due in state["due"].values():
        due.flushed(time.time())
    daemon.post("/flush")
    anomalies = daemon.anomalies(params["tenants"])
    wall = perf_counter() - state["started"]
    slowdown = (state["slow_before"] + machine_slowdown(cpu=DAEMON_CPU)) / 2.0
    if tracer is not None:
        tracer.add("service.drain", last_ack, drained)
    metrics = daemon.get("/metrics")
    busy = sum(
        seconds
        for tenant in metrics["tenants"].values()
        for stage, seconds in tenant.get("stage_seconds", {}).items()
        if stage != "reading_traces"
    )
    first_alert: dict = {}
    alerts_path = daemon.config_path.parent / "alerts.jsonl"
    for line in alerts_path.read_text(encoding="utf-8").splitlines():
        alert = json.loads(line)
        key = (alert["tenant"], alert["anomaly"]["timeunit"])
        first_alert.setdefault(key, alert["emitted_unix"])
    delays = [
        (emitted - state["due"][tenant].due[unit]) * 1000.0
        for (tenant, unit), emitted in sorted(first_alert.items())
    ]
    state.update(
        wall=wall,
        slowdown=slowdown,
        drain_lag_s=drained - last_ack,
        anomalies=anomalies,
        delays_ms=delays,
        busy_s=busy,
        queue=metrics["queue"],
        alerts_delivered=metrics["alerts"]["jsonl"]["delivered_total"],
        checkpoints_written=metrics["checkpoint"]["written_total"],
        units={
            name: tenant["units_closed"] for name, tenant in metrics["tenants"].items()
        },
        peak_rss_mb=daemon.peak_rss_mb(),
    )
    return state


def new_state(params: dict) -> dict:
    return {
        "due": {name: DueTimes(w.DELTA) for name in params["tenants"]},
        "offered": {name: [] for name in params["tenants"]},
        "post_ms": [],
        "late_ms": [],
        "retries_429": 0,
        "attempted": 0,
        "failed": 0,
        "slow_before": machine_slowdown(cpu=DAEMON_CPU),
        "started": perf_counter(),
    }


def send(daemon: Daemon, state: dict, body: dict, due_at: float, retry: bool) -> None:
    """POST one body; honour ``429``/``Retry-After`` when ``retry``."""
    state["attempted"] += body["records"]
    state["offered"][body["tenant"]].append(body)
    state["due"][body["tenant"]].handed(body["first_ts"], body["last_ts"], due_at)
    while True:
        started = perf_counter()
        status, headers, _ = daemon.request(
            "POST", f"/ingest?tenant={body['tenant']}", body["body"]
        )
        ended = perf_counter()
        state["post_ms"].append((ended - started) * 1000.0)
        if daemon.tracer is not None:
            daemon.tracer.add("service.http.post", started, ended)
        if status == 202:
            return
        if status != 429 or not retry:
            state["failed"] += body["records"]
            return
        state["retries_429"] += 1
        time.sleep(float(headers.get("Retry-After", "0.05")))


def closed_loop_pass(daemon: Daemon, params: dict, bodies: list) -> dict:
    """One client, next POST only after the previous answer (``service-ingest``)."""
    state = new_state(params)
    for body in bodies:
        send(daemon, state, body, time.time(), retry=True)
    return finish_pass(daemon, params, state)


def paced_pass(daemon: Daemon, params: dict, bodies: list, seconds: float) -> dict:
    """Open loop (``service-paced``): bodies go out on a fixed schedule at
    ``rate_per_s`` whatever the daemon does; each is timed from when it was
    *due*, and a refused one is not retried."""
    state = new_state(params)
    origin = time.time() + 0.05
    done = 0
    for body in bodies:
        done += body["records"]
        due_at = origin + done / params["rate_per_s"]
        if due_at - origin > seconds:
            break
        wait = due_at - time.time()
        if wait > 0:
            time.sleep(wait)
        state["late_ms"].append(max(0.0, time.time() - due_at) * 1000.0)
        send(daemon, state, body, due_at, retry=False)
    state["offered_s"] = time.time() - origin
    return finish_pass(daemon, params, state)


def socket_pass(daemon: Daemon, params: dict, traces: dict) -> dict:
    """The same bytes over the raw socket front end, tenant after tenant."""
    state = new_state(params)
    for name, info in traces.items():
        with socket.create_connection(("127.0.0.1", daemon.socket_port), timeout=120) as conn:
            conn.sendall(json.dumps({"tenant": name}).encode("utf-8") + b"\n")
            for body in info["bodies"]:
                state["due"][name].handed(body["first_ts"], body["last_ts"], time.time())
                conn.sendall(body["body"])
                state["offered"][name].append(body)
                state["attempted"] += body["records"]
            conn.shutdown(socket.SHUT_WR)
            reply = json.loads(conn.makefile("rb").readline())
        state["failed"] += info["records"] - reply.get("accepted", 0)
    return finish_pass(daemon, params, state)


def timed_checkpoint(daemon: Daemon) -> float:
    """Milliseconds (at reference speed) of one ``POST /checkpoint`` barrier."""
    with Scaled(DAEMON_CPU) as region:
        started = perf_counter()
        daemon.post("/checkpoint")
        ended = perf_counter()
    if daemon.tracer is not None:
        daemon.tracer.add("service.checkpoint.barrier", started, ended)
    return region.seconds * 1000.0


def checkpoint_phase(daemon: Daemon, params: dict, samples: "int | None", save_ms: list) -> dict:
    """Explicit checkpoint barriers, then crash-and-restart recoveries.

    ``save`` is the ``POST /checkpoint`` round trip on end-of-stream state
    (``save_ms`` already holds one sample from the end of every pass);
    ``restore`` runs from spawning a new daemon on the same checkpoint
    directory (after a SIGKILL) until every tenant's detections are served
    again — and they must be the ones served before the crash.
    """
    restore_ms = []
    for _ in range(samples or CHECKPOINT_SAVES):
        save_ms.append(timed_checkpoint(daemon))
    before = daemon.anomalies(params["tenants"])
    size = sum(
        path.stat().st_size
        for name in params["tenants"]
        for path in (daemon.config_path.parent / "checkpoints").glob(f"{name}.*json")
    )
    identical = True
    for _ in range(samples or RESTORES):
        daemon.kill()
        with Scaled(DAEMON_CPU) as region:
            daemon.start()
            identical = identical and daemon.anomalies(params["tenants"]) == before
        restore_ms.append(region.seconds * 1000.0)
    return {
        "save_ms": save_ms,
        "restore_ms": restore_ms,
        "bytes": size,
        "restore_identical": identical,
    }


def run(name: str, params: dict, seconds: float, traced: bool, workdir: Path,
        traces: dict, scale) -> dict:
    """Measure one service workload for ``seconds``; ``traces`` are ready.

    Every pass gets a fresh daemon on a fresh deployment directory.  With
    tracing on, untraced and traced passes alternate (a paced run splits its
    time between one of each) so the overhead is measured on the same load.
    """
    paced = "rate_per_s" in params
    tracer = Tracer(name) if traced else None
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    bodies = interleave(traces)
    share = seconds / 2 if paced and traced else seconds
    plain: list[dict] = []
    spanned: list[dict] = []
    kinds = [(plain, None)] + ([(spanned, tracer)] if traced else [])
    daemon = None
    save_ms: list[float] = []
    started = perf_counter()
    try:
        while True:
            for bucket, use_tracer in kinds:
                if daemon is not None:
                    daemon.shutdown()
                directory = workdir / f"pass-{len(plain) + len(spanned)}"
                daemon = Daemon(write_config(params, directory), use_tracer).start()
                if use_tracer is not None:
                    use_tracer.current_pass = len(spanned)
                if paced:
                    bucket.append(paced_pass(daemon, params, bodies, share))
                else:
                    bucket.append(closed_loop_pass(daemon, params, bodies))
                bucket[-1]["boot_s"] = daemon.boot_seconds
                save_ms.append(timed_checkpoint(daemon))
            if paced or perf_counter() - started >= seconds:
                break
        checkpoint = checkpoint_phase(daemon, params, scale.checkpoint_samples, save_ms)
        over_socket = None
        if traced:
            daemon.shutdown()
            daemon = Daemon(write_config(params, workdir / "pass-socket")).start()
            over_socket = socket_pass(daemon, params, traces)
    finally:
        if daemon is not None:
            daemon.shutdown()

    passes = plain + spanned
    expected, parse = reference_anomalies(params, passes[-1]["offered"], workdir)
    clean = [p for p in passes if p["failed"] == 0]
    checks = {
        "matches_reference": all(p["anomalies"] == expected for p in clean),
        "passes_identical": all(p["units"] == passes[0]["units"] for p in clean),
        "restore_identical": checkpoint["restore_identical"],
        "daemon_errors": sum(p["queue"]["errors_total"] for p in passes),
    }
    if over_socket is not None and not paced:
        # The socket pass streams the whole trace, which is what a closed-loop
        # pass offers too, so the same reference applies.
        checks["matches_reference"] &= over_socket["anomalies"] == expected

    walls = [p["wall"] for p in plain]
    # A paced pass is as long as its schedule, whatever the machine does.
    rates = [
        (p["attempted"] - p["failed"]) / (p["wall"] if paced else p["wall"] / p["slowdown"])
        for p in plain
    ]
    delays = [d for p in plain for d in p["delays_ms"]]
    last = passes[-1]
    result = {
        "passes": len(plain),
        "pass_s": summary(walls),
        "machine_slowdown": median([p["slowdown"] for p in plain]),
        "records_per_s_raw": median(
            [(p["attempted"] - p["failed"]) / p["wall"] for p in plain]
        ),
        "records_per_s": median(rates),
        "alert_delay_samples": len(delays),
        "alert_delay_ms_p50": percentile(delays, 50),
        "alert_delay_ms_p90": percentile(delays, 90),
        "checkpoint_save_ms": summary(checkpoint["save_ms"]),
        "checkpoint_restore_ms": summary(checkpoint["restore_ms"]),
        "checkpoint_bytes": checkpoint["bytes"],
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "counts": {
            "units": sum(last["units"].values()),
            "anomalies": sum(len(found) for found in last["anomalies"].values()),
        },
        "checks": checks,
        "attempted": sum(p["attempted"] for p in plain),
        "failed": sum(p["failed"] for p in plain),
        "offered": last["offered"],
    }
    if traced:
        result["layers"] = layers(
            params, plain, spanned, checkpoint, parse, over_socket, tracer
        )
        result["spans"] = tracer.spans
    return result


def layers(params, plain, spanned, checkpoint, parse, socket_run, tracer) -> dict:
    """Per-layer numbers of the traced passes; timings at reference speed
    (each pass's probe factor), the load generator's own lateness excepted."""
    paced = "rate_per_s" in params
    posts = [ms / p["slowdown"] for p in spanned for ms in p["post_ms"]]
    plain_posts = [ms / p["slowdown"] for p in plain for ms in p["post_ms"]]
    last = spanned[-1]
    plain_wall, traced_wall = (
        median([p["wall"] / p["slowdown"] for p in group])
        for group in (plain, spanned)
    )
    if paced:
        # The schedule fixes a paced pass's length; what tracing could slow
        # down is the request round trip.
        overhead = (percentile(posts, 50) - percentile(plain_posts, 50)) / percentile(plain_posts, 50)
    else:
        overhead = (traced_wall - plain_wall) / plain_wall
    late = [ms for p in spanned for ms in p["late_ms"]]
    sent = last["attempted"] - last["failed"]
    return {
        "pass_traced_s": traced_wall,
        "trace_overhead_share": overhead,
        "io.jsonl.parse_s": parse["seconds"],
        "io.jsonl.parse_records_per_s": parse["records"] / parse["seconds"],
        "io.checkpoint.bytes": checkpoint["bytes"],
        "streaming.records": sent,
        "streaming.units": sum(last["units"].values()),
        "core.anomalies": sum(len(found) for found in last["anomalies"].values()),
        "service.boot_s": median([p["boot_s"] for p in spanned]),
        "service.http.post_ms_p50": percentile(posts, 50),
        "service.http.post_ms_p99": percentile(posts, 99),
        "service.http.retries_429": sum(p["retries_429"] for p in spanned),
        "service.queue.depth_highwater": max(p["queue"]["depth_highwater"] for p in spanned),
        "service.queue.backpressure_waits": socket_run["queue"]["backpressure_waits_total"],
        "service.drain_lag_s": median([p["drain_lag_s"] / p["slowdown"] for p in spanned]),
        "service.worker.close_s": median([p["busy_s"] / p["slowdown"] for p in spanned]),
        "service.worker.busy_share": median([p["busy_s"] / p["wall"] for p in spanned]),
        "service.socket.records_per_s": socket_run["attempted"] / (socket_run["wall"] / socket_run["slowdown"]),
        "service.alerts.delivered": last["alerts_delivered"],
        "service.checkpoint.written": last["checkpoints_written"],
        "service.checkpoint.barrier_ms": median(checkpoint["save_ms"]),
        "service.loadgen.late_ms_p95": percentile(late, 95) if late else 0.0,
        "service.loadgen.achieved_rate": (sent / last["offered_s"]) if paced else 0.0,
    }
