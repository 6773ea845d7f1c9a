"""Replay child: the program under test of the three ``replay-*`` workloads.

Started by ``run.py`` as its own process with a JSON job file; sees only the
``.rcol`` trace.  Prints ``READY`` once it can start the first pass (the
parent times set-up up to here), then runs passes for the job's ``seconds``,
times checkpoints on end-of-trace state and prints one JSON result line.

A pass runs from the first batch read to the anomalies read back, through the
public ``process_batches(read_trace_batches(path, 8192))``; building the
session (milliseconds) and spawning shard workers happen before the clock
starts.  The traced pass adds spans *around* those calls and synthesises the
hierarchy/core/forecasting children from the public accessors' deltas.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads as w
from tracing import DueTimes, Scaled, Tracer, percentile, summary

from repro.engine.hooks import CallbackObserver
from repro.engine.session import DetectionSession
from repro.engine.sharded import ShardedDetectionEngine
from repro.io.checkpoint import load_session_checkpoint_state
from repro.io.columnar import read_trace_batches

SESSION = "bench"
CHECKPOINT_SAMPLES = 11
TRANSPORTS = ("pipe", "shm", "tcp")


class Serial:
    """One in-process :class:`DetectionSession`."""

    mode = "serial"

    def __init__(self, job: dict, session: "DetectionSession | None" = None):
        spec = job["trace"]
        self.session = session or DetectionSession(
            w.build_tree(spec["kind"]),
            w.detector_config(spec["theta"], spec["days"]),
            clock=w.build_clock(spec["kind"]),
            name=SESSION,
        )

    @classmethod
    def load(cls, job: dict, path: Path) -> "Serial":
        return cls(job, DetectionSession.load_checkpoint(path))

    def subscribe(self, observer) -> None:
        self.session.subscribe(observer)

    def process(self, batches) -> None:
        self.session.process_batches(batches)

    def ingest(self, batch) -> None:
        self.session.ingest_record_batch(batch)

    def flush(self) -> None:
        self.session.flush()

    def save(self, path: Path) -> None:
        self.session.save_checkpoint(path)

    def state_dict(self) -> dict:
        return self.session.state_dict()

    def anomalies(self) -> list:
        return self.session.anomalies

    def stage_seconds(self) -> dict:
        return self.session.stage_seconds()

    def adapt_seconds(self) -> float:
        return self.session.adaptation_stats()["adapt_seconds"]

    def counts(self) -> dict:
        session = self.session
        adapt, close = session.adaptation_stats(), session.close_profile()
        return _counts(
            session.units_processed, len(session.anomalies), adapt, close,
            session.memory_units(),
        )

    def close(self) -> None:
        pass


class Sharded:
    """The same session subtree-sharded over worker processes."""

    mode = "sharded"

    def __init__(
        self,
        job: dict,
        engine: "ShardedDetectionEngine | None" = None,
        transport: "str | None" = None,
    ):
        spec = job["trace"]
        started = perf_counter()
        if engine is None:
            engine = ShardedDetectionEngine(
                num_workers=job["workers"], transport=transport or job["transport"]
            )
            engine.add_session(
                SESSION,
                w.build_tree(spec["kind"]),
                w.detector_config(spec["theta"], spec["days"]),
                clock=w.build_clock(spec["kind"]),
                subtree_shards=job["subtree_shards"],
            )
        self.engine = engine
        engine.units_processed()  # spawns the workers and ships the shard states
        self.startup_seconds = perf_counter() - started
        self.baseline = engine.transport_stats()

    @classmethod
    def load(cls, job: dict, path: Path) -> "Sharded":
        return cls(
            job,
            ShardedDetectionEngine.load_checkpoint(
                path,
                num_workers=job["workers"],
                subtree_shards=job["subtree_shards"],
                transport=job["transport"],
            ),
        )

    def subscribe(self, observer) -> None:
        self.engine.subscribe(observer)

    def process(self, batches) -> None:
        self.engine.process_batches(batches)

    def ingest(self, batch) -> None:
        self.engine.ingest_record_batch(batch)

    def flush(self) -> None:
        self.engine.flush()

    def save(self, path: Path) -> None:
        self.engine.save_checkpoint(path)

    def state_dict(self) -> dict:
        return self.engine.state_dict()

    def anomalies(self) -> list:
        return self.engine.anomalies()[SESSION]

    def transport_delta(self) -> dict:
        """Ingest-stream transfer counters (start-up shipping excluded)."""
        now = self.engine.transport_stats()
        return {
            key: now[key] - self.baseline[key]
            for key in (
                "ships", "ship_bytes", "ship_serialized_bytes", "collect_bytes",
                "ship_seconds", "collect_seconds", "respawns",
            )
        }

    def counts(self) -> dict:
        engine = self.engine
        return _counts(
            engine.units_processed()[SESSION],
            len(self.anomalies()),
            engine.adaptation_stats()[SESSION],
            engine.close_profile()[SESSION],
            engine.memory_units(),
        )

    def close(self) -> None:
        self.engine.close()


def _counts(units, anomalies, adapt, close, memory_units) -> dict:
    return {
        "units": units,
        "anomalies": anomalies,
        "fastpath_units": adapt["fastpath_units"],
        "planned_units": adapt["planned_units"],
        "split_ops": adapt["split_operations"],
        "merge_ops": adapt["merge_operations"],
        "fused_units": close["fused_units"],
        "staged_units": close["staged_units"],
        "dense_units": close["dense_close_units"],
        "state_units": memory_units,
    }


def digest(anomalies) -> str:
    payload = json.dumps([a.to_dict() for a in anomalies], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_pass(job: dict, target, tracer: "Tracer | None" = None) -> dict:
    """One full replay of the trace through ``target`` (already built)."""
    due = DueTimes(w.DELTA)
    first_alert: dict[int, float] = {}
    closes: list[float] = []  # seconds between consecutive timeunit closes
    heavy: list[int] = []
    mark = [0.0]  # start of the ingest call / previous close

    def on_anomaly(_session, anomaly) -> None:
        first_alert.setdefault(anomaly.timeunit, perf_counter())

    def on_closed(_session, result) -> None:
        now = perf_counter()
        closes.append(now - mark[0])
        mark[0] = now
        heavy.append(result.num_heavy_hitters)

    def stage_marks() -> "tuple[dict, float] | None":
        # Cheap and local on a serial session; a worker round trip on the
        # sharded engine, where transport counters are the children instead.
        if target.mode == "serial":
            return target.stage_seconds(), target.adapt_seconds()
        return target.transport_delta(), 0.0

    def children(parent: int, start: float, before, after) -> None:
        """Lay the layers' accounted seconds out as child spans of ``parent``."""
        (b_stage, b_adapt), (a_stage, a_adapt) = before, after
        if target.mode == "serial":
            adapt = a_adapt - b_adapt
            series = a_stage["creating_time_series"] - b_stage["creating_time_series"]
            parts = (
                ("hierarchy.shhh", a_stage["updating_hierarchies"] - b_stage["updating_hierarchies"]),
                ("core.adapt", adapt),
                ("forecasting.series", max(0.0, series - adapt)),
                ("core.detect", a_stage["detecting_anomalies"] - b_stage["detecting_anomalies"]),
            )
        else:
            parts = (
                ("engine.sharded.ship", a_stage["ship_seconds"] - b_stage["ship_seconds"]),
                ("engine.sharded.collect", a_stage["collect_seconds"] - b_stage["collect_seconds"]),
            )
        for name, seconds in parts:
            tracer.add(name, start, start + seconds, parent)
            start += seconds

    def feed():
        reader = iter(read_trace_batches(job["trace_path"], w.REPLAY_BATCH))
        while True:
            read_start = perf_counter()
            batch = next(reader, None)
            now = perf_counter()
            if batch is None:
                break
            due.handed(float(batch.timestamps[0]), float(batch.timestamps[-1]), now)
            if tracer is None:
                yield batch
                continue
            tracer.add("io.read", read_start, now)
            before = stage_marks()
            mark[0] = handed = perf_counter()
            yield batch
            resumed = perf_counter()
            span = tracer.add("engine.ingest_batch", handed, resumed)
            children(span, handed, before, stage_marks())
        due.flushed(perf_counter())
        if tracer is not None:
            flush_state[:] = [perf_counter(), stage_marks()]
            mark[0] = flush_state[0]

    flush_state: list = []
    with Scaled() as region:
        target.subscribe(
            CallbackObserver(
                on_anomaly=on_anomaly,
                on_timeunit_closed=on_closed if tracer is not None else None,
            )
        )
        if tracer is None:
            target.process(feed())
        else:
            with tracer.span("pass"):
                target.process(feed())
                flushed = perf_counter()
                span = tracer.add("engine.flush", flush_state[0], flushed)
                children(span, flush_state[0], flush_state[1], stage_marks())
        anomalies = target.anomalies()
    delays = [
        (seen - due.due[unit]) * 1000.0 for unit, seen in sorted(first_alert.items())
    ]
    return {
        "wall": region.raw_seconds,
        "slowdown": region.slowdown,
        "digest": digest(anomalies),
        "delays_ms": delays,
        "closes_ms": [seconds * 1000.0 for seconds in closes],
        "heavy": heavy,
        "counts": target.counts(),
    }


class CheckpointProbe:
    """Save/restore timings on end-of-trace state.

    The state saved is the session one batch short of the end; a restore loads
    it, ingests the last batch and flushes, and must reproduce the full pass's
    detections exactly.  Samples are taken between passes, spread over the
    whole run, so that one burst of interference cannot cover them all.
    """

    def __init__(self, job: dict, make, full_digest: str):
        self.job, self.full_digest = job, full_digest
        self.path = Path(job["workdir"]) / "replay.ckpt.json"
        batches = list(read_trace_batches(job["trace_path"], w.REPLAY_BATCH))
        self.tail = batches[-1]
        self.target = make()
        for batch in batches[:-1]:
            self.target.ingest(batch)
        self.wanted = job["checkpoint_samples"] or CHECKPOINT_SAMPLES
        self.every = job["seconds"] / self.wanted
        self.last = perf_counter() - self.every
        self.save_ms: list[float] = []
        self.restore_ms: list[float] = []
        self.identical = True

    def due(self) -> bool:
        return len(self.save_ms) < self.wanted and perf_counter() - self.last >= self.every

    def sample(self) -> None:
        with Scaled() as save:
            self.target.save(self.path)
        with Scaled() as restore:
            restored = type(self.target).load(self.job, self.path)
            restored.ingest(self.tail)
            restored.flush()
        self.last = perf_counter()
        self.save_ms.append(save.seconds * 1000.0)
        self.restore_ms.append(restore.seconds * 1000.0)
        self.identical = self.identical and digest(restored.anomalies()) == self.full_digest
        restored.close()

    def breakdown(self) -> dict:
        """Traced run only: where a save and a restore spend their time."""
        state_ms, decode_ms, rebuild_ms = [], [], []
        for _ in range(self.wanted):
            with Scaled() as snapshot:
                self.target.state_dict()
            state_ms.append(snapshot.seconds * 1000.0)
            if self.target.mode == "serial":
                with Scaled() as decode:
                    state = load_session_checkpoint_state(self.path)
                with Scaled() as rebuild:
                    DetectionSession.from_state_dict(state)
                decode_ms.append(decode.seconds * 1000.0)
                rebuild_ms.append(rebuild.seconds * 1000.0)
        return {
            "state_dict_ms": state_ms,
            "read_decode_ms": decode_ms,
            "rebuild_ms": rebuild_ms,
        }

    def finish(self, traced: bool) -> dict:
        while len(self.save_ms) < self.wanted:
            self.sample()
        out = {
            "save_ms": self.save_ms,
            "restore_ms": self.restore_ms,
            "bytes": self.path.stat().st_size,
            "restore_identical": self.identical,
            **(self.breakdown() if traced else {}),
        }
        self.target.close()
        return out


def standalone_layers(job: dict) -> dict:
    """Layer costs measurable on their own: reading and classification."""
    clock = w.build_clock(job["trace"]["kind"])
    read_s, classify_s = [], []
    for _ in range(5):
        with Scaled() as read:
            batches = list(read_trace_batches(job["trace_path"], w.REPLAY_BATCH))
        with Scaled() as classify:
            for batch in batches:
                batch.timeunit_runs(clock)
        read_s.append(read.seconds)
        classify_s.append(classify.seconds)
    return {
        "read_s": median(read_s),
        "classify_s": median(classify_s),
        "batches": len(batches),
    }


def peak_rss_mb(sharded: bool) -> float:
    """Coordinator peak RSS, plus the largest (reaped) worker when sharded."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sharded:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run(job: dict) -> dict:
    sharded = "workers" in job
    make = (lambda: Sharded(job)) if sharded else (lambda: Serial(job))
    traced = bool(job["trace_run"])
    tracer = Tracer(job["workload"]) if traced else None

    first = make()
    print("READY", flush=True)
    if job.get("boot_only"):
        first.close()
        return {}
    startup_s = [first.startup_seconds] if sharded else []
    warm = run_pass(job, first)  # warm-up pass: caches filled, not timed
    first.close()

    probe = CheckpointProbe(job, make, warm["digest"])
    plain: list[dict] = []
    spanned: list[dict] = []
    started = perf_counter()
    while perf_counter() - started < job["seconds"] or len(plain) < job["min_passes"]:
        if probe.due():
            probe.sample()
        target = make()
        if sharded:
            startup_s.append(target.startup_seconds)
        plain.append(run_pass(job, target))
        if sharded:
            plain[-1]["transport"] = target.transport_delta()
        target.close()
        if traced:
            target = make()
            tracer.current_pass = len(spanned)
            spanned.append(run_pass(job, target, tracer))
            if sharded:
                spanned[-1]["transport"] = target.transport_delta()
            target.close()

    passes = [warm] + plain + spanned
    reference = warm["digest"]
    if sharded:
        serial = Serial(job)
        reference = run_pass(job, serial)["digest"]
    checks = {
        "passes_identical": all(
            p["digest"] == warm["digest"] and p["counts"] == warm["counts"]
            for p in passes
        ),
        "matches_reference": warm["digest"] == reference,
    }
    checkpoint = probe.finish(traced)
    checks["restore_identical"] = checkpoint.pop("restore_identical")

    walls = [p["wall"] for p in plain]
    delays = [d for p in plain for d in p["delays_ms"]]
    result = {
        "passes": len(plain),
        "pass_s": summary(walls),
        "machine_slowdown": median([p["slowdown"] for p in plain]),
        "records_per_s_raw": job["records"] / median(walls),
        "records_per_s": job["records"]
        / median([p["wall"] / p["slowdown"] for p in plain]),
        "alert_delay_samples": len(delays),
        "alert_delay_ms_p50": percentile(delays, 50),
        "alert_delay_ms_p90": percentile(delays, 90),
        "checkpoint_save_ms": summary(checkpoint["save_ms"]),
        "checkpoint_restore_ms": summary(checkpoint["restore_ms"]),
        "checkpoint_bytes": checkpoint["bytes"],
        "counts": warm["counts"],
        "checks": checks,
        "attempted": job["records"] * len(plain),
    }
    if traced:
        result["layers"] = layers(job, plain, spanned, checkpoint, startup_s, tracer)
        result["spans"] = tracer.spans
    result["peak_rss_mb"] = peak_rss_mb(sharded)
    return result


def layers(job, plain, spanned, checkpoint, startup_s, tracer) -> dict:
    """Per-layer numbers of the traced passes (medians over traced passes)."""
    sharded = "workers" in job
    # Like every timing of the ledger, span seconds are scaled to reference
    # machine speed by the factor probed around their pass.
    per_pass = [
        {name: own / spanned[index]["slowdown"] for name, own in tracer.self_seconds(index).items()}
        for index in range(len(spanned))
    ]

    def mid(name: str) -> float:
        return median([own.get(name, 0.0) for own in per_pass])

    def total(prefix: str) -> float:
        """Median over passes of a span plus everything under it."""
        return median(
            [
                sum(s["end"] - s["start"] for s in tracer.spans
                    if s["pass"] == index and s["name"] == prefix)
                / spanned[index]["slowdown"]
                for index in range(len(spanned))
            ]
        )

    plain_wall, traced_wall = (
        median([p["wall"] / p["slowdown"] for p in group])
        for group in (plain, spanned)
    )
    closes = [ms / p["slowdown"] for p in spanned for ms in p["closes_ms"]]
    heavy = [n for p in spanned for n in p["heavy"]]
    counts = spanned[0]["counts"]
    alone = standalone_layers(job)
    span_sum = sum(mid(name) for name in {s["name"] for s in tracer.spans})
    out = {
        "pass_traced_s": traced_wall,
        "trace_overhead_share": (traced_wall - plain_wall) / plain_wall,
        "trace_self_sum_share": span_sum / traced_wall,
        "io.columnar.read_s": alone["read_s"],
        "io.read_s": mid("io.read"),
        "io.checkpoint.bytes": checkpoint["bytes"],
        "io.checkpoint.state_dict_ms": median(checkpoint["state_dict_ms"]),
        "io.checkpoint.encode_write_ms": max(
            0.0,
            median(checkpoint["save_ms"])
            - median(checkpoint["state_dict_ms"]),
        ),
        "streaming.classify_s": alone["classify_s"],
        "streaming.records": job["records"],
        "streaming.batches": alone["batches"],
        "streaming.units": counts["units"],
        "hierarchy.nodes": len(list(w.build_tree(job["trace"]["kind"]).iter_nodes())),
        "hierarchy.heavy_mean": sum(heavy) / len(heavy),
        "core.adapt.fastpath_share": counts["fastpath_units"] / counts["units"],
        "core.adapt.split_ops": counts["split_ops"],
        "core.adapt.merge_ops": counts["merge_ops"],
        "core.close.fused_units": counts["fused_units"],
        "core.close.staged_units": counts["staged_units"],
        "core.close.dense_units": counts["dense_units"],
        "core.close_ms_p50": percentile(closes, 50),
        "core.close_ms_p99": percentile(closes, 99),
        "core.close_ms_max": max(closes),
        "core.anomalies": counts["anomalies"],
        "core.state_units": counts["state_units"],
        "engine.ingest_s": total("engine.ingest_batch"),
        "engine.ingest_self_s": mid("engine.ingest_batch"),
        "engine.flush_s": total("engine.flush"),
    }
    if sharded:
        moved = [p["transport"] for p in spanned]
        first = moved[0]
        out.update(
            {
                "engine.sharded.startup_s": median(startup_s),
                "engine.sharded.ship_s": median([m["ship_seconds"] for m in moved]),
                "engine.sharded.collect_s": median([m["collect_seconds"] for m in moved]),
                "engine.sharded.ships": first["ships"],
                "engine.sharded.ship_bytes": first["ship_bytes"],
                "engine.sharded.ship_serialized_bytes": first["ship_serialized_bytes"],
                "engine.sharded.collect_bytes": first["collect_bytes"],
                "engine.sharded.respawns": first["respawns"],
            }
        )
        out.update(transport_table(job, spanned[0]["digest"]))
    else:
        out.update(
            {
                "io.checkpoint.read_decode_ms": median(checkpoint["read_decode_ms"]),
                "io.checkpoint.rebuild_ms": median(checkpoint["rebuild_ms"]),
                "hierarchy.shhh_s": mid("hierarchy.shhh"),
                "core.adapt_s": mid("core.adapt"),
                "core.detect_s": mid("core.detect"),
                "forecasting.series_s": mid("forecasting.series"),
            }
        )
    return out


def transport_table(job: dict, expected_digest: str) -> dict:
    """One untraced pass per transport (the table ROADMAP 2(e) needs) plus
    the shard skew of the layout: max/mean records per shard."""
    out: dict = {}
    for name in TRANSPORTS:
        target = Sharded(job, transport=name)
        try:
            result = run_pass(job, target)
            moved = target.transport_delta()
            groups = target.engine.sharding_info()["sessions"][SESSION]["groups"]
        finally:
            target.close()
        if result["digest"] != expected_digest:
            raise SystemExit(f"replay: transport {name!r} changed the detections")
        out[f"engine.sharded.{name}.run_s"] = result["wall"]
        out[f"engine.sharded.{name}.ship_serialized_bytes"] = moved["ship_serialized_bytes"]
    owner = {tuple(prefix): gid for gid, group in enumerate(groups) for prefix in group}
    per_shard = [0] * len(groups)
    for batch in read_trace_batches(job["trace_path"], w.REPLAY_BATCH):
        codes = batch.category_codes.tolist()
        firsts = [owner[(category[0],)] for category in batch.code_dictionary]
        for code in codes:
            per_shard[firsts[code]] += 1
    out["engine.sharded.shard_skew"] = max(per_shard) / (sum(per_shard) / len(per_shard))
    return out


def main(argv: "list[str]") -> int:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(job)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
