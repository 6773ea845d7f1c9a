#!/usr/bin/env python3
"""Run shard workers in *separate processes* that dial in over TCP.

The pipe and shared-memory transports spawn their own workers; the TCP
transport can instead coordinate workers it did **not** start — other
processes, containers, or hosts.  The contract is small:

* the coordinator builds ``TcpTransport(spawn_workers=False)``, calls
  :meth:`~repro.engine.transport.tcp.TcpTransport.listen` to learn its
  port, and hands the transport to a :class:`ShardedDetectionEngine`;
* each worker runs :func:`repro.engine.transport.run_worker(host, port)`
  — a blocking loop that serves shard sessions until the coordinator
  stops it.  Workers retry the dial briefly, so start order is free.

This example demonstrates both roles and proves the cross-process claim:
``--mode smoke`` (the default, used by CI) launches two *independent*
worker processes with ``subprocess`` — fresh interpreters, no inherited
state, exactly like remote hosts — ingests a CCD workload through them,
and asserts the detections and the merged checkpoint equal a serial run.

``--mode kill-smoke`` is the fault-tolerance variant CI's chaos job runs:
it SIGKILLs one live worker process at a seeded point mid-stream, launches
a replacement that dials back in, and asserts the supervisor's recovery
(respawn + snapshot restore + batch replay) still produces detections
bit-identical to a serial run.  The fault seed is printed so any failure
is reproducible with ``--fault-seed``.

Run the one-command smoke::

    python examples/remote_workers.py

or play coordinator/worker by hand in three terminals::

    terminal 1:  python examples/remote_workers.py --mode coordinator --workers 2
                 # prints "listening on 127.0.0.1:PORT"
    terminal 2:  python examples/remote_workers.py --mode worker --port PORT
    terminal 3:  python examples/remote_workers.py --mode worker --port PORT
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
import time

from repro import (
    CCDConfig,
    DetectionEngine,
    ShardedDetectionEngine,
    TiresiasConfig,
    ForecastConfig,
    make_ccd_dataset,
)
from repro.engine.transport import TcpTransport, run_worker
from repro.streaming.batch import iter_record_batches

DELTA = 900.0
UNITS_PER_DAY = int(86400 / DELTA)


def make_workload():
    dataset = make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=2.0,
            delta_seconds=DELTA,
            base_rate_per_hour=300.0,
            num_anomalies=3,
            anomaly_warmup_days=1.0,
            seed=4242,
        )
    )
    config = TiresiasConfig(
        theta=6.0,
        ratio_threshold=2.8,
        difference_threshold=8.0,
        delta_seconds=DELTA,
        window_units=UNITS_PER_DAY,
        reference_levels=2,
        track_root=False,
        allow_root_heavy=False,
        forecast=ForecastConfig(season_lengths=(UNITS_PER_DAY,), fallback_alpha=0.3),
    )
    return dataset, config


def run_coordinator(host: str, port: int, workers: int, quiet: bool = False):
    """Serve a workload through externally-started TCP workers.

    Returns ``(results, anomalies, state)`` for the caller to compare.
    """
    dataset, config = make_workload()
    transport = TcpTransport(host=host, port=port, spawn_workers=False)
    bound = transport.listen()
    print(f"listening on {host}:{bound} — waiting for {workers} worker(s)")
    sys.stdout.flush()
    with ShardedDetectionEngine(num_workers=workers, transport=transport) as engine:
        engine.add_session(
            "ccd", dataset.tree, config, clock=dataset.clock, subtree_shards=workers
        )
        results = engine.process_batches(
            iter_record_batches(dataset.record_list(), 8192)
        )["ccd"]
        anomalies = [a.to_dict() for a in engine.anomalies()["ccd"]]
        state = engine.state_dict()
        stats = engine.transport_stats()
    if not quiet:
        print(
            f"coordinator: {len(results)} timeunits, {len(anomalies)} anomalies "
            f"through {stats['ships']} tcp frames "
            f"({stats['ship_bytes']} B shipped, "
            f"{stats['ship_serialized_bytes']} B of it pickled)"
        )
    return results, anomalies, state


def _launch_worker(port: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, __file__, "--mode", "worker", "--port", str(port)]
    )


def run_smoke(workers: int) -> None:
    """Cross-process proof: subprocess workers, serial-equality asserts."""
    transport = TcpTransport(spawn_workers=False)
    port = transport.listen()
    print(f"smoke: coordinator listening on 127.0.0.1:{port}")
    procs = [_launch_worker(port) for _ in range(workers)]
    try:
        dataset, config = make_workload()
        records = dataset.record_list()  # resamples per call — take one draw
        with ShardedDetectionEngine(
            num_workers=workers, transport=transport
        ) as engine:
            engine.add_session(
                "ccd",
                dataset.tree,
                config,
                clock=dataset.clock,
                subtree_shards=workers,
            )
            results = engine.process_batches(
                iter_record_batches(records, 8192)
            )["ccd"]
            anomalies = [a.to_dict() for a in engine.anomalies()["ccd"]]
            state = engine.state_dict()
    finally:
        deadline = time.monotonic() + 10
        for proc in procs:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))

    serial = DetectionEngine()
    serial.add_session("ccd", dataset.tree, config, clock=dataset.clock)
    serial_results = serial.process_batches(
        iter_record_batches(records, 8192)
    )["ccd"]
    serial_anomalies = [a.to_dict() for a in serial.anomalies()["ccd"]]

    assert results == serial_results, "remote-worker detections diverged!"
    assert anomalies == serial_anomalies, "remote-worker anomalies diverged!"
    resumed = DetectionEngine.from_state_dict(state)
    assert "ccd" in resumed.session_names
    print(
        f"smoke OK: {workers} subprocess workers, {len(results)} timeunits, "
        f"{len(anomalies)} anomalies — identical to serial, checkpoint loads "
        f"serially"
    )


def run_kill_smoke(workers: int, seed: int) -> None:
    """Worker-kill proof: SIGKILL a live worker mid-stream, recover, compare.

    The fault point is drawn from ``seed`` (victim process + batch ordinal)
    and printed up front, so a red CI leg is reproducible verbatim with
    ``--mode kill-smoke --fault-seed N``.
    """
    rng = random.Random(seed)
    victim_index = rng.randrange(workers)
    kill_before_batch = rng.randrange(3, 9)
    print(
        f"kill-smoke: fault seed={seed} -> SIGKILL worker process "
        f"#{victim_index} before batch {kill_before_batch}"
    )
    transport = TcpTransport(spawn_workers=False, accept_timeout=30.0)
    port = transport.listen()
    print(f"kill-smoke: coordinator listening on 127.0.0.1:{port}")
    procs = [_launch_worker(port) for _ in range(workers)]

    dataset, config = make_workload()
    records = dataset.record_list()  # resamples per call — take one draw

    def batches_with_fault():
        for index, batch in enumerate(iter_record_batches(records, 1024)):
            if index == kill_before_batch:
                victim = procs[victim_index]
                victim.kill()
                victim.wait()
                # The replacement dials in while the supervisor's respawn
                # waits on the listener — exactly how an external fleet
                # replaces a crashed host.
                procs.append(_launch_worker(port))
                print(f"kill-smoke: worker pid {victim.pid} killed, "
                      f"replacement launched")
            yield batch

    try:
        with ShardedDetectionEngine(
            num_workers=workers, transport=transport
        ) as engine:
            engine.add_session(
                "ccd",
                dataset.tree,
                config,
                clock=dataset.clock,
                subtree_shards=workers,
            )
            results = engine.process_batches(batches_with_fault())["ccd"]
            anomalies = [a.to_dict() for a in engine.anomalies()["ccd"]]
            state = engine.state_dict()
            recoveries = engine.recoveries_total
            replayed = engine.replayed_batches_total
            info = engine.sharding_info()["supervision"]
    finally:
        deadline = time.monotonic() + 10
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    assert recoveries >= 1, "the kill never triggered a recovery!"
    assert not info["recovering"]

    serial = DetectionEngine()
    serial.add_session("ccd", dataset.tree, config, clock=dataset.clock)
    serial_results = serial.process_batches(
        iter_record_batches(records, 1024)
    )["ccd"]
    serial_anomalies = [a.to_dict() for a in serial.anomalies()["ccd"]]

    assert results == serial_results, "post-recovery detections diverged!"
    assert anomalies == serial_anomalies, "post-recovery anomalies diverged!"
    resumed = DetectionEngine.from_state_dict(state)
    assert "ccd" in resumed.session_names
    print(
        f"kill-smoke OK: seed={seed}, {recoveries} recovery(ies), "
        f"{replayed} batch(es) replayed — detections identical to serial, "
        f"checkpoint loads serially"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=("smoke", "kill-smoke", "coordinator", "worker"),
        default="smoke",
        help="smoke = coordinator + subprocess workers + equality asserts; "
        "kill-smoke = same, but SIGKILL one worker mid-stream and assert "
        "supervised recovery",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="coordinator: bind port (0 = pick); "
        "worker: the coordinator's port (required)"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=1729,
        help="kill-smoke: seed for the victim/batch fault point (printed)",
    )
    args = parser.parse_args()
    if args.mode == "worker":
        if not args.port:
            parser.error("--mode worker requires --port")
        run_worker(args.host, args.port)
    elif args.mode == "coordinator":
        run_coordinator(args.host, args.port, args.workers)
    elif args.mode == "kill-smoke":
        run_kill_smoke(args.workers, args.fault_seed)
    else:
        run_smoke(args.workers)


if __name__ == "__main__":
    main()
