#!/usr/bin/env python3
"""The perf ledger: five pinned workloads, end-to-end and per-layer metrics.

One workload, the way the benchmark driver calls it::

    python3 benchmarks/ledger/run.py --workload replay-churn --seed 909 \\
        --seconds 10 --trace 0

generates the inputs from the seed, sets the program under test up (several
times — set-up time is a metric), measures for ``--seconds``, checks the
outputs, prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` is a separate
traced run that reports the per-layer metrics (and ``trace_overhead_share``)
and leaves the spans in ``.ledger_work/trace-<workload>.json``.

Without ``--workload`` every workload runs ``--runs`` times untraced (seeds
``seed``, ``seed+1``, ...) and once traced, each in its own child process, and
the full-schema ledger entry goes to ``--out`` for ``compare.py``.

Nothing is recorded — exit status 1, ``"correct": false`` — when detections
differ from the reference, two passes disagree on a count, a workload ends
with no anomalies or the wrong number of timeunits, or it has left the band
that makes it the workload it claims to be (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
DEFAULT_WORKDIR = ROOT / ".ledger_work"
DEFAULT_SEED = 909


@dataclass(frozen=True)
class Scale:
    """``full`` is the pinned benchmark; ``smoke`` only proves the plumbing
    (tenth of the rate, one pass, one sample) and is never comparable."""

    name: str
    rate_factor: float
    setup_reps: int
    min_passes: int
    checkpoint_samples: "int | None"  # None: the drivers' own counts


SCALES = {
    "full": Scale("full", 1.0, 3, 3, None),
    "smoke": Scale("smoke", 0.1, 1, 1, 1),
}


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def scaled(params: dict, scale: Scale) -> dict:
    """``params`` with every trace's rate multiplied by the scale factor."""
    import workloads as w

    def shrink(spec):
        return w.TraceSpec(spec.kind, spec.days, spec.rate_per_hour * scale.rate_factor, spec.theta)

    out = dict(params)
    if "trace" in out:
        out["trace"] = shrink(out["trace"])
    if "tenants" in out:
        out["tenants"] = {name: shrink(spec) for name, spec in out["tenants"].items()}
    return out


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_replay(name, params, seed, seconds, traced, workdir, scale) -> dict:
    import workloads as w
    from tracing import Scaled

    spec = params["trace"]
    trace_path = workdir / f"{spec.kind}.rcol"
    job = {
        "workload": name,
        "trace": asdict(spec),
        "trace_path": str(trace_path),
        "workdir": str(workdir),
        "seconds": seconds,
        "trace_run": traced,
        "min_passes": scale.min_passes,
        "checkpoint_samples": scale.checkpoint_samples,
        **{key: params[key] for key in ("workers", "subtree_shards", "transport") if key in params},
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(LEDGER_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    setup_s, shas, child = [], set(), None
    try:
        for rep in range(scale.setup_reps):
            with Scaled() as region:
                info = w.write_rcol(spec, seed, trace_path)
                job.update(records=info["records"], boot_only=rep < scale.setup_reps - 1)
                job_path = workdir / "job.json"
                job_path.write_text(json.dumps(job), encoding="utf-8")
                child = subprocess.Popen(
                    [sys.executable, str(LEDGER_DIR / "replay.py"), str(job_path)],
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
                if child.stdout.readline().strip() != "READY":
                    raise RuntimeError("ledger: the replay child did not become ready")
            setup_s.append(region.seconds)
            shas.add(info["trace_sha256"])
            if job["boot_only"]:
                child.communicate(timeout=120)
        output, _ = child.communicate(timeout=170)
        if child.returncode != 0:
            raise RuntimeError(f"ledger: the replay child exited with {child.returncode}")
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
    result = json.loads(output.strip().splitlines()[-1])
    result.update(
        setup_s=setup_s,
        failed=0,
        expected_units=spec.units,
        trace_sha256={spec.kind: info["trace_sha256"]},
    )
    result["checks"]["trace_deterministic"] = len(shas) == 1
    return result


def run_service(name, params, seed, seconds, traced, workdir, scale) -> dict:
    import service
    from tracing import Scaled

    setup_s, shas = [], set()
    for rep in range(scale.setup_reps):
        daemon = None
        try:
            with Scaled() as region:
                traces = service.prepare_inputs(params, seed, workdir)
                daemon = service.Daemon(
                    service.write_config(params, workdir / f"setup-{rep}")
                ).start()
        finally:
            if daemon is not None:
                daemon.kill()
        setup_s.append(region.seconds)
        shas.add(tuple(info["trace_sha256"] for info in traces.values()))
    result = service.run(name, params, seconds, traced, workdir, traces, scale)
    # A paced run offers only the prefix that is due within ``seconds``.
    offered_units = {
        tenant: int(max(body["last_ts"] for body in bodies) // 900.0) + 1
        for tenant, bodies in result.pop("offered").items()
    }
    result.update(
        setup_s=setup_s,
        expected_units=sum(offered_units.values()),
        trace_sha256={tenant: info["trace_sha256"] for tenant, info in traces.items()},
    )
    result["checks"]["trace_deterministic"] = len(shas) == 1
    return result


def guard(params: dict, result: dict, scale: Scale, traced: bool) -> list:
    """Reasons this run must not be recorded (empty when it is sound)."""
    checks, counts = result["checks"], result["counts"]
    problems = [
        f"check failed: {key}"
        for key in ("matches_reference", "passes_identical", "restore_identical", "trace_deterministic")
        if not checks[key]
    ]
    if checks.get("daemon_errors"):
        problems.append(f"daemon errors_total = {checks['daemon_errors']}")
    if counts["units"] != result["expected_units"]:
        problems.append(f"units {counts['units']} != expected {result['expected_units']}")
    if scale.name != "full":
        return problems
    if counts["anomalies"] == 0:
        problems.append("no anomalies: the workload never left warm-up")
    if "fastpath_units" in counts:
        share = counts["fastpath_units"] / counts["units"]
        if share > params.get("fastpath_share_max", 1.0) or share < params.get("fastpath_share_min", 0.0):
            problems.append(f"core.adapt.fastpath_share {share:.3f} outside the workload's band")
        if counts["dense_units"] < params.get("dense_share_min", 0.0) * counts["units"]:
            problems.append(f"core.close.dense_units {counts['dense_units']} below the workload's band")
    # A traced paced run splits its time over two passes: fewer samples, and
    # the delay percentiles are not among the metrics it reports.
    if "rate_per_s" in params and not traced and result["alert_delay_samples"] < 50:
        problems.append(f"only {result['alert_delay_samples']} alert-delay samples")
    return problems


def run_workload(name, seed, seconds, traced, workdir=DEFAULT_WORKDIR, scale=SCALES["full"]) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import workloads as w
    from tracing import summary

    params = scaled(w.WORKLOADS[name], scale)
    scratch = Path(workdir) / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_replay if params["kind"] == "replay" else run_service
        result = runner(name, params, seed, seconds, traced, scratch, scale)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    spans = result.pop("spans", None)
    if spans is not None:
        (Path(workdir) / f"trace-{name}.json").write_text(json.dumps(spans), encoding="utf-8")
    result["setup_s"] = summary(result["setup_s"])
    result["problems"] = guard(params, result, scale, traced)
    result["workload"], result["seed"], result["scale"] = name, seed, scale.name
    return result


def metric_values(result: dict, traced: bool, spec: dict) -> dict:
    """``{name: {"value", "unit"}}`` for the manifest's metrics of this mode."""
    if traced:
        layers = {
            # Whole-run numbers the untraced passes of the traced run give.
            "pass_median_s": result["pass_s"]["median"],
            "alert_delay_ms_p50": result["alert_delay_ms_p50"],
            "alert_delay_ms_p90": result["alert_delay_ms_p90"],
            "alert_delay_samples": result["alert_delay_samples"],
            "checkpoint_save_ms": result["checkpoint_save_ms"]["median"],
            "checkpoint_restore_ms": result["checkpoint_restore_ms"]["median"],
            "machine_slowdown": result["machine_slowdown"],
            "records_per_s_raw": result["records_per_s_raw"],
            **result["layers"],
        }
        # A layer the workload does not run through reports 0.
        return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    out = {}
    for m in spec["end_to_end"]:
        value = result[m["name"]]
        out[m["name"]] = {"value": value["median"] if isinstance(value, dict) else value, "unit": m["unit"]}
    return out


# ----------------------------------------------------------------------
# Ledger entries (all workloads)
# ----------------------------------------------------------------------
def environment(seed: int) -> dict:
    import workloads  # noqa: F401 - puts src/ on sys.path
    import repro
    from repro._vector import backend_tier, load_numpy

    numpy = load_numpy()
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    load = os.getloadavg()[0]
    return {
        "git_commit": commit or None,
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "backend_tier": backend_tier(),
        "nproc": os.cpu_count(),
        "load_1min_at_start": load,
        "noisy": load > 0.5 * (os.cpu_count() or 1),
        "seed": seed,
    }


def child_run(name, seed, seconds, traced, scale, workdir) -> dict:
    """One workload run in its own process; returns its full result."""
    detail = Path(workdir) / f"detail-{name}-{os.getpid()}.json"
    command = [
        sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--scale", scale.name,
        "--workdir", str(workdir), "--out", str(detail),
    ]
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"ledger: {name} seed {seed} failed; nothing recorded")
    try:
        return json.loads(detail.read_text(encoding="utf-8"))
    finally:
        detail.unlink(missing_ok=True)


def record_entry(names, seed, seconds, runs, scale, workdir, traced=True) -> dict:
    """Run every workload ``runs`` times untraced and once traced."""
    import workloads as w
    from tracing import summary

    spec = manifest()
    entry = {
        "schema": 1,
        "scale": scale.name,
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "environment": environment(seed),
        "workloads": {},
    }
    for name in w.WORKLOADS:
        if name not in names:
            entry["workloads"][name] = {"skipped": "not selected for this entry"}
            continue
        results = [child_run(name, seed + i, seconds, False, scale, workdir) for i in range(runs)]
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [metric_values(r, False, spec)[m["name"]]["value"] for r in results]
            end_to_end[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "values": values,
                **summary(values),
            }
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        block = {
            "parameters": json.loads(json.dumps(scaled(w.WORKLOADS[name], scale), default=asdict)),
            "trace_sha256": [r["trace_sha256"] for r in results],
            "end_to_end": end_to_end,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "counts": results[0]["counts"],
        }
        if traced:
            layered = child_run(name, seed, seconds, True, scale, workdir)
            block["per_layer"] = metric_values(layered, True, spec)
        else:
            block["per_layer"] = {"skipped": "entry recorded without the traced pass"}
        entry["workloads"][name] = block
    return entry


# ----------------------------------------------------------------------
def print_metrics(result: dict, values: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  scale {result['scale']}")
    for name, metric in values.items():
        detail = result.get(name)
        spread = ""
        if isinstance(detail, dict):
            spread = f"  (q1 {detail['q1']:.6g}, q3 {detail['q3']:.6g}, n {detail['n']})"
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}{spread}")
    if "alert_delay_samples" in result:
        print(f"  alert-delay samples: {result['alert_delay_samples']}, passes: {result['passes']}")
    for key, value in sorted(result["counts"].items()):
        print(f"  count {key:36s} {value}")
    for problem in result["problems"]:
        print(f"  REFUSED: {problem}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload (entry mode)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", help="write the full result / ledger entry here")
    parser.add_argument("--workdir", default=str(DEFAULT_WORKDIR))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: {ROOT}/src/repro not found — not a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(LEDGER_DIR))
    import workloads as w

    spec = manifest()
    scale = SCALES[args.scale]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    if args.workload is None:
        entry = record_entry(list(w.WORKLOADS), args.seed, seconds, args.runs, scale, workdir)
        text = json.dumps(entry, indent=1)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 0

    if args.workload not in w.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(w.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), workdir, scale)
    values = metric_values(result, bool(args.trace), spec)
    print_metrics(result, values)
    correct = not result["problems"]
    if args.out and correct:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": values,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
