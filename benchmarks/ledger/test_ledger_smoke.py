"""Smoke test of the perf ledger (tier-1; writes only under ``tmp_path``).

Runs the driver command at ``--scale smoke`` — a tenth of the rate, one pass,
one sample, plumbing only — for the three replay workloads and
``service-ingest``, checks the manifest against the benchmark contract's
limits, and unit-tests ``compare.py`` on synthetic entries.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(name: str):
    """Import a ledger module by path, without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"ledger_{name}", LEDGER / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    names = [w["name"] for w in MANIFEST["workloads"]]
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(load("workloads").WORKLOADS) == {w["name"] for w in MANIFEST["workloads"]}


SMOKE_WORKLOADS = ("replay-churn", "replay-stable", "replay-sharded", "service-ingest")


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """All four smoke runs, started together so the module stays quick."""
    started = {}
    for workload in SMOKE_WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        started[workload] = workdir, subprocess.Popen(
            [
                sys.executable, str(LEDGER / "run.py"), "--workload", workload,
                "--seed", "5", "--seconds", "0.2", "--trace", "1", "--scale", "smoke",
                "--workdir", str(workdir), "--out", str(workdir / "detail.json"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    finished = {}
    try:
        for workload, (workdir, process) in started.items():
            stdout, stderr = process.communicate(timeout=170)
            finished[workload] = workdir, process.returncode, stdout, stderr
    finally:
        for _, process in started.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    return finished


@pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
def test_smoke_run_reports_every_metric(workload, smoke_runs):
    workdir, returncode, stdout, stderr = smoke_runs[workload]
    assert returncode == 0, stdout[-2000:] + stderr[-2000:]
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    for metric in MANIFEST["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))
    result = json.loads((workdir / "detail.json").read_text(encoding="utf-8"))
    assert result["scale"] == "smoke"  # tagged: compare.py refuses these
    for metric in MANIFEST["end_to_end"]:
        assert metric["name"] in result, metric["name"]
    assert (workdir / f"trace-{workload}.json").is_file()


def test_trace_bytes_follow_the_seed(tmp_path):
    workloads = load("workloads")
    spec = workloads.TraceSpec("churn", 0.25, 240.0, 6.0)
    shas = [
        workloads.write_rcol(spec, seed, tmp_path / f"{i}.rcol")["trace_sha256"]
        for i, seed in enumerate((7, 7, 8))
    ]
    assert shas[0] == shas[1] != shas[2]


def entry(median: float, q1: float, q3: float, **overrides) -> dict:
    metric = {
        "unit": "rec/s", "better": "higher", "bound": 0.1,
        "median": median, "q1": q1, "q3": q3, "n": 5, "values": [],
    }
    block = {
        "parameters": {"kind": "replay"},
        "trace_sha256": [{"churn": "ab"}],
        "end_to_end": {"records_per_s": metric},
        "per_layer": {"core.adapt_s": {"value": 0.3 * 1000 / median, "unit": "s"}},
        "counts": {"units": 384},
        "attempted": 10, "failed": 0, "failed_share": 0.0,
    }
    base = {
        "schema": 1, "scale": "full", "seed": 909, "seconds": 10, "runs": 5,
        "workloads": {"replay-churn": block},
    }
    base.update(overrides)
    return base


def test_compare_verdicts(tmp_path, capsys):
    compare = load("compare")
    parent = entry(1000.0, 990.0, 1010.0)
    verdicts = {
        "unchanged": entry(1005.0, 995.0, 1015.0),
        "improved": entry(1200.0, 1190.0, 1210.0),
        "regressed": entry(800.0, 790.0, 810.0),
        "unresolved": entry(900.0, 700.0, 1100.0),  # spread 0.44 > bound 0.1
    }
    for word, change in verdicts.items():
        lines, ok = compare.compare(parent, change)
        row = next(line for line in lines if "records_per_s" in line)
        assert row.rstrip().endswith(word), row
        assert ok is (word != "regressed")
    # A slower change lists the layer that moved under the workload's rows.
    lines, _ = compare.compare(parent, verdicts["regressed"])
    assert any("core.adapt_s" in line for line in lines)

    more_failures = copy.deepcopy(verdicts["unchanged"])
    more_failures["workloads"]["replay-churn"]["failed_share"] = 0.01
    assert compare.compare(parent, more_failures)[1] is False

    paths = []
    for name, document in (("a", parent), ("b", verdicts["regressed"])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document), encoding="utf-8")
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    capsys.readouterr()


def test_compare_refuses_entries_that_do_not_match():
    compare = load("compare")
    parent = entry(1000.0, 990.0, 1010.0)
    other_trace = copy.deepcopy(parent)
    other_trace["workloads"]["replay-churn"]["trace_sha256"] = [{"churn": "cd"}]
    other_params = copy.deepcopy(parent)
    other_params["workloads"]["replay-churn"]["parameters"] = {"kind": "service"}
    for mismatch in (
        entry(1000.0, 990.0, 1010.0, seed=910),
        entry(1000.0, 990.0, 1010.0, scale="smoke"),
        entry(1000.0, 990.0, 1010.0, seconds=5),
        other_trace,
        other_params,
    ):
        with pytest.raises(compare.NotComparable):
            compare.compare(parent, mismatch)
