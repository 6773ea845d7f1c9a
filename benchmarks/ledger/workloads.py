"""Pinned workloads of the perf ledger: traces, detector config, parameters.

Two synthetic traces feed five workloads (see README.md for why each one is
here).  The hierarchy, rates, θ and Δ are part of the pinned workload; the
``--seed`` varies only the traffic — leaf popularity, arrival noise and where
the flash crowds / bursts land — so runs on different seeds stay comparable.
The program under test never sees a generator: it gets ``.rcol`` files or
NDJSON bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.config import ForecastConfig, TiresiasConfig  # noqa: E402
from repro.datagen.anomalies import InjectedAnomaly  # noqa: E402
from repro.datagen.arrival import SeasonalRateModel  # noqa: E402
from repro.datagen.ccd import CCD_TICKET_MIX  # noqa: E402
from repro.datagen.generator import TraceGenerator  # noqa: E402
from repro.hierarchy.builders import (  # noqa: E402
    build_ccd_trouble_tree,
    build_scd_network_tree,
)
from repro.io.columnar import write_trace_columnar  # noqa: E402
from repro.streaming.clock import HOUR, SimulationClock  # noqa: E402

DELTA = 900.0
UNITS_PER_DAY = int(86400 / DELTA)
REPLAY_BATCH = 8192
#: Seeds of the pinned hierarchies (the values the old harness used).
TREE_SEED = {"churn": 777, "stable": 77}


@dataclass(frozen=True)
class TraceSpec:
    kind: str  # "churn" (CCD trouble tree, rotating flash crowds) | "stable" (SCD)
    days: float
    rate_per_hour: float
    theta: float

    @property
    def units(self) -> int:
        return int(self.days * UNITS_PER_DAY)


#: name -> parameters.  ``kind`` picks the driver (replay child / daemon).
WORKLOADS: dict[str, dict] = {
    "replay-churn": {
        "kind": "replay",
        "trace": TraceSpec("churn", 4.0, 1200.0, 6.0),
        "fastpath_share_max": 0.05,
    },
    "replay-stable": {
        "kind": "replay",
        "trace": TraceSpec("stable", 4.0, 2400.0, 30.0),
        "fastpath_share_min": 0.9,
        "dense_share_min": 0.9,
    },
    "replay-sharded": {
        "kind": "replay",
        "trace": TraceSpec("churn", 4.0, 1200.0, 6.0),
        "workers": 2,
        "subtree_shards": 2,
        "transport": "pipe",
    },
    "service-ingest": {
        "kind": "service",
        "tenants": {
            "ccd": TraceSpec("churn", 2.0, 1200.0, 6.0),
            "scd": TraceSpec("stable", 1.0, 2400.0, 30.0),
        },
        "post_records": 4096,
        "warmup_units": UNITS_PER_DAY,
        "checkpoint_interval": 3600.0,
    },
    "service-paced": {
        "kind": "service",
        "tenants": {"ccd": TraceSpec("churn", 3.0, 1200.0, 6.0)},
        "rate_per_s": 12000.0,
        "chunks_per_unit": 4,
        "warmup_units": UNITS_PER_DAY,
        "checkpoint_interval": 1.0,
    },
}


def build_tree(kind: str):
    if kind == "churn":
        return build_ccd_trouble_tree(seed=TREE_SEED["churn"])
    return build_scd_network_tree(seed=TREE_SEED["stable"], scale=0.05)


def build_clock(kind: str) -> SimulationClock:
    # Saturday start for CCD, Thursday for SCD, as in repro.datagen.
    weekday = 5 if kind == "churn" else 3
    return SimulationClock(delta=DELTA, epoch=0.0, epoch_weekday=weekday, epoch_hour=0.0)


def detector_config(theta: float, days: float) -> TiresiasConfig:
    """``bench_ingest.detector_config`` values (RT=2.8, DT=8, one daily season,
    root untracked so the identical config runs serial and subtree-sharded)."""
    return TiresiasConfig(
        theta=theta,
        ratio_threshold=2.8,
        difference_threshold=8.0,
        delta_seconds=DELTA,
        window_units=max(8, int(min(6.0, days) * UNITS_PER_DAY)),
        reference_levels=2,
        track_root=False,
        allow_root_heavy=False,
        forecast=ForecastConfig(season_lengths=(UNITS_PER_DAY,), fallback_alpha=0.3),
    )


def _churn_generator(spec: TraceSpec, seed: int) -> TraceGenerator:
    """The ``build_churn_workload`` recipe: three concurrent flash crowds at
    random depth-2/3 subtrees, moving to fresh subtrees every 16 timeunits, so
    the tracker runs SPLIT cascades and MERGE folds in every rotation."""
    tree = build_tree("churn")
    base = spec.rate_per_hour / HOUR
    rng = random.Random(seed + 99)
    candidates = [node for node in tree.iter_nodes() if node.depth in (2, 3)]
    rotation, crowds = 16, 3
    crowds_plan = []
    for start_unit in range(0, spec.units, rotation):
        span = min(rotation, spec.units - start_unit) * DELTA
        for _ in range(crowds):
            crowds_plan.append(
                InjectedAnomaly(
                    node_path=rng.choice(candidates).path,
                    start=start_unit * DELTA,
                    duration=span,
                    extra_rate=base * 0.15,
                    label=f"flash-{start_unit}",
                )
            )
    return TraceGenerator(
        tree=tree,
        rate_model=SeasonalRateModel(
            base_rate=base,
            diurnal_strength=0.4,
            peak_hour=16.0,
            weekly_strength=0.1,
            volatility=0.1,
        ),
        clock=build_clock("churn"),
        top_level_weights=CCD_TICKET_MIX,
        zipf_exponent=1.3,
        seed=seed,
        anomalies=crowds_plan,
    )


def _stable_generator(spec: TraceSpec, seed: int) -> TraceGenerator:
    """SCD trace (``SCDConfig`` defaults) with a constant heavy-hitter set.
    Two-hour bursts of fixed strength at first-level nodes, one per day after
    the two-season warm-up, give every seed detections to check."""
    tree = build_tree("stable")
    base = spec.rate_per_hour / HOUR
    rng = random.Random(seed + 13)
    candidates = [node for node in tree.iter_nodes() if node.depth == 1]
    bursts = [
        InjectedAnomaly(
            node_path=rng.choice(candidates).path,
            start=(day * UNITS_PER_DAY + rng.randrange(8, UNITS_PER_DAY - 16)) * DELTA,
            duration=8 * DELTA,
            extra_rate=base * 0.15,
            label=f"burst-{day}",
        )
        for day in range(2, int(spec.days))
    ]
    return TraceGenerator(
        tree=tree,
        rate_model=SeasonalRateModel(
            base_rate=base,
            diurnal_strength=0.5,
            peak_hour=20.0,
            weekly_strength=0.08,
            volatility=0.15,
        ),
        clock=build_clock("stable"),
        zipf_exponent=0.9,
        seed=seed,
        anomalies=bursts,
    )


def generate_records(spec: TraceSpec, seed: int) -> list:
    make = _churn_generator if spec.kind == "churn" else _stable_generator
    return make(spec, seed).generate_list(spec.days * 86400.0)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_rcol(spec: TraceSpec, seed: int, path: Path) -> dict:
    """Generate ``spec`` from ``seed`` straight into a columnar trace file."""
    count = write_trace_columnar(generate_records(spec, seed), path)
    return {"records": count, "units": spec.units, "trace_sha256": sha256_file(path)}


def write_ndjson(spec: TraceSpec, seed: int, path: Path) -> dict:
    """Generate ``spec`` as NDJSON (the service wire format).  Returns the
    encoded lines and their timestamps as well: the load generators slice
    request bodies out of them without parsing anything back."""
    records = generate_records(spec, seed)
    lines = [
        json.dumps(record.to_dict(), sort_keys=True).encode("utf-8") + b"\n"
        for record in records
    ]
    path.write_bytes(b"".join(lines))
    return {
        "records": len(lines),
        "units": spec.units,
        "trace_sha256": sha256_file(path),
        "lines": lines,
        "timestamps": [record.timestamp for record in records],
    }
