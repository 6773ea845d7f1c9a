"""Shared fixtures and helpers for the benchmark / reproduction harness.

Each benchmark module regenerates one table or figure of the paper
(see DESIGN.md for the index).  Benchmarks have two outputs:

* a pytest-benchmark timing entry for the representative computation, and
* a plain-text rendering of the reproduced table/figure written to
  ``benchmarks/results/<experiment>.txt`` so the numbers can be inspected and
  copied into EXPERIMENTS.md.

The datasets used here are intentionally smaller than the paper's (days
instead of months, scaled-down hierarchies) so the full harness runs in
minutes on a laptop; the *shape* of each result -- who wins, by roughly what
factor, where the crossovers are -- is what the assertions check.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import ForecastConfig, TiresiasConfig  # noqa: E402
from repro.datagen.ccd import CCDConfig, make_ccd_dataset  # noqa: E402
from repro.datagen.generator import counts_per_timeunit  # noqa: E402
from repro.datagen.scd import SCDConfig, make_scd_dataset  # noqa: E402
from repro.evaluation.comparison import STAPass  # noqa: E402

#: Directory where each benchmark writes its reproduced table/figure.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_result(name: str, content: str) -> Path:
    """Persist a reproduced table/figure as plain text under results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    return path


def units_per_day(delta_seconds: float) -> int:
    return int(86400 / delta_seconds)


def detector_config(
    delta_seconds: float,
    theta: float = 10.0,
    window_days: float = 3.0,
    reference_levels: int = 2,
    split_rule: str = "long-term-history",
    split_ewma_alpha: float = 0.4,
) -> TiresiasConfig:
    """A Tiresias configuration scaled to the benchmark trace sizes."""
    upd = units_per_day(delta_seconds)
    return TiresiasConfig(
        theta=theta,
        ratio_threshold=2.8,
        difference_threshold=8.0,
        delta_seconds=delta_seconds,
        window_units=max(8, int(window_days * upd)),
        reference_levels=reference_levels,
        split_rule=split_rule,
        split_ewma_alpha=split_ewma_alpha,
        forecast=ForecastConfig(season_lengths=(upd,), fallback_alpha=0.3),
    )


@pytest.fixture(scope="session")
def ccd_trouble_dataset():
    """A week-long CCD trace over the trouble hierarchy with injected anomalies."""
    return make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=7.0,
            base_rate_per_hour=240.0,
            num_anomalies=5,
            anomaly_warmup_days=3.0,
            seed=2024,
        )
    )


@pytest.fixture(scope="session")
def ccd_trouble_units(ccd_trouble_dataset):
    """Per-timeunit leaf counts for the CCD trouble trace."""
    records = ccd_trouble_dataset.record_list()
    return counts_per_timeunit(
        records, ccd_trouble_dataset.clock, ccd_trouble_dataset.num_timeunits
    )


@pytest.fixture(scope="session")
def ccd_trouble_sta_pass(ccd_trouble_dataset, ccd_trouble_units):
    """One STA pass over the CCD trouble trace at theta 10 and a 3-day
    window, shared by every Table V and Fig. 12 configuration: STA reads
    neither the split rule nor the reference levels."""
    config = detector_config(ccd_trouble_dataset.config.delta_seconds, theta=10.0, window_days=3.0)
    return STAPass.run(ccd_trouble_dataset.tree, config, ccd_trouble_units, samples=8)


@pytest.fixture(scope="session")
def ccd_network_dataset():
    """A CCD trace over the (scaled) SHO/VHO/IO/CO/DSLAM network hierarchy."""
    return make_ccd_dataset(
        CCDConfig(
            dimension="network",
            duration_days=5.0,
            base_rate_per_hour=360.0,
            network_scale=0.5,
            num_anomalies=6,
            anomaly_warmup_days=2.0,
            seed=31,
        )
    )


@pytest.fixture(scope="session")
def scd_dataset():
    """An SCD trace over the (scaled) National/CO/DSLAM/STB hierarchy.

    This variant keeps the hierarchy wide (thousands of leaves) so the Fig. 1
    and Fig. 2 characterization benches see the paper's sparsity regime.
    """
    return make_scd_dataset(
        SCDConfig(
            duration_days=5.0,
            base_rate_per_hour=400.0,
            network_scale=0.2,
            num_anomalies=4,
            anomaly_warmup_days=2.0,
            seed=77,
        )
    )


@pytest.fixture(scope="session")
def scd_compact_dataset():
    """A compact SCD trace used for the §VII-A ADA-vs-STA comparison.

    The heavy hitter algorithms are compared on a narrower tree where the
    per-node volumes are comparable to the paper's heavy hitters; the wide
    characterization tree spreads the laptop-scale volume so thinly that
    almost nothing crosses the heavy hitter threshold.
    """
    return make_scd_dataset(
        SCDConfig(
            duration_days=5.0,
            base_rate_per_hour=400.0,
            network_scale=0.03,
            num_anomalies=4,
            anomaly_warmup_days=2.0,
            seed=78,
        )
    )


@pytest.fixture(scope="session")
def scd_compact_units(scd_compact_dataset):
    records = scd_compact_dataset.record_list()
    return counts_per_timeunit(
        records, scd_compact_dataset.clock, scd_compact_dataset.num_timeunits
    )


@pytest.fixture(scope="session")
def scd_units(scd_dataset):
    records = scd_dataset.record_list()
    return counts_per_timeunit(records, scd_dataset.clock, scd_dataset.num_timeunits)
