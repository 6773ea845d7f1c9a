"""Synthetic operational-data generation.

The paper evaluates on proprietary AT&T customer-care call logs (CCD) and
set-top-box crash logs (SCD).  This package generates laptop-scale synthetic
equivalents with the published characteristics -- hierarchy shapes (Table II),
ticket-type mix (Table I), diurnal/weekly seasonality (Fig. 2, Fig. 11),
sparsity and volatility (Fig. 1) -- plus exact ground-truth anomaly
injections for the detection-accuracy experiments.

Generated traces are reproducible byte for byte: a dataset is a pure function
of its configuration and seed, and the array-speed draws equal the
``random.Random`` calls they replace (``tests/datagen/test_vector_draws.py``),
so the committed golden traces regenerate unchanged
(``tests/datagen/test_golden_bytes.py``).
"""

from repro.datagen.anomalies import AnomalyInjector, InjectedAnomaly, random_injection_plan
from repro.datagen.arrival import (
    SeasonalRateModel,
    hour_of_peak,
    spread_uniformly,
    zipf_weights,
)
from repro.datagen.ccd import CCD_TICKET_MIX, CCDConfig, CCDDataset, make_ccd_dataset
from repro.datagen.generator import TraceGenerator, counts_per_timeunit
from repro.datagen.scd import SCDConfig, SCDDataset, make_scd_dataset

__all__ = [
    "SeasonalRateModel",
    "zipf_weights",
    "spread_uniformly",
    "hour_of_peak",
    "InjectedAnomaly",
    "AnomalyInjector",
    "random_injection_plan",
    "TraceGenerator",
    "counts_per_timeunit",
    "CCDConfig",
    "CCDDataset",
    "CCD_TICKET_MIX",
    "make_ccd_dataset",
    "SCDConfig",
    "SCDDataset",
    "make_scd_dataset",
]
