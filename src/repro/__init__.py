"""repro: a reproduction of Tiresias (Hong et al., ICDCS 2012).

Tiresias performs online anomaly detection over hierarchical operational
network data (customer care call logs, set-top-box crash logs).  The library
provides:

* the hierarchical-domain and streaming substrates (``repro.hierarchy``,
  ``repro.streaming``);
* the forecasting and seasonality analysis toolkit (``repro.forecasting``,
  ``repro.seasonality``);
* the core contribution -- succinct hierarchical heavy hitters, the STA and
  ADA tracking algorithms, the dual-threshold detector (``repro.core``),
  both resolvable by name through the pluggable registries
  (``repro.core.registry``);
* the engine layer -- multi-session detection over merged streams, lifecycle
  hooks, and JSON checkpoint/restore (``repro.engine``, ``repro.io``);
* synthetic CCD/SCD dataset generators with ground-truth anomaly injection
  (``repro.datagen``);
* the baselines and evaluation harness used to regenerate the paper's tables
  and figures (``repro.baselines``, ``repro.evaluation``).

Quickstart (single hierarchy, engine API)::

    from repro import (
        CallbackObserver, DetectionEngine, TiresiasConfig, make_ccd_dataset,
    )

    dataset = make_ccd_dataset()
    engine = DetectionEngine()
    engine.add_session(
        "ccd",
        dataset.tree,
        TiresiasConfig(theta=12, window_units=672),
        algorithm="ada",
        clock=dataset.clock,
    )
    engine.subscribe(CallbackObserver(
        on_anomaly=lambda session, a: print(session.name, a.node_path, a.ratio)
    ))
    engine.process_stream(dataset.records())
    engine.save_checkpoint("ccd.ckpt.json")   # resume later with
    # engine = DetectionEngine.load_checkpoint("ccd.ckpt.json")

One hierarchy needs no engine: a
:class:`~repro.engine.session.DetectionSession` takes the same arguments as
``add_session`` and has the same ``process_stream`` / ``anomalies`` /
``save_checkpoint`` surface::

    from repro import DetectionSession, TiresiasConfig, make_ccd_dataset

    dataset = make_ccd_dataset()
    session = DetectionSession(dataset.tree, TiresiasConfig(theta=12, window_units=672))
    session.process_stream(dataset.records())
    for anomaly in session.anomalies:
        print(anomaly.node_path, anomaly.timeunit, anomaly.ratio)
"""

from repro.core import (
    ADAAlgorithm,
    Anomaly,
    AnomalyQuery,
    AnomalyReportStore,
    ForecastConfig,
    STAAlgorithm,
    ThresholdDetector,
    TimeunitResult,
    TiresiasConfig,
    available_algorithms,
    available_forecasters,
    compute_hhh,
    compute_shhh,
    derive_seasonal_config,
    register_algorithm,
    register_forecaster,
)
from repro.datagen import (
    CCDConfig,
    SCDConfig,
    make_ccd_dataset,
    make_scd_dataset,
)
from repro.engine import (
    CallbackObserver,
    DetectionEngine,
    DetectionSession,
    EngineObserver,
    ShardedDetectionEngine,
)
from repro.hierarchy import (
    HierarchyNode,
    HierarchyTree,
    build_ccd_network_tree,
    build_ccd_trouble_tree,
    build_scd_network_tree,
)
from repro.io import (
    load_checkpoint,
    read_batches_csv,
    read_batches_jsonl,
    save_checkpoint,
)
from repro.streaming import (
    InputStream,
    OperationalRecord,
    RecordBatch,
    SimulationClock,
    iter_record_batches,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "TiresiasConfig",
    "ForecastConfig",
    "derive_seasonal_config",
    "DetectionEngine",
    "ShardedDetectionEngine",
    "DetectionSession",
    "EngineObserver",
    "CallbackObserver",
    "register_algorithm",
    "register_forecaster",
    "available_algorithms",
    "available_forecasters",
    "save_checkpoint",
    "load_checkpoint",
    "ADAAlgorithm",
    "STAAlgorithm",
    "ThresholdDetector",
    "Anomaly",
    "AnomalyReportStore",
    "AnomalyQuery",
    "TimeunitResult",
    "compute_hhh",
    "compute_shhh",
    "HierarchyTree",
    "HierarchyNode",
    "build_ccd_trouble_tree",
    "build_ccd_network_tree",
    "build_scd_network_tree",
    "OperationalRecord",
    "RecordBatch",
    "iter_record_batches",
    "InputStream",
    "SimulationClock",
    "read_batches_csv",
    "read_batches_jsonl",
    "CCDConfig",
    "SCDConfig",
    "make_ccd_dataset",
    "make_scd_dataset",
]
