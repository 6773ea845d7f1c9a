"""Fig. 12: absolute error of ADA's adapted time series vs STA's exact series.

The paper measures the per-timeunit absolute error of ADA's time series
(averaged over heavy hitters) against the series STA reconstructs, broken
down (a) by timeunit age and (b) by hierarchy depth, for different split
rules and numbers of reference levels h: two reference levels bring the error
to ~1 %, Long-Term-History is slightly more accurate than the other rules,
and the error is stable across timeunit ages.  The benchmark reproduces both
breakdowns on a synthetic CCD trace.
"""

from __future__ import annotations

import pytest

from repro.evaluation.comparison import AlgorithmComparator

from conftest import detector_config, units_per_day, write_result

#: (label, split rule, ewma alpha, reference levels) series of Fig. 12.
CURVES = [
    ("Long-Term-History; h=0", "long-term-history", 0.4, 0),
    ("Long-Term-History; h=1", "long-term-history", 0.4, 1),
    ("Long-Term-History; h=2", "long-term-history", 0.4, 2),
    ("EWMA a=0.8; h=2", "ewma", 0.8, 2),
    ("EWMA a=0.4; h=2", "ewma", 0.4, 2),
    ("Last-Time-Unit; h=2", "last-time-unit", 0.4, 2),
    ("Uniform; h=2", "uniform", 0.4, 2),
]


@pytest.mark.benchmark(group="fig12")
def test_fig12_series_error_by_age_and_depth(
    benchmark, ccd_trouble_dataset, ccd_trouble_units, ccd_trouble_sta_pass
):
    dataset = ccd_trouble_dataset
    units = ccd_trouble_units
    warmup = units_per_day(dataset.config.delta_seconds) // 2

    def evaluate_all():
        stats = {}
        for label, split_rule, alpha, h in CURVES:
            config = detector_config(
                dataset.config.delta_seconds,
                theta=10.0,
                window_days=3.0,
                reference_levels=h,
                split_rule=split_rule,
                split_ewma_alpha=alpha,
            )
            comparator = AlgorithmComparator(
                dataset.tree,
                config,
                series_error_samples=8,
                warmup_units=warmup,
                sta_pass=ccd_trouble_sta_pass,
            )
            comparator.process_many(units)
            stats[label] = comparator.report().series_errors
        return stats

    stats = benchmark.pedantic(evaluate_all, rounds=1, iterations=1)

    lines = [f"Fig. 12(a) - mean relative series error by timeunit age ({len(units)} units)", ""]
    ages = sorted({age for s in stats.values() for age in s.mean_by_age()})
    header = f"{'configuration':<26}" + "".join(f"t-{age:<6}" for age in ages)
    lines.append(header)
    for label, s in stats.items():
        by_age = s.mean_by_age()
        lines.append(
            f"{label:<26}" + "".join(f"{by_age.get(age, 0.0):<8.3%}" for age in ages)
        )
    lines.append("")
    lines.append("Fig. 12(b) - mean relative series error by hierarchy depth")
    depths = sorted({d for s in stats.values() for d in s.mean_by_depth()})
    header = f"{'configuration':<26}" + "".join(f"d={depth:<6}" for depth in depths)
    lines.append(header)
    for label, s in stats.items():
        by_depth = s.mean_by_depth()
        lines.append(
            f"{label:<26}" + "".join(f"{by_depth.get(depth, 0.0):<8.3%}" for depth in depths)
        )
    write_result("fig12_series_error", "\n".join(lines))

    lth = {h: stats[f"Long-Term-History; h={h}"].overall_mean() for h in (0, 1, 2)}
    # Reference time series reduce (or at least never worsen) the error, and
    # with two levels the error sits in the few-percent regime the paper shows.
    assert lth[2] <= lth[0] + 1e-9
    assert lth[2] < 0.10
    # Every configuration keeps the error well below the series magnitude.
    assert all(s.overall_mean() < 0.5 for s in stats.values())
