"""Step 3 of the Tiresias system (Fig. 3): the offline seasonality analysis.

The online pipeline itself — classify records into timeunits (Step 1),
update the hierarchy and adapt the heavy hitters' series (Step 2), forecast
and detect (Step 4), report (Step 5) and keep consuming (Step 6) — is one
:class:`~repro.engine.session.DetectionSession`.  Step 3 runs offline, once,
on a historical trace: :func:`derive_seasonal_config` turns its seasonality
profile into the forecasting configuration the session is built with.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import TiresiasConfig
from repro.seasonality.analyzer import SeasonalityAnalyzer


def derive_seasonal_config(
    series: Sequence[float],
    config: TiresiasConfig,
    max_seasons: int = 2,
) -> TiresiasConfig:
    """Step 3: set the forecasting seasons from an offline seasonality analysis.

    ``series`` is a per-timeunit count series (typically the root aggregate of
    a historical trace).  The FFT + wavelet analyzer picks the significant
    periods and their combination weights; the returned config carries them in
    its :class:`~repro.core.config.ForecastConfig`.
    """
    analyzer = SeasonalityAnalyzer(
        timeunit_seconds=config.delta_seconds, max_seasons=max_seasons
    )
    profile = analyzer.analyze(series)
    forecast = config.forecast.with_seasons(profile.periods_timeunits, profile.weights)
    return config.replace(forecast=forecast)
