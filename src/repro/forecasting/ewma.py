"""The split-error analysis of Fig. 9 under EWMA smoothing.

The paper smooths with EWMA (``F[t] = α T[t-1] + (1-α) F[t-1]``) in the
``EWMA`` split rule and in the Fig. 9 analysis of how a biased split decays.
The EWMA forecast itself is the fallback level of a
:class:`~repro.forecasting.bank.ForecasterBank` row.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError


def split_bias_relative_error(
    alpha: float, bias: float, horizon: int, actual: Sequence[float] | None = None
) -> list[float]:
    """Relative forecast error after a biased split, per the paper's Eq. (1)-(2).

    A split at time ``t`` perturbs the forecast by ``bias`` (ξ).  With EWMA
    smoothing the perturbation decays as ``(1-α)^(k-1)``, so the relative
    error ``RE[t+k]`` decreases exponentially in ``k`` (Fig. 9).

    Parameters
    ----------
    alpha:
        EWMA smoothing rate.
    bias:
        Initial forecast bias ξ, in the same units as the series.
    horizon:
        Number of iterations k to evaluate (k = 1..horizon).
    actual:
        The true series ``T[t+1..t+horizon]``.  Defaults to a constant series
        of ones, matching the figure's setting ``T[i] = 1``.

    Returns
    -------
    list of ``RE[t+k]`` for k = 1..horizon.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if actual is None:
        actual = [1.0] * horizon
    if len(actual) < horizon:
        raise ConfigurationError("actual series shorter than the requested horizon")
    # Unbiased and biased forecasts advance by identical smoothing of the
    # same actual values, so their difference is exactly (1-alpha)^(k-1) * bias.
    errors: list[float] = []
    true_forecast = float(actual[0])
    biased_forecast = true_forecast + bias
    for k in range(1, horizon + 1):
        relative = abs(biased_forecast - true_forecast) / abs(true_forecast) if true_forecast else float("inf")
        errors.append(relative)
        value = float(actual[k - 1])
        true_forecast = alpha * value + (1 - alpha) * true_forecast
        biased_forecast = alpha * value + (1 - alpha) * biased_forecast
    return errors
