"""Diagnostics for the iid assumption (paper Section III, "IID samples").

Confidence intervals require independent, identically-distributed
samples.  The paper's protocol (one sample per run, environment reset
between runs) is designed to guarantee this; these diagnostics are the
checks it recommends when in doubt: autocorrelation, lag plots and the
turning-point test.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import InsufficientSamplesError, StatisticsError
from repro.stats.descriptive import _as_clean_array


def autocorrelation(samples: Sequence[float], lag: int = 1) -> float:
    """Sample autocorrelation of *samples* at *lag*.

    Returns a value in [-1, 1]; values near 0 indicate no correlation
    between a sample and its lagged self (supporting independence).

    Raises:
        StatisticsError: non-positive lag, or lag >= sample count.
    """
    array = _as_clean_array(samples, 2, "autocorrelation")
    if lag < 1:
        raise StatisticsError(f"lag must be >= 1, got {lag}")
    if lag >= array.size:
        raise StatisticsError(
            f"lag {lag} too large for {array.size} samples"
        )
    centered = array - np.mean(array)
    denominator = float(np.dot(centered, centered))
    if denominator == 0.0:
        return 0.0
    numerator = float(np.dot(centered[:-lag], centered[lag:]))
    return numerator / denominator


def autocorrelation_profile(samples: Sequence[float],
                            max_lag: int = 10) -> List[float]:
    """Autocorrelation at lags ``1..max_lag`` (clipped to n-1)."""
    array = _as_clean_array(samples, 3, "autocorrelation profile")
    limit = min(max_lag, array.size - 1)
    return [autocorrelation(array, lag) for lag in range(1, limit + 1)]


def lag_pairs(samples: Sequence[float],
              lag: int = 1) -> List[Tuple[float, float]]:
    """The ``(x[i], x[i+lag])`` pairs a lag plot would draw."""
    array = _as_clean_array(samples, 2, "lag pairs")
    if lag < 1 or lag >= array.size:
        raise StatisticsError(
            f"lag must be in [1, {array.size - 1}], got {lag}"
        )
    return list(zip(array[:-lag].tolist(), array[lag:].tolist()))


def turning_point_test(samples: Sequence[float],
                       alpha: float = 0.05) -> Tuple[bool, float]:
    """Turning-point test for randomness.

    A point is a turning point when it is a strict local max or min.
    For an iid sequence of length n the count is asymptotically normal
    with mean ``2(n-2)/3`` and variance ``(16n-29)/90``.

    Returns:
        ``(looks_random, p_value)`` -- *looks_random* is True when the
        null hypothesis of randomness is not rejected at *alpha*.
    """
    if not 0.0 < alpha < 1.0:
        raise StatisticsError(f"alpha must be in (0, 1), got {alpha}")
    array = _as_clean_array(samples, 3, "turning point test")
    n = array.size
    turning_points = 0
    for index in range(1, n - 1):
        left, mid, right = array[index - 1], array[index], array[index + 1]
        if (mid > left and mid > right) or (mid < left and mid < right):
            turning_points += 1
    expected = 2.0 * (n - 2) / 3.0
    variance = (16.0 * n - 29.0) / 90.0
    if variance <= 0:
        raise InsufficientSamplesError(4, n, "turning point test")
    z = (turning_points - expected) / math.sqrt(variance)
    from scipy import stats as scipy_stats
    p_value = float(2.0 * (1.0 - scipy_stats.norm.cdf(abs(z))))
    return (p_value >= alpha, p_value)
