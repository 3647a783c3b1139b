"""Confidence intervals: parametric (mean) and non-parametric (median).

The paper's equations 1-2 give the order-statistic indices bounding a
non-parametric CI on the **median**::

    lower = floor( (n - z*sqrt(n)) / 2 )
    upper = ceil( 1 + (n + z*sqrt(n)) / 2 )

computed on the sorted sample (1-based indices).  Following the
paper (and Le Boudec [25]), the median must lie inside the bounds and
two summaries are declared different only when their CIs do not
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InsufficientSamplesError, StatisticsError
from repro.stats.descriptive import _as_clean_array

#: Standard scores for common confidence levels.
Z_SCORES = {0.90: 1.6449, 0.95: 1.96, 0.99: 2.5758}


def z_score(confidence: float) -> float:
    """Standard normal quantile for a two-sided *confidence* level."""
    if not 0.0 < confidence < 1.0:
        raise StatisticsError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    known = Z_SCORES.get(confidence)
    if known is not None:
        return known
    from scipy import stats as scipy_stats
    return float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A confidence interval around a point estimate.

    Attributes:
        point: the estimate (median or mean).
        lower: lower bound.
        upper: upper bound.
        confidence: the confidence level, e.g. 0.95.
        kind: ``"nonparametric-median"`` or ``"parametric-mean"``.
    """

    point: float
    lower: float
    upper: float
    confidence: float
    kind: str

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise StatisticsError(
                f"CI bounds inverted: [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        """Absolute CI width."""
        return self.upper - self.lower

    def relative_error(self) -> float:
        """Half-width as a fraction of the point estimate."""
        if self.point == 0:
            return math.inf
        return (self.width / 2.0) / abs(self.point)

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """Whether two intervals overlap (cannot be distinguished)."""
        return self.lower <= other.upper and other.lower <= self.upper

    def format(self, unit: str = "") -> str:
        """Readable rendering, e.g. ``"20.00 [19.80, 20.20] us"``."""
        suffix = f" {unit}" if unit else ""
        return (f"{self.point:.2f} [{self.lower:.2f}, "
                f"{self.upper:.2f}]{suffix}")


def nonparametric_median_ci(samples: Sequence[float],
                            confidence: float = 0.95
                            ) -> ConfidenceInterval:
    """Non-parametric CI on the median (paper equations 1 and 2).

    Raises:
        InsufficientSamplesError: when the bound indices fall outside
            the sample (too few samples for the confidence level).
    """
    array = np.sort(_as_clean_array(samples, 2, "nonparametric CI"))
    n = array.size
    z = z_score(confidence)
    lower_rank = math.floor((n - z * math.sqrt(n)) / 2.0)
    upper_rank = math.ceil(1.0 + (n + z * math.sqrt(n)) / 2.0)
    if lower_rank < 1 or upper_rank > n:
        raise InsufficientSamplesError(
            needed=math.ceil(z * z) + 1, got=n,
            what=f"nonparametric {confidence:.0%} CI",
        )
    # Ranks are 1-based order statistics.
    lower = float(array[lower_rank - 1])
    upper = float(array[upper_rank - 1])
    median = float(np.median(array))
    # Guard against degenerate rounding: the median must be inside.
    lower = min(lower, median)
    upper = max(upper, median)
    return ConfidenceInterval(
        point=median, lower=lower, upper=upper,
        confidence=confidence, kind="nonparametric-median",
    )


def parametric_mean_ci(samples: Sequence[float],
                       confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t CI on the mean (assumes normally distributed samples)."""
    array = _as_clean_array(samples, 2, "parametric CI")
    n = array.size
    mean = float(np.mean(array))
    sem = float(np.std(array, ddof=1)) / math.sqrt(n)
    from scipy import stats as scipy_stats
    t = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return ConfidenceInterval(
        point=mean, lower=mean - t * sem, upper=mean + t * sem,
        confidence=confidence, kind="parametric-mean",
    )


def intervals_overlap(first: ConfidenceInterval,
                      second: ConfidenceInterval) -> bool:
    """Convenience wrapper over :meth:`ConfidenceInterval.overlaps`."""
    return first.overlaps(second)
