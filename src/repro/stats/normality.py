"""Normality testing (Shapiro-Wilk) and frequency charts.

The paper tests every configuration's 50 run-samples with the
Shapiro-Wilk test [37] at a 5% significance level before choosing
between the parametric and CONFIRM repetition-count methods (Fig. 8,
Table IV), and illustrates a skewed high-QPS configuration with a
frequency chart (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import StatisticsError
from repro.stats.descriptive import _as_clean_array


@dataclass(frozen=True)
class NormalityResult:
    """Outcome of one Shapiro-Wilk test.

    Attributes:
        statistic: the W statistic.
        p_value: probability of the data under the null (normality).
        alpha: significance level used for the verdict.
        normal: True when the null is *not* rejected (p >= alpha).
    """

    statistic: float
    p_value: float
    alpha: float
    normal: bool

    @property
    def verdict(self) -> str:
        """``"pass"`` (normal) or ``"fail"`` -- Table IV's wording."""
        return "pass" if self.normal else "fail"


def shapiro_wilk(samples: Sequence[float],
                 alpha: float = 0.05) -> NormalityResult:
    """Run the Shapiro-Wilk test on *samples*.

    Raises:
        InsufficientSamplesError: fewer than 3 samples.
        StatisticsError: invalid alpha or degenerate input.
    """
    if not 0.0 < alpha < 1.0:
        raise StatisticsError(f"alpha must be in (0, 1), got {alpha}")
    array = _as_clean_array(samples, 3, "Shapiro-Wilk test")
    if np.ptp(array) == 0.0:
        # All samples identical: scipy raises; the data is trivially
        # non-normal (a point mass), so report a hard fail.
        return NormalityResult(
            statistic=0.0, p_value=0.0, alpha=alpha, normal=False)
    from scipy import stats as scipy_stats
    statistic, p_value = scipy_stats.shapiro(array)
    return NormalityResult(
        statistic=float(statistic),
        p_value=float(p_value),
        alpha=alpha,
        normal=bool(p_value >= alpha),
    )


def frequency_chart(samples: Sequence[float],
                    num_bins: int = 17) -> List[Tuple[str, int, bool]]:
    """Build a Fig. 9-style frequency chart.

    Bins the samples into ``num_bins`` equal-width bins plus a trailing
    ``"More"`` overflow bin (mirroring the paper's chart, whose last
    bin is labelled "More"), marking the bin containing the median.

    Returns:
        ``(label, count, contains_median)`` triples in bin order.
    """
    if num_bins < 2:
        raise StatisticsError(f"num_bins must be >= 2, got {num_bins}")
    array = _as_clean_array(samples, 2, "frequency chart")
    median = float(np.median(array))
    low = float(np.min(array))
    # The main chart covers min..median*2-min; the rest goes to "More",
    # which reproduces the paper's heavily skewed presentation.
    high = max(median + (median - low), low + 1e-9)
    edges = np.linspace(low, high, num_bins)
    rows: List[Tuple[str, int, bool]] = []
    for index in range(len(edges) - 1):
        left, right = edges[index], edges[index + 1]
        is_last_regular = index == len(edges) - 2
        if is_last_regular:
            mask = (array >= left) & (array <= right)
        else:
            mask = (array >= left) & (array < right)
        count = int(np.count_nonzero(mask))
        contains_median = left <= median <= right
        rows.append((f"{left:.0f}", count, contains_median))
    overflow = int(np.count_nonzero(array > high))
    rows.append(("More", overflow, False))
    return rows


def render_frequency_chart(samples: Sequence[float],
                           num_bins: int = 17, width: int = 40) -> str:
    """ASCII rendering of :func:`frequency_chart` (Fig. 9)."""
    rows = frequency_chart(samples, num_bins)
    peak = max(count for _, count, _ in rows) or 1
    lines = []
    for label, count, has_median in rows:
        bar = "#" * int(round(width * count / peak))
        marker = " <-- median" if has_median else ""
        lines.append(f"{label:>8} | {bar:<{width}} {count:>3}{marker}")
    return "\n".join(lines)
