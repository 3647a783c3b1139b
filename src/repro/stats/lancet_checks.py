"""Lancet-style sample quality checks (related work [24]).

Lancet self-validates its measurements with statistical tests; the
paper lists three and we provide all of them so an experiment built on
this library can run the same hygiene checks:

* **Anderson-Darling** -- does the request inter-arrival stream match
  the intended (exponential) distribution?  A client whose block-wait
  timing disrupts sends fails this check.
* **Augmented Dickey-Fuller (simplified)** -- are the per-run samples
  stationary (no drift across the experiment)?
* **Spearman lag test** -- are successive samples independent
  (rank correlation with the lagged series ~ 0)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import StatisticsError
from repro.stats.descriptive import _as_clean_array


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one hygiene check."""

    name: str
    passed: bool
    statistic: float
    detail: str

    def format_row(self) -> str:
        """One printable line."""
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name:<28} {verdict}  {self.detail}"


def anderson_darling_exponential(gaps_us: Sequence[float],
                                 significance_pct: float = 5.0
                                 ) -> CheckResult:
    """Test whether inter-arrival gaps are exponential.

    Args:
        gaps_us: observed gaps between consecutive sends.
        significance_pct: significance level (scipy offers 15/10/5/2.5/1).
    """
    array = _as_clean_array(gaps_us, 8, "Anderson-Darling")
    if np.any(array < 0):
        raise StatisticsError("gaps must be non-negative")
    from scipy import stats as scipy_stats
    result = scipy_stats.anderson(array, dist="expon")
    levels = list(result.significance_level)
    if significance_pct not in levels:
        raise StatisticsError(
            f"significance {significance_pct} not offered; "
            f"choose from {levels}"
        )
    critical = result.critical_values[levels.index(significance_pct)]
    passed = bool(result.statistic < critical)
    return CheckResult(
        name="anderson-darling (expon)",
        passed=passed,
        statistic=float(result.statistic),
        detail=(f"A2={result.statistic:.3f} vs critical "
                f"{critical:.3f} @ {significance_pct}%"),
    )


def dickey_fuller_stationarity(samples: Sequence[float],
                               alpha: float = 0.05) -> CheckResult:
    """A simplified (lag-1, demeaned) Dickey-Fuller test.

    Demeans the series (the with-constant variant) and regresses the
    first difference on the lagged level; a significantly negative
    coefficient rejects the unit root, i.e. the series is stationary.
    Uses the with-constant DF critical values (-2.86 at 5%, -3.43
    at 1%).
    """
    array = _as_clean_array(samples, 10, "Dickey-Fuller")
    if np.ptp(array) == 0.0:
        # A constant series is trivially stationary.
        return CheckResult(
            name="dickey-fuller (stationarity)", passed=True,
            statistic=float("-inf"), detail="constant series")
    centered = array - float(np.mean(array))
    lagged = centered[:-1]
    diff = np.diff(centered)
    denominator = float(np.dot(lagged, lagged))
    if denominator == 0:
        return CheckResult(
            name="dickey-fuller (stationarity)", passed=True,
            statistic=float("-inf"), detail="degenerate series")
    gamma = float(np.dot(lagged, diff)) / denominator
    residuals = diff - gamma * lagged
    dof = max(1, len(diff) - 1)
    sigma2 = float(np.dot(residuals, residuals)) / dof
    se = np.sqrt(sigma2 / denominator) if sigma2 > 0 else 0.0
    statistic = gamma / se if se > 0 else float("-inf")
    critical = -2.86 if alpha >= 0.05 else -3.43
    passed = bool(statistic < critical)
    return CheckResult(
        name="dickey-fuller (stationarity)",
        passed=passed,
        statistic=float(statistic),
        detail=f"DF={statistic:.2f} vs critical {critical:.2f}",
    )


def spearman_independence(samples: Sequence[float], lag: int = 1,
                          alpha: float = 0.05) -> CheckResult:
    """Spearman rank correlation between the series and its lag.

    Independence passes when the correlation is not significantly
    different from zero.
    """
    array = _as_clean_array(samples, 10, "Spearman independence")
    if lag < 1 or lag >= array.size:
        raise StatisticsError(
            f"lag must be in [1, {array.size - 1}], got {lag}"
        )
    from scipy import stats as scipy_stats
    rho, p_value = scipy_stats.spearmanr(array[:-lag], array[lag:])
    if np.isnan(rho):
        # Constant input: no evidence of dependence.
        rho, p_value = 0.0, 1.0
    passed = bool(p_value >= alpha)
    return CheckResult(
        name=f"spearman independence (lag {lag})",
        passed=passed,
        statistic=float(rho),
        detail=f"rho={rho:.3f}, p={p_value:.3f}",
    )


def run_all_checks(gaps_us: Sequence[float],
                   run_samples: Sequence[float]
                   ) -> Tuple[CheckResult, ...]:
    """The full Lancet-style hygiene battery for one experiment."""
    return (
        anderson_darling_exponential(gaps_us),
        dickey_fuller_stationarity(run_samples),
        spearman_independence(run_samples),
    )
