"""Experiment runner: the paper's repetition protocol.

An *experiment* is N repetitions of a run, each with a fresh testbed
(fresh simulator, fresh seeds -- the reset that makes per-run samples
independent) under identical configuration.  The result object exposes
the per-run sample arrays and the paper's summary statistics:
non-parametric median CIs for the average and 99th-percentile
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.testbed import RunMetrics, Testbed
from repro.errors import ExperimentError
from repro.stats.ci import ConfidenceInterval, nonparametric_median_ci
from repro.stats.descriptive import SummaryStats, describe

#: Default repetition count (the paper: "each experiment is the
#: average of 50 runs").
DEFAULT_RUNS = 50

#: Version of the simulated model's behaviour.  Every result-store row
#: records the epoch that produced it, and the store serves only rows
#: of the current one.  Bump it whenever a seeded run can produce
#: different numbers: a model or draw-layout change, or a recaptured
#: golden value (``tests/test_golden_values.py`` pins the pairing).
MODEL_EPOCH = 1


@dataclass
class ExperimentResult:
    """All repetitions of one experimental condition.

    Attributes:
        label: condition label, e.g. ``"LP-SMToff"``.
        workload: workload name.
        qps: offered load.
        runs: one :class:`RunMetrics` per repetition, in seed order.
        metadata: free-form extras (e.g. the synthetic delay).
    """

    label: str
    workload: str
    qps: float
    runs: List[RunMetrics]
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Lazily-built per-metric sample arrays.  Figure studies read the
    #: same series many times (medians, ratios, CI comparisons); each
    #: array is built from the runs once and then shared, returned
    #: read-only.  Rebuilt never -- runs are append-complete by the
    #: time a result is consumed.
    _sample_cache: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    def _samples(self, attr: str) -> np.ndarray:
        cached = self._sample_cache.get(attr)
        if cached is None:
            cached = np.array([getattr(run, attr) for run in self.runs])
            cached.setflags(write=False)
            self._sample_cache[attr] = cached
        return cached

    def avg_samples(self) -> np.ndarray:
        """Per-run average response times (the Fig. 2a/3a samples)."""
        return self._samples("avg_us")

    def p99_samples(self) -> np.ndarray:
        """Per-run 99th-percentile latencies (Fig. 2b/3b samples)."""
        return self._samples("p99_us")

    def true_avg_samples(self) -> np.ndarray:
        """Per-run NIC-point averages (ground truth)."""
        return self._samples("true_avg_us")

    def true_p99_samples(self) -> np.ndarray:
        """Per-run NIC-point 99th percentiles (ground truth)."""
        return self._samples("true_p99_us")

    # ------------------------------------------------------------------
    def median_avg_ci(self, confidence: float = 0.95
                      ) -> ConfidenceInterval:
        """Non-parametric median CI of the average response time."""
        return nonparametric_median_ci(self.avg_samples(), confidence)

    def median_p99_ci(self, confidence: float = 0.95
                      ) -> ConfidenceInterval:
        """Non-parametric median CI of the 99th-percentile latency."""
        return nonparametric_median_ci(self.p99_samples(), confidence)

    def avg_stats(self) -> SummaryStats:
        """Descriptive summary of the per-run averages."""
        return describe(self.avg_samples())

    def p99_stats(self) -> SummaryStats:
        """Descriptive summary of the per-run 99th percentiles."""
        return describe(self.p99_samples())

    def stdev_avg_us(self) -> float:
        """Run-to-run standard deviation of the average (Fig. 5)."""
        return self.avg_stats().std

    def mean_server_utilization(self) -> float:
        """Average first-tier utilization across runs."""
        return float(np.mean(
            [run.server_utilization for run in self.runs]))

    def mean_node_utilizations(self) -> tuple:
        """Per-node utilization averaged across runs (cluster runs).

        Empty for single-server results.  Runs of one condition share
        a topology, so the per-run tuples always align.
        """
        per_run = [run.node_utilizations for run in self.runs
                   if run.node_utilizations]
        if not per_run:
            return ()
        return tuple(float(v) for v in np.mean(per_run, axis=0))


class Experiment:
    """N repetitions of one condition, with environment reset."""

    def __init__(self, builder: Callable[[int], Testbed],
                 runs: int = DEFAULT_RUNS, base_seed: int = 0,
                 label: str = "") -> None:
        if runs < 1:
            raise ExperimentError(f"runs must be >= 1, got {runs}")
        self._builder = builder
        self.runs = int(runs)
        self.base_seed = int(base_seed)
        self.label = str(label)

    def run(self) -> ExperimentResult:
        """Execute all repetitions, one after another in this process.

        The serial reference: :func:`repro.parallel.run_sharded`
        returns a result equal to this one under any placement.
        """
        metrics: List[RunMetrics] = []
        workload = ""
        qps = 0.0
        for repetition in range(self.runs):
            testbed = self._builder(self.base_seed + repetition)
            workload = testbed.workload
            qps = testbed.qps
            metrics.append(testbed.run())
        return ExperimentResult(
            label=self.label or workload,
            workload=workload,
            qps=qps,
            runs=metrics,
        )
