"""A small in-process metrics registry: counters, gauges, histograms.

The registry is the run-scoped ledger behind :mod:`repro.obs`:
components increment counters (events dispatched, heap compactions,
link messages), set gauges (utilization, peak queue depth), and feed
histograms (per-stage durations).  :meth:`MetricsRegistry.flatten`
collapses everything into sorted ``(name, value)`` scalar pairs -- the
shape that rides on :class:`~repro.core.testbed.RunMetrics`, survives
JSON round-trips, and diffs cleanly in bench payloads.

Nothing here touches the simulator hot path directly; hot components
accumulate into plain attributes and the registry is populated once at
run finalization (the pull model), so the traced-off cost stays a
single attribute check at the instrumentation sites.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple, Union

MetricValue = Union[int, float]
#: The flattened registry shape carried on ``RunMetrics.obs_metrics``.
MetricPairs = Tuple[Tuple[str, float], ...]


class Counter:
    """A monotonically non-decreasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: MetricValue = 1) -> None:
        """Increment by *amount* (must be >= 0)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (add {amount!r})")
        self.value += amount


class Gauge:
    """A scalar that may move in either direction (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: MetricValue) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with running sum/count/extremes.

    Bucket upper bounds are inclusive; one overflow bucket catches
    everything past the last bound.  Memory is O(buckets), independent
    of observation count.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max")

    #: Default bounds, in microseconds: log-spaced from sub-us to 1 s.
    DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
                      100_000.0, 1_000_000.0)

    def __init__(self, name: str,
                 bounds: Iterable[float] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: MetricValue) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Names to instruments; one registry per observed run.

    ``counter``/``gauge``/``histogram`` are get-or-create, so any
    component can contribute to a shared name without coordination.
    A name registered as one kind cannot be re-registered as another.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, *args) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str,
                  bounds: Iterable[float] = Histogram.DEFAULT_BOUNDS
                  ) -> Histogram:
        return self._get(  # type: ignore[return-value]
            name, Histogram, bounds)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Structured dump: name -> scalar, or a histogram summary dict."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "min": metric.min if metric.count else 0.0,
                    "max": metric.max if metric.count else 0.0,
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                }
            else:
                out[name] = metric.value  # type: ignore[attr-defined]
        return out

    def flatten(self) -> MetricPairs:
        """Sorted scalar pairs; histograms contribute ``.count``/``.mean``.

        This is the serialization-stable shape surfaced on
        :class:`~repro.core.testbed.RunMetrics.obs_metrics`.
        """
        pairs: List[Tuple[str, float]] = []
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                pairs.append((name + ".count", float(metric.count)))
                pairs.append((name + ".mean", float(metric.mean)))
            else:
                pairs.append(
                    (name, float(metric.value)))  # type: ignore[attr-defined]
        pairs.sort()
        return tuple(pairs)
