"""Merging per-shard telemetry back into one run's summary.

The mergeable-sink protocol has two halves, matching the two
registered sinks:

* **columnar** (exact): each shard ships its raw warmup-included
  :class:`~repro.telemetry.SampleColumns` arrays; the merge
  concatenates them in shard order and wraps the result in a normal
  :class:`~repro.loadgen.measurement.RunSamples`, whose stable
  send-order sort and global warmup trim then apply exactly as if one
  process had recorded every row.  Merging is plain array
  concatenation, so parallel execution is **bit-identical** to running
  the same shards sequentially.
* **streaming** (documented tolerance): each shard ships its sink's
  :meth:`~repro.obs.sinks.StreamingSink.export_state` payload; moments
  Chan-combine exactly (up to float summation order) and P\N{SUPERSCRIPT TWO}
  quantile markers merge by count-weighted mixture-CDF replay
  (:func:`~repro.obs.sinks.merge_marker_states`), within the
  tolerances pinned in ``tests/test_parallel_merge.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.testbed import RunMetrics
from repro.loadgen.measurement import PointOfMeasurement, RunSamples
from repro.obs.core import merge_shard_metrics
from repro.obs.sinks import (
    Window,
    _RunningMoments,
    merge_marker_states,
)
from repro.telemetry import SampleColumns
from repro.telemetry.columns import COLUMN_FIELDS

#: A shard's result payload (see :func:`repro.parallel.runner.run_shard`).
ShardPayload = Dict[str, Any]


def merge_columnar_payloads(payloads: Sequence[ShardPayload]
                            ) -> RunSamples:
    """Concatenate shards' raw columns into one run's samples.

    Payloads must arrive in shard order; concatenation order is part
    of the bit-identity contract (the merged buffer's stable sort
    breaks intended-send-time ties by position).
    """
    if not payloads:
        raise ValueError("no shard payloads to merge")
    arrays = {
        name: np.concatenate(
            [np.asarray(p["columns"][name], dtype=np.float64)
             for p in payloads])
        for name in COLUMN_FIELDS
    }
    columns = SampleColumns.from_arrays(arrays)
    return RunSamples.from_columns(
        columns, warmup_fraction=float(payloads[0]["warmup_fraction"]))


class MergedStreamingSamples:
    """The :class:`~repro.obs.sinks.Sink` accessor surface over merged
    per-shard streaming states.

    Shard sinks are built with the run's *global* request count, so
    their id-based warmup trims union exactly to the global trim;
    counters therefore add, moments Chan-combine, and quantiles replay
    as a count-weighted marker mixture.
    """

    def __init__(self, states: Sequence[Dict[str, Any]]) -> None:
        if not states:
            raise ValueError("no shard states to merge")
        self._states = [dict(state) for state in states]
        first = self._states[0]
        self.warmup_fraction = float(first["warmup_fraction"])
        self._kernel_stack_us = float(first["kernel_stack_us"])
        self._tracked = tuple(
            float(q) for q in first["tracked_quantiles"])
        self._recorded = sum(int(s["recorded"]) for s in self._states)
        self._warmup_skipped = sum(
            int(s["warmup_skipped"]) for s in self._states)
        self._moments: Dict[str, _RunningMoments] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._recorded

    @property
    def warmup_count(self) -> int:
        """Completed requests discarded as warmup, over all shards."""
        return self._warmup_skipped

    @property
    def measured_count(self) -> int:
        """Completed requests after warmup trimming, over all shards."""
        return self._recorded - self._warmup_skipped

    @property
    def quantiles(self) -> Tuple[float, ...]:
        """The percentiles the shard sinks tracked."""
        return tuple(sorted(self._tracked))

    @property
    def windows(self) -> List[Window]:
        """All shards' windowed time series, merged by window start."""
        merged = [tuple(window)  # type: ignore[misc]
                  for state in self._states
                  for window in state["windows"]]
        merged.sort(key=lambda window: window[0])
        return merged  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _resolve(self, point: PointOfMeasurement
                 ) -> Tuple[str, float]:
        """The backing channel name and additive offset for *point*
        (the kernel point is the NIC point plus one RX traversal)."""
        if point is PointOfMeasurement.KERNEL:
            return PointOfMeasurement.NIC.value, self._kernel_stack_us
        return point.value, 0.0

    def _moments_for(self, channel: str) -> _RunningMoments:
        moments = self._moments.get(channel)
        if moments is None:
            moments = _RunningMoments.from_states(
                [state["channels"][channel]["moments"]
                 for state in self._states])
            self._moments[channel] = moments
        return moments

    def average_latency_us(self, point: PointOfMeasurement
                           = PointOfMeasurement.GENERATOR) -> float:
        """Chan-combined mean latency at *point* (exact up to float
        summation order)."""
        channel, offset = self._resolve(point)
        moments = self._moments_for(channel)
        if moments.count == 0:
            raise ValueError("no measured samples in any shard")
        return moments.mean + offset

    def percentile_latency_us(self, percentile: float = 99.0,
                              point: PointOfMeasurement
                              = PointOfMeasurement.GENERATOR) -> float:
        """Mixture-replayed tail latency at *point*.

        Raises:
            ValueError: when *percentile* was not tracked by the shard
                sinks (same contract as the unmerged streaming sink).
        """
        pct = float(percentile)
        if pct not in self._tracked:
            tracked = ", ".join(f"{q:g}" for q in self.quantiles)
            raise ValueError(
                f"percentile {pct:g} is not tracked by the merged "
                f"streaming states (tracked: {tracked})")
        channel, offset = self._resolve(point)
        marker_states = [
            state["channels"][channel]["quantiles"][f"{pct:g}"]
            for state in self._states]
        return merge_marker_states(marker_states, pct / 100.0) + offset

    def variance_us2(self, point: PointOfMeasurement
                     = PointOfMeasurement.GENERATOR) -> float:
        """Chan-combined population variance at *point*."""
        channel, _ = self._resolve(point)
        return self._moments_for(channel).variance()

    def min_latency_us(self, point: PointOfMeasurement
                       = PointOfMeasurement.GENERATOR) -> float:
        channel, offset = self._resolve(point)
        return self._moments_for(channel).min + offset

    def max_latency_us(self, point: PointOfMeasurement
                       = PointOfMeasurement.GENERATOR) -> float:
        channel, offset = self._resolve(point)
        return self._moments_for(channel).max + offset


def merged_run_metrics(payloads: Sequence[ShardPayload],
                       seed: int) -> RunMetrics:
    """Fold one repetition's shard payloads into its
    :class:`~repro.core.testbed.RunMetrics` sample.

    Latency statistics come from the merged samples (exact columnar
    concat or streaming state merge, by payload kind); utilizations
    average across the shard replicas; observability metrics merge by
    kind (:func:`~repro.obs.core.merge_shard_metrics`).
    """
    if not payloads:
        raise ValueError("no shard payloads to merge")
    kinds = {str(p["kind"]) for p in payloads}
    if len(kinds) != 1:
        raise ValueError(
            f"shard payloads disagree on sink kind: {sorted(kinds)}")
    kind = kinds.pop()
    samples: Any
    if kind == "columnar":
        samples = merge_columnar_payloads(payloads)
    elif kind == "streaming":
        samples = MergedStreamingSamples(
            [p["state"] for p in payloads])
    else:
        raise ValueError(f"unknown shard payload kind {kind!r}")
    utilization = float(np.mean(
        [float(p["server_utilization"]) for p in payloads]))
    per_shard_nodes = [tuple(p.get("node_utilizations") or ())
                       for p in payloads]
    if any(per_shard_nodes):
        node_utilizations = tuple(
            float(v) for v in np.mean(
                [nodes for nodes in per_shard_nodes if nodes], axis=0))
    else:
        node_utilizations = ()
    return RunMetrics(
        avg_us=samples.average_latency_us(PointOfMeasurement.GENERATOR),
        p99_us=samples.percentile_latency_us(
            99.0, PointOfMeasurement.GENERATOR),
        true_avg_us=samples.average_latency_us(PointOfMeasurement.NIC),
        true_p99_us=samples.percentile_latency_us(
            99.0, PointOfMeasurement.NIC),
        requests=samples.measured_count,
        seed=int(seed),
        server_utilization=utilization,
        node_utilizations=node_utilizations,
        obs_metrics=merge_shard_metrics(
            [p.get("obs_metrics", ()) for p in payloads]),
    )
