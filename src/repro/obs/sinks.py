"""Pluggable telemetry sinks: where per-request samples land.

The sink decides the memory/exactness trade of a run's telemetry
(ROADMAP item 2):

* ``"columnar"`` -- the default and the exact path:
  :class:`~repro.loadgen.measurement.RunSamples` keeps one float64 row
  per request in a :class:`~repro.telemetry.SampleColumns` buffer, so
  every statistic is exact but memory is O(requests).
* ``"streaming"`` -- :class:`StreamingSink`: O(1) memory per run.
  Running moments (Welford), P\N{SUPERSCRIPT TWO} quantile markers and
  a bounded windowed time series replace the per-request rows, which
  is what unlocks multi-million-request runs.

Both satisfy the :class:`Sink` protocol -- the accessor surface
:meth:`~repro.core.testbed.Testbed.run` summarizes a run through -- so
the whole experiment stack is sink-agnostic.

Accuracy contract of the streaming sink (validated in
``tests/test_obs_sinks.py`` against the exact path):

* mean latency: exact up to float summation order (< 1e-9 relative);
* p50/p99: P\N{SUPERSCRIPT TWO} estimates, within ~2% relative of
  ``numpy.percentile`` on unimodal service-time distributions at
  >= 100k requests (quantiles not in :attr:`StreamingSink.quantiles`
  are unavailable rather than silently approximated);
* warmup trimming: by request id, which equals the exact path's
  intended-send-order trim for open-loop trains (ids are assigned in
  send order); closed-loop runs may differ by the handful of requests
  whose machine interleaving crosses the warmup boundary.
"""

from __future__ import annotations

import difflib
import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

try:  # pragma: no cover - import guard exercised implicitly
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8 fallback
    Protocol = object  # type: ignore[assignment]

import numpy as np

from repro.errors import SpecValidationError
from repro.loadgen.measurement import (
    RECORD_CHUNK,
    PointOfMeasurement,
    RunSamples,
)
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request

SINK_COLUMNAR = "columnar"
SINK_STREAMING = "streaming"
#: The exact columnar buffer stays the default sink.
DEFAULT_SINK = SINK_COLUMNAR


class Sink(Protocol):
    """The accessor surface a run summary needs from its sample sink."""

    def record(self, request: Request) -> None:
        """Record one completed request."""

    def __len__(self) -> int:
        """Completed requests recorded (warmup included)."""

    @property
    def warmup_count(self) -> int:
        """Completed requests discarded as warmup."""

    @property
    def measured_count(self) -> int:
        """Completed requests after warmup trimming."""

    def average_latency_us(self, point: PointOfMeasurement
                           = PointOfMeasurement.GENERATOR) -> float:
        """The run's average response time at *point*."""

    def percentile_latency_us(self, percentile: float = 99.0,
                              point: PointOfMeasurement
                              = PointOfMeasurement.GENERATOR) -> float:
        """The run's tail latency at *point*."""


class P2Quantile:
    """P\N{SUPERSCRIPT TWO} streaming quantile estimator (Jain &
    Chlamtac, CACM 1985).

    Five markers track the running quantile in O(1) memory and O(1)
    per observation; marker heights adjust by parabolic (falling back
    to linear) interpolation as desired positions drift.
    """

    __slots__ = ("p", "count", "_q", "_n", "_desired", "_rate")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = float(p)
        self.count = 0
        self._q: List[float] = []
        self._n = [0, 1, 2, 3, 4]
        self._desired = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
        self._rate = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe *values* in order: the estimator's one update body.

        Marker heights, positions and desired positions stay in locals
        for the whole batch and are written back once.  The cell search
        and the marker 1, 2, 3 adjustments (in that order, each seeing
        the previous one's update) are unrolled with the textbook
        per-value float expressions, so any chunking of a stream leaves
        identical markers (pinned against a per-value reference in
        ``tests/test_obs_sinks.py``).
        """
        q = self._q
        count = self.count
        if count < 5:
            # The first five observations seed the markers.
            head = 5 - count
            q.extend(values[:head])
            self.count = len(q)
            if self.count < 5:
                return
            q.sort()
            values = values[head:]
            count = 5
        q0, q1, q2, q3, q4 = q
        n0, n1, n2, n3, n4 = self._n
        d0, d1, d2, d3, d4 = self._desired
        _, r1, r2, r3, r4 = self._rate
        for x in values:
            # Locate the cell -- the search ``while x >= q[k + 1]``,
            # unrolled test for test -- and clamp the extremes.
            if x < q0:
                q0 = x
                n1 += 1
                n2 += 1
                n3 += 1
            elif x >= q4:
                q4 = x
            elif not x >= q1:
                n1 += 1
                n2 += 1
                n3 += 1
            elif not x >= q2:
                n2 += 1
                n3 += 1
            elif not x >= q3:
                n3 += 1
            n4 += 1
            # The first marker's rate is 0: d0 never moves.
            d1 += r1
            d2 += r2
            d3 += r3
            d4 += r4
            # Markers 1, 2, 3 in order; each sees the previous update.
            d = d1 - n1
            if ((d >= 1.0 and n2 - n1 > 1)
                    or (d <= -1.0 and n0 - n1 < -1)):
                step = 1 if d >= 1.0 else -1
                c = q1 + step / (n2 - n0) * (
                    (n1 - n0 + step) * (q2 - q1) / (n2 - n1)
                    + (n2 - n1 - step) * (q1 - q0) / (n1 - n0))
                if q0 < c < q2:
                    q1 = c
                elif step > 0:
                    q1 = q1 + step * (q2 - q1) / (n2 - n1)
                else:
                    q1 = q1 + step * (q0 - q1) / (n0 - n1)
                n1 += step
            d = d2 - n2
            if ((d >= 1.0 and n3 - n2 > 1)
                    or (d <= -1.0 and n1 - n2 < -1)):
                step = 1 if d >= 1.0 else -1
                c = q2 + step / (n3 - n1) * (
                    (n2 - n1 + step) * (q3 - q2) / (n3 - n2)
                    + (n3 - n2 - step) * (q2 - q1) / (n2 - n1))
                if q1 < c < q3:
                    q2 = c
                elif step > 0:
                    q2 = q2 + step * (q3 - q2) / (n3 - n2)
                else:
                    q2 = q2 + step * (q1 - q2) / (n1 - n2)
                n2 += step
            d = d3 - n3
            if ((d >= 1.0 and n4 - n3 > 1)
                    or (d <= -1.0 and n2 - n3 < -1)):
                step = 1 if d >= 1.0 else -1
                c = q3 + step / (n4 - n2) * (
                    (n3 - n2 + step) * (q4 - q3) / (n4 - n3)
                    + (n4 - n3 - step) * (q3 - q2) / (n3 - n2))
                if q2 < c < q4:
                    q3 = c
                elif step > 0:
                    q3 = q3 + step * (q4 - q3) / (n4 - n3)
                else:
                    q3 = q3 + step * (q2 - q3) / (n2 - n3)
                n3 += step
        q[:] = (q0, q1, q2, q3, q4)
        self._n = [n0, n1, n2, n3, n4]
        self._desired = [d0, d1, d2, d3, d4]
        self.count = count + len(values)

    def observe(self, x: float) -> None:
        """Observe one value."""
        self.observe_many((x,))

    def value(self) -> float:
        """The current quantile estimate.

        Below five observations this interpolates the sorted buffer
        (numpy's ``linear`` method) so small runs stay sensible.
        """
        if self.count == 0:
            raise ValueError("P2Quantile has no observations")
        if self.count >= 5:
            return self._q[2]
        ordered = sorted(self._q)
        rank = self.p * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])

    def marker_state(self) -> Dict[str, Any]:
        """The estimator's compressed state (the mergeable form).

        ``heights`` are the marker values in non-decreasing order and
        ``positions`` the 0-based observation counts at each marker;
        below five observations both describe the raw sorted buffer.
        :func:`merge_marker_states` consumes this across shards.
        """
        if self.count >= 5:
            return {"count": self.count,
                    "heights": list(self._q),
                    "positions": list(self._n)}
        ordered = sorted(self._q)
        return {"count": self.count,
                "heights": ordered,
                "positions": list(range(len(ordered)))}


class _RunningMoments:
    """Welford running mean/variance with extremes."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def observe_chunk(self, values: "np.ndarray") -> None:
        """Merge one chunk of observations (Chan et al. combine).

        The chunk's moments come from vectorized numpy reductions and
        fold into the running state in O(1); the result differs from
        per-value :meth:`observe` only in float summation order, which
        is within the sink's documented mean/variance contract.
        """
        count = int(values.size)
        if count == 0:
            return
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        low = float(values.min())
        high = float(values.max())
        if self.count == 0:
            self.count = count
            self.mean = mean
            self._m2 = m2
        else:
            total = self.count + count
            delta = mean - self.mean
            self.mean += delta * (count / total)
            self._m2 += m2 + delta * delta * (self.count * count / total)
            self.count = total
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    def variance(self) -> float:
        """Population variance (ddof=0, matching ``numpy.var``)."""
        return self._m2 / self.count if self.count else 0.0

    def state(self) -> Dict[str, float]:
        """The moments' mergeable state (Chan-combinable)."""
        return {"count": self.count, "mean": self.mean,
                "m2": self._m2, "min": self.min, "max": self.max}

    @classmethod
    def from_states(cls, states: List[Dict[str, float]]
                    ) -> "_RunningMoments":
        """Combine per-shard moment states into one (Chan et al.).

        Exactly the :meth:`observe_chunk` pairwise combine applied in
        shard order, so merging K shards' moments equals feeding the
        K chunks to one accumulator -- within the sink's documented
        float-order contract.
        """
        out = cls()
        for state in states:
            count = int(state["count"])
            if count == 0:
                continue
            if out.count == 0:
                out.count = count
                out.mean = float(state["mean"])
                out._m2 = float(state["m2"])
            else:
                total = out.count + count
                delta = float(state["mean"]) - out.mean
                out.mean += delta * (count / total)
                out._m2 += float(state["m2"]) + delta * delta * (
                    out.count * count / total)
                out.count = total
            if state["min"] < out.min:
                out.min = float(state["min"])
            if state["max"] > out.max:
                out.max = float(state["max"])
        return out


class _Channel:
    """Moments + quantile markers for one point of measurement."""

    __slots__ = ("moments", "quantiles")

    def __init__(self, quantiles: Tuple[float, ...]) -> None:
        self.moments = _RunningMoments()
        self.quantiles: Dict[float, P2Quantile] = {
            pct: P2Quantile(pct / 100.0) for pct in quantiles}

    def observe_chunk(self, values: "np.ndarray") -> None:
        """Batch ingest: chunk-merged moments, ordered P2 updates."""
        self.moments.observe_chunk(values)
        data = values.tolist()
        for estimator in self.quantiles.values():
            estimator.observe_many(data)


def merge_marker_states(states: List[Dict[str, Any]],
                        p: float) -> float:
    """Estimate quantile *p* of the union of shards from their markers.

    Each shard's P\N{SUPERSCRIPT TWO} markers are replayed as a
    piecewise-linear empirical CDF (height ``q_i`` at cumulative
    fraction ``n_i / (count - 1)``); the merged CDF is the
    count-weighted mixture, evaluated on the pooled marker grid, and
    the quantile is read back by inverse interpolation.  This is the
    documented-tolerance half of the mergeable-sink contract: exact
    marker state cannot be combined across shards, but the mixture
    replay tracks the unpartitioned estimator to within a few percent
    on the distributions the streaming sink supports (pinned in
    ``tests/test_parallel_merge.py``).
    """
    live = [s for s in states if int(s["count"]) > 0]
    if not live:
        raise ValueError("no observations in any marker state")
    total = sum(int(s["count"]) for s in live)
    singles = [s for s in live if int(s["count"]) == 1]
    multi = [s for s in live if int(s["count"]) > 1]
    if not multi:
        # Degenerate: every shard saw one value; pool and interpolate.
        pooled = np.sort(np.array(
            [s["heights"][0] for s in singles], dtype=np.float64))
        return float(np.quantile(pooled, p))
    grid = np.unique(np.concatenate(
        [np.asarray(s["heights"], dtype=np.float64) for s in live]))
    cdf = np.zeros_like(grid)
    for state in multi:
        heights = np.asarray(state["heights"], dtype=np.float64)
        fractions = (np.asarray(state["positions"], dtype=np.float64)
                     / (int(state["count"]) - 1))
        cdf += (int(state["count"]) / total) * np.interp(
            grid, heights, fractions, left=0.0, right=1.0)
    for state in singles:
        cdf += (1 / total) * (grid >= float(state["heights"][0]))
    # The mixture CDF is non-decreasing by construction; invert it.
    return float(np.interp(p, cdf, grid))


#: Windowed time-series entry:
#: ``(start_us, end_us, count, mean_us, max_us)``.
Window = Tuple[float, float, int, float, float]

#: Quantiles every streaming run tracks (p99 is what the paper lives
#: on; the rest cost four extra marker updates per request).
DEFAULT_QUANTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Target number of time-series windows per run.
DEFAULT_WINDOWS = 128


class StreamingSink:
    """O(1)-memory replacement for the exact columnar sample buffer.

    Args:
        num_requests: the run's request count; sizes the warmup trim
            and the time-series window width up front.
        warmup_fraction: leading completions to discard, trimmed by
            request id (see the module docstring for how this lines up
            with the exact path).
        quantiles: percentiles (0, 100) tracked per channel.
        params: timing constants (kernel-point latency offset).
        target_windows: how many time-series windows to aim for.
    """

    def __init__(self, num_requests: int, warmup_fraction: float = 0.1,
                 quantiles: Tuple[float, ...] = DEFAULT_QUANTILES,
                 params: SkylakeParameters = DEFAULT_PARAMETERS,
                 target_windows: int = DEFAULT_WINDOWS) -> None:
        if num_requests <= 0:
            raise ValueError(
                f"num_requests must be positive, got {num_requests}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        for pct in quantiles:
            if not 0.0 < pct < 100.0:
                raise ValueError(
                    f"tracked percentiles must be in (0, 100), got {pct}")
        if target_windows < 1:
            raise ValueError(
                f"target_windows must be >= 1, got {target_windows}")
        self.num_requests = int(num_requests)
        self.warmup_fraction = float(warmup_fraction)
        self._warmup_target = int(num_requests * warmup_fraction)
        self._kernel_stack_us = params.kernel_stack_us
        self._recorded = 0
        self._warmup_skipped = 0
        self._channels = {
            PointOfMeasurement.GENERATOR: _Channel(tuple(quantiles)),
            PointOfMeasurement.NIC: _Channel(tuple(quantiles)),
        }
        # Bounded time series: one summary row per fixed-size window
        # of measured completions, ~target_windows rows per run.
        self._window_requests = max(
            1, self.num_requests // int(target_windows))
        self._windows: List[Window] = []
        self._win_count = 0
        self._win_total = 0.0
        self._win_max = -math.inf
        self._win_start = 0.0
        # Batched ingest: measured completions buffer as
        # (actual_send_us, client_nic_us, measured_complete_us) and
        # drain through vectorized chunk updates.
        self._pending: List[Tuple[float, float, float]] = []

    # ------------------------------------------------------------------
    def record(self, request: Request) -> None:
        """Record one completed request (O(1) time and memory).

        The per-request work is three float loads and a list append;
        the statistical updates happen per
        :data:`~repro.loadgen.measurement.RECORD_CHUNK` in
        :meth:`_drain`, which cuts the sink's hot-path overhead to a
        fraction of the per-request version.
        """
        self._recorded += 1
        if request.request_id < self._warmup_target:
            self._warmup_skipped += 1
            return
        pending = self._pending
        pending.append((request.actual_send_us, request.client_nic_us,
                        request.measured_complete_us))
        if len(pending) >= RECORD_CHUNK:
            self._drain()

    def _drain(self) -> None:
        """Fold the pending buffer into moments, markers and windows.

        Values feed the P2 estimators and the windowed series in
        completion order, so their state is identical to unbuffered
        per-request ingest; only the Welford accumulation order
        changes (chunk merge), within the documented contract.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        chunk = np.asarray(pending, dtype=np.float64)
        sent = chunk[:, 0]
        completes = chunk[:, 2]
        latencies = completes - sent
        self._channels[PointOfMeasurement.GENERATOR].observe_chunk(
            latencies)
        self._channels[PointOfMeasurement.NIC].observe_chunk(
            chunk[:, 1] - sent)
        # Windowed series keyed on completion time, replayed in order.
        window_requests = self._window_requests
        windows = self._windows
        count = self._win_count
        total = self._win_total
        peak = self._win_max
        start = self._win_start
        complete_list = completes.tolist()
        for index, latency in enumerate(latencies.tolist()):
            if count == 0:
                start = complete_list[index]
            count += 1
            total += latency
            if latency > peak:
                peak = latency
            if count >= window_requests:
                windows.append((start, complete_list[index], count,
                                total / count, peak))
                count = 0
                total = 0.0
                peak = -math.inf
        self._win_count = count
        self._win_total = total
        self._win_max = peak
        self._win_start = start

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._recorded

    @property
    def warmup_count(self) -> int:
        """Completed requests discarded as warmup."""
        return self._warmup_skipped

    @property
    def measured_count(self) -> int:
        """Completed requests after warmup trimming."""
        return self._recorded - self._warmup_skipped

    @property
    def quantiles(self) -> Tuple[float, ...]:
        """The percentiles this sink tracks."""
        channel = self._channels[PointOfMeasurement.GENERATOR]
        return tuple(sorted(channel.quantiles))

    @property
    def windows(self) -> List[Window]:
        """The windowed time series recorded so far."""
        self._drain()
        return self._windows

    def _channel(self, point: PointOfMeasurement
                 ) -> Tuple[_Channel, float]:
        """The backing channel and additive offset for *point*
        (draining any buffered completions first)."""
        self._drain()
        if point is PointOfMeasurement.KERNEL:
            # The kernel point is the NIC point shifted by one
            # constant RX-stack traversal; a constant shift moves
            # every moment and quantile by exactly that constant.
            return self._channels[PointOfMeasurement.NIC], (
                self._kernel_stack_us)
        return self._channels[point], 0.0

    def average_latency_us(self, point: PointOfMeasurement
                           = PointOfMeasurement.GENERATOR) -> float:
        """Running-mean latency at *point* (exact up to float order)."""
        channel, offset = self._channel(point)
        if channel.moments.count == 0:
            raise ValueError("no measured samples recorded yet")
        return channel.moments.mean + offset

    def percentile_latency_us(self, percentile: float = 99.0,
                              point: PointOfMeasurement
                              = PointOfMeasurement.GENERATOR) -> float:
        """P\N{SUPERSCRIPT TWO}-estimated tail latency at *point*.

        Raises:
            ValueError: when *percentile* is not one of the tracked
                :attr:`quantiles` -- streaming estimates exist only
                for markers installed before the run.
        """
        channel, offset = self._channel(point)
        estimator = channel.quantiles.get(float(percentile))
        if estimator is None:
            tracked = ", ".join(f"{pct:g}" for pct in self.quantiles)
            raise ValueError(
                f"percentile {percentile:g} is not tracked by this "
                f"streaming sink (tracked: {tracked})")
        return estimator.value() + offset

    def variance_us2(self, point: PointOfMeasurement
                     = PointOfMeasurement.GENERATOR) -> float:
        """Running population variance at *point*."""
        channel, _ = self._channel(point)
        return channel.moments.variance()

    def export_state(self) -> Dict[str, Any]:
        """The sink's complete mergeable state (plain JSON-able data).

        One shard's contribution to a sharded run: per-channel moment
        states and quantile marker states, the windowed series, and
        the record/warmup counters.  Consumed by
        :class:`repro.parallel.merge.MergedStreamingSamples`, which
        Chan-combines the moments and mixture-replays the markers.
        """
        self._drain()
        channels: Dict[str, Any] = {}
        for point, channel in self._channels.items():
            channels[point.value] = {
                "moments": channel.moments.state(),
                "quantiles": {
                    f"{pct:g}": estimator.marker_state()
                    for pct, estimator in channel.quantiles.items()},
            }
        return {
            "recorded": self._recorded,
            "warmup_skipped": self._warmup_skipped,
            "warmup_fraction": self.warmup_fraction,
            "kernel_stack_us": self._kernel_stack_us,
            "tracked_quantiles": list(self.quantiles),
            "channels": channels,
            "windows": [list(window) for window in self.windows],
        }

    def min_latency_us(self, point: PointOfMeasurement
                       = PointOfMeasurement.GENERATOR) -> float:
        channel, offset = self._channel(point)
        return channel.moments.min + offset

    def max_latency_us(self, point: PointOfMeasurement
                       = PointOfMeasurement.GENERATOR) -> float:
        channel, offset = self._channel(point)
        return channel.moments.max + offset


# ------------------------------------------------------------- registry
def _columnar_factory(num_requests: int,
                      warmup_fraction: float) -> RunSamples:
    return RunSamples(warmup_fraction=warmup_fraction)


def _streaming_factory(num_requests: int,
                       warmup_fraction: float) -> StreamingSink:
    return StreamingSink(num_requests, warmup_fraction=warmup_fraction)


#: name -> (factory(num_requests, warmup_fraction), one-line summary).
SINKS: Dict[str, Tuple[Callable[[int, float], object], str]] = {
    SINK_COLUMNAR: (
        _columnar_factory,
        "exact per-request columns, O(requests) memory (default)"),
    SINK_STREAMING: (
        _streaming_factory,
        "running moments + P2 quantiles, O(1) memory"),
}


def sink_names() -> Tuple[str, ...]:
    """Sorted names of the registered sinks."""
    return tuple(sorted(SINKS))


def validate_sink_name(name: str) -> str:
    """Check *name* against the sink registry; return it normalized.

    Raises:
        SpecValidationError: for unknown names, with a did-you-mean
            suggestion when a registered sink name is close.
    """
    key = str(name)
    if key in SINKS:
        return key
    close = difflib.get_close_matches(key, list(SINKS), n=1)
    hint = f" -- did you mean {close[0]!r}?" if close else ""
    raise SpecValidationError(
        f"unknown sink {name!r}{hint} (registered sinks: "
        f"{', '.join(sink_names())})")


def describe_sink(name: str) -> str:
    """One-line summary of a registered sink."""
    return SINKS[validate_sink_name(name)][1]


def make_sink(name: str, num_requests: int,
              warmup_fraction: float = 0.1):
    """Construct the sink registered under *name* for one run."""
    factory, _ = SINKS[validate_sink_name(name)]
    return factory(int(num_requests), float(warmup_fraction))
