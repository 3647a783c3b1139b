"""Points of measurement and per-run sample collection.

The *point of measurement* (Section II, citing Lancet [24]) is where
the reply is timestamped.  An in-generator point includes every
client-side delay between the NIC and the generator's own clock read;
a NIC point is the ground truth the hardware delivered.  Comparing the
two is exactly how this library quantifies client-caused measurement
error.

Samples live in a :class:`~repro.telemetry.SampleColumns`
struct-of-arrays buffer: recording a completion stores the request's
timestamps into preallocated numpy columns (the request object itself
is not retained), and every accessor is vectorized column arithmetic
over a cached, warmup-trimmed sort order instead of a re-sorted Python
list.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import InsufficientSamplesError
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.telemetry import SampleColumns

#: Completions a sink buffers before one batched write: the streaming
#: sink's chunked ingest and the fused kernel's deferred recording
#: through :meth:`RunSamples.record_batch`.  Bounds how many finished
#: requests a run keeps alive.
RECORD_CHUNK = 256


class PointOfMeasurement(enum.Enum):
    """Where end-to-end latency is timestamped."""

    GENERATOR = "generator"
    KERNEL = "kernel"
    NIC = "nic"


def latency_at_point(request: Request, point: PointOfMeasurement,
                     params: SkylakeParameters = DEFAULT_PARAMETERS) -> float:
    """Latency of *request* as observed at *point*.

    The kernel point sits one RX-stack traversal above the NIC; the
    generator point is wherever the generator's own timestamping
    landed (all client hardware overheads included).
    """
    if point is PointOfMeasurement.NIC:
        return request.true_latency_us
    if point is PointOfMeasurement.KERNEL:
        return request.true_latency_us + params.kernel_stack_us
    return request.measured_latency_us


class RunSamples:
    """All completed requests of one run, with warmup trimming.

    One *run* of an experiment produces one :class:`RunSamples`; the
    summary statistics derived from it (average, 99th percentile) are
    the per-run samples on which the paper's confidence intervals and
    normality tests operate.

    Derived arrays (sort order, per-point latencies) are cached and
    invalidated on :meth:`record`, so computing a run summary touches
    each column once no matter how many accessors consume it.  Cached
    arrays are returned read-only; copy before mutating.
    """

    def __init__(self, warmup_fraction: float = 0.1) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self._warmup_fraction = warmup_fraction
        self._columns = SampleColumns()
        self._order: np.ndarray = None
        self._latency_cache: Dict[Tuple[PointOfMeasurement, float],
                                  np.ndarray] = {}
        self._array_cache: Dict[str, np.ndarray] = {}

    @classmethod
    def from_columns(cls, columns: SampleColumns,
                     warmup_fraction: float = 0.1) -> "RunSamples":
        """Wrap an already-filled columnar buffer as run samples.

        The accessor surface (stable send-order sort, warmup trim,
        cached latency arrays) applies to *columns* exactly as if its
        rows had been recorded one by one -- this is how the sharded
        runner's merged per-shard columns become one run's samples
        (:mod:`repro.parallel`).
        """
        out = cls(warmup_fraction=warmup_fraction)
        out._columns = columns
        return out

    # ------------------------------------------------------------------
    def record(self, request: Request) -> None:
        """Record one completed request (the request is not retained)."""
        self._columns.append(request)
        self._order = None
        self._latency_cache.clear()
        self._array_cache.clear()

    def record_batch(self, requests: List[Request]) -> None:
        """Record many completed requests at once (bulk ingest).

        The final state is identical to calling :meth:`record` in a
        loop over *requests*; the columnar stores and the cache
        invalidation happen once per batch instead of once per
        request.  The accelerated kernel drains its deferred
        completion buffer through this path.
        """
        if not requests:
            return
        self._columns.extend(requests)
        self._order = None
        self._latency_cache.clear()
        self._array_cache.clear()

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def warmup_fraction(self) -> float:
        """Leading fraction of samples discarded as warmup."""
        return self._warmup_fraction

    @property
    def columns(self) -> SampleColumns:
        """The underlying struct-of-arrays buffer (warmup included)."""
        return self._columns

    @property
    def warmup_count(self) -> int:
        """Completed requests discarded as warmup."""
        return int(len(self._columns) * self._warmup_fraction)

    @property
    def measured_count(self) -> int:
        """Completed requests after warmup trimming."""
        return len(self._columns) - self.warmup_count

    def measured_order(self) -> np.ndarray:
        """Row indices after warmup, sorted by intended send time.

        The stable sort matches the seed implementation's
        ``sorted(key=intended_send_us)`` tie-breaking exactly, so
        every derived array is bit-identical to the object path.
        """
        if self._order is None:
            send = self._columns.column("intended_send_us")
            order = np.argsort(send, kind="stable")[self.warmup_count:]
            # Shared with every derived array; freeze it like them.
            order.setflags(write=False)
            self._order = order
        return self._order

    def measured_requests(self) -> List[Request]:
        """Requests after warmup, in send order, materialized on demand.

        The object-shaped escape hatch (timeline validation, tests);
        summary statistics stay columnar and never call this.
        """
        columns = self._columns
        return [columns.row(int(index)) for index in self.measured_order()]

    # ------------------------------------------------------------------
    def _measured(self, values: np.ndarray, what: str) -> np.ndarray:
        """Warmup-trim and order a full-length derived column."""
        order = self.measured_order()
        if order.size == 0:
            raise InsufficientSamplesError(1, 0, what)
        out = values[order]
        out.setflags(write=False)
        return out

    def latencies_us(self, point: PointOfMeasurement
                     = PointOfMeasurement.GENERATOR,
                     params: SkylakeParameters = DEFAULT_PARAMETERS
                     ) -> np.ndarray:
        """Per-request latencies at *point*, warmup excluded."""
        key = (point, params.kernel_stack_us)
        cached = self._latency_cache.get(key)
        if cached is not None:
            return cached
        columns = self._columns
        actual = columns.column("actual_send_us")
        if point is PointOfMeasurement.GENERATOR:
            values = columns.column("measured_complete_us") - actual
        elif point is PointOfMeasurement.NIC:
            values = columns.column("client_nic_us") - actual
        else:  # KERNEL: one RX-stack traversal above the NIC.
            values = (columns.column("client_nic_us") - actual
                      + params.kernel_stack_us)
        out = self._measured(values, "latency array")
        self._latency_cache[key] = out
        return out

    def average_latency_us(self, point: PointOfMeasurement
                           = PointOfMeasurement.GENERATOR) -> float:
        """The run's average response time at *point*."""
        return float(np.mean(self.latencies_us(point)))

    def percentile_latency_us(self, percentile: float = 99.0,
                              point: PointOfMeasurement
                              = PointOfMeasurement.GENERATOR) -> float:
        """The run's tail latency at *point* (default: 99th)."""
        if not 0.0 < percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {percentile}"
            )
        return float(np.percentile(self.latencies_us(point), percentile))

    def send_errors_us(self) -> np.ndarray:
        """Per-request send-timing errors (inter-arrival disruption)."""
        cached = self._array_cache.get("send_errors")
        if cached is not None:
            return cached
        columns = self._columns
        values = (columns.column("actual_send_us")
                  - columns.column("intended_send_us"))
        out = self._measured(values, "send error array")
        self._array_cache["send_errors"] = out
        return out

    def client_overheads_us(self) -> np.ndarray:
        """Per-request client measurement error (generator - NIC)."""
        cached = self._array_cache.get("client_overheads")
        if cached is not None:
            return cached
        columns = self._columns
        actual = columns.column("actual_send_us")
        measured = columns.column("measured_complete_us") - actual
        true = columns.column("client_nic_us") - actual
        out = self._measured(measured - true, "overhead array")
        self._array_cache["client_overheads"] = out
        return out
