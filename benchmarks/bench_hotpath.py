"""End-to-end hot-path benchmark: columnar pipeline vs. the seed path.

Runs the same open-loop Memcached testbed (Mutilate-style, LP client)
twice with identical seeds:

* **legacy object path** -- a faithful replica of the seed
  implementation kept in this file: a heap of ``Event`` objects
  compared via Python ``__lt__``, per-event ``step()`` dispatch, and a
  list-of-``Request`` sample store whose accessors re-sort on every
  call;
* **columnar path** -- the current implementation: tuple-entry event
  heap, an arrival train that builds each request as it launches, and
  :class:`~repro.telemetry.SampleColumns` struct-of-arrays telemetry.

Both paths must produce bit-identical run metrics (asserted); the
interesting output is the end-to-end speedup.  Results are written to
``BENCH_hotpath.json`` so CI can track the perf trajectory; the file
also consolidates per-stage timings (arrival-train construction, event
loop, summary), the pinned pre-batching mainline reference, an
observability-off vs observability-on comparison (lifecycle tracing
and the streaming sink, both against the uninstrumented columnar run),
and -- when ``benchmarks/bench_sampling.py`` ran first -- its
per-distribution microbenchmark results.

Usage::

    python benchmarks/bench_hotpath.py            # 50k requests
    python benchmarks/bench_hotpath.py --quick    # 5k requests, 1 rep
    python benchmarks/bench_hotpath.py --quick --check-overhead  # CI gate
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

import numpy as np  # noqa: E402

from repro.config.presets import LP_CLIENT, SERVER_BASELINE  # noqa: E402
from repro.core.testbed import Testbed  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.loadgen.measurement import (  # noqa: E402
    PointOfMeasurement,
    latency_at_point,
)
from repro.loadgen.mutilate import build_mutilate  # noqa: E402
from repro.parameters import DEFAULT_PARAMETERS  # noqa: E402
from repro.server.request import Request  # noqa: E402
from repro.server.station import ServiceStation  # noqa: E402
from repro.sim.random import RandomStreams  # noqa: E402
from repro.workloads.common import server_env_scale  # noqa: E402
from repro.workloads.memcached import (  # noqa: E402
    MEMCACHED_WORKERS,
    EtcServiceModel,
)
from repro.workloads.etc import EtcWorkload  # noqa: E402


# --------------------------------------------------------------- legacy sim
class _LegacyEvent:
    """The seed's Event: a heap-resident object with Python ordering."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time_us, seq, callback, args):
        self.time = time_us
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class LegacySimulator:
    """The seed engine, verbatim, plus ``post*`` aliases that allocate
    an Event per call -- exactly what every call site paid before the
    fast path existed."""

    def __init__(self):
        self._now = 0.0
        self._heap: List[_LegacyEvent] = []
        self._seq = itertools.count()
        self._events_processed = 0

    @property
    def now(self):
        return self._now

    @property
    def events_processed(self):
        return self._events_processed

    @property
    def pending_events(self):
        return len(self._heap)

    @property
    def live_pending_events(self):
        return sum(1 for event in self._heap if not event.cancelled)

    def schedule(self, delay, callback, *args):
        if not (delay >= 0.0):
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        event = _LegacyEvent(self._now + delay, next(self._seq),
                             callback, args)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time_us, callback, *args):
        return self.schedule(time_us - self._now, callback, *args)

    # The modern producer API, routed through the object path.
    post = schedule
    post_at = schedule_at

    def post_train(self, times, callback, make_args):
        # Eager, as the seed armed its arrivals: one Event per member,
        # each member's args built up front, in index order.
        for index, time_us in enumerate(np.asarray(times).tolist()):
            self.schedule_at(time_us, callback, *make_args(index))
        return len(times)

    def step(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time < self._now - 1e-9:
                raise SimulationError(
                    f"event at t={event.time} is behind clock t={self._now}")
            self._now = max(self._now, event.time)
            event.fired = True
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, max_events=None):
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired


@dataclass
class LegacyRequest:
    """The seed's request record: a plain dataclass with a per-instance
    ``__dict__`` (the seed predates the ``__slots__`` conversion)."""

    request_id: int
    size_kb: float = 0.0
    intended_send_us: float = 0.0
    actual_send_us: float = 0.0
    server_arrival_us: float = 0.0
    queue_wait_us: float = 0.0
    service_us: float = 0.0
    server_departure_us: float = 0.0
    client_nic_us: float = 0.0
    measured_complete_us: float = 0.0

    @property
    def send_error_us(self):
        return self.actual_send_us - self.intended_send_us

    @property
    def true_latency_us(self):
        return self.client_nic_us - self.actual_send_us

    @property
    def measured_latency_us(self):
        return self.measured_complete_us - self.actual_send_us


class LegacyRunSamples:
    """The seed sample store: retained Request objects, re-sorted and
    re-materialized into arrays on every accessor call."""

    def __init__(self, warmup_fraction=0.1):
        self._warmup_fraction = warmup_fraction
        self._requests: List[Request] = []

    def record(self, request):
        self._requests.append(request)

    def __len__(self):
        return len(self._requests)

    @property
    def warmup_count(self):
        return int(len(self._requests) * self._warmup_fraction)

    @property
    def measured_count(self):
        return len(self.measured_requests())

    def measured_requests(self):
        ordered = sorted(self._requests, key=lambda r: r.intended_send_us)
        return ordered[self.warmup_count:]

    def latencies_us(self, point=PointOfMeasurement.GENERATOR,
                     params=DEFAULT_PARAMETERS):
        return np.array([latency_at_point(r, point, params)
                         for r in self.measured_requests()])

    def average_latency_us(self, point=PointOfMeasurement.GENERATOR):
        return float(np.mean(self.latencies_us(point)))

    def percentile_latency_us(self, percentile=99.0,
                              point=PointOfMeasurement.GENERATOR):
        return float(np.percentile(self.latencies_us(point), percentile))


#: End-to-end reference for the pre-batching mainline (commit 7be11ee,
#: "Unified typed experiment API"), measured on the same machine and
#: flags as the default full run (50k requests @ 200k QPS, seed 7, best
#: of 3) immediately before the draw-ahead sampling rewrite landed.
#: ``speedup_vs_pre_batching`` is only reported when the current
#: invocation uses that exact configuration; on other hardware the
#: number is indicative, not a measurement.
MAIN_PRE_BATCHING = {
    "commit": "7be11ee",
    "best_seconds": 3.486,
    "events_per_sec": 100398.0,
    "num_requests": 50_000,
    "qps": 200_000.0,
    "seed": 7,
}

#: Pinned observability-off reference: the legacy/columnar speedup
#: ratio measured at the commit that introduced the repro.obs hooks
#: (null-object attribute checks on the request hot path).  The ratio
#: is hardware-neutral -- both flavors run in the same invocation --
#: so the ``--check-overhead`` gate compares the current run's
#: ``speedup_vs_seed`` against the pin for its mode: a drop past
#: ``OVERHEAD_MARGIN`` means the disabled-observability hot path got
#: slower relative to the seed and the gate fails.  The pins carry
#: headroom below the locally measured ratios (quick 1.30-1.50x,
#: full 1.84x) to absorb best-of-1 CI-runner jitter; the margin on
#: top of that is the observability budget proper.
OBS_OFF_REFERENCE = {
    "commit": "obs-hooks",
    "speedup_vs_seed_quick": 1.20,
    "speedup_vs_seed_full": 1.65,
}
#: Allowed relative regression of speedup_vs_seed before the
#: ``--check-overhead`` gate fails (the ISSUE's 3% budget).
OVERHEAD_MARGIN = 0.03

#: Pinned ceiling on the streaming sink's ingest overhead relative to
#: the uninstrumented columnar run.  Batched ingest (chunked latency
#: compute + Welford merges + hoisted P2 updates) brought the locally
#: measured overhead from ~66% down to ~23% full / ~±10% quick; the
#: ceilings carry headroom for best-of-1 CI jitter but sit far below
#: the pre-batching 66%, so a revert to per-request ingest fails the
#: ``--check-overhead`` gate.
STREAMING_OVERHEAD_REFERENCE = {
    "commit": "batched-ingest",
    "max_overhead_pct_quick": 40.0,
    "max_overhead_pct_full": 35.0,
}

#: Floor on the vectorized kernel's event-loop speedup over the
#: reference engine (same invocation, so the ratio is
#: hardware-neutral).  Locally measured: 1.5-1.6x at the full
#: operating point, noisier in quick mode (best of 1 at 5k requests),
#: hence the tolerant quick floor.  The 2x target of the kernel issue
#: is tracked in the README's perf trajectory; the gate pins the
#: *regression* boundary, not the aspiration.
KERNEL_SPEEDUP_FLOOR = {
    "commit": "vectorized-kernel",
    "min_speedup_quick": 1.10,
    "min_speedup_full": 1.35,
}


# ---------------------------------------------------------------- the bench
def build_testbed(sim: Any, seed: int, qps: float,
                  num_requests: int,
                  samples_factory: Optional[Callable[..., Any]] = None,
                  request_cls: type = Request) -> Testbed:
    """The Memcached testbed assembly with an injectable simulator."""
    streams = RandomStreams(seed)
    etc = EtcWorkload(streams.get("etc"))
    station = ServiceStation(
        sim, SERVER_BASELINE, EtcServiceModel(),
        workers=MEMCACHED_WORKERS,
        rng=streams.stream("service"),
        name="memcached",
        env_scale=server_env_scale(streams, DEFAULT_PARAMETERS))
    generator = build_mutilate(
        sim, streams, LP_CLIENT, station, qps, num_requests,
        request_factory=lambda index: request_cls(
            request_id=index, size_kb=etc.sample_message_kb()))
    if samples_factory is not None:
        generator.samples = samples_factory(warmup_fraction=0.1)
    return Testbed(
        sim, streams, generator, station,
        workload="memcached", qps=qps,
        client_config=LP_CLIENT, server_config=SERVER_BASELINE)


def time_path(make_sim, seed, qps, num_requests, repetitions,
              samples_factory=None, request_cls=Request):
    """Best-of-N wall time for one pipeline flavor."""
    best_s = float("inf")
    metrics = None
    events = 0
    for _ in range(repetitions):
        testbed = build_testbed(
            make_sim(), seed, qps, num_requests,
            samples_factory=samples_factory, request_cls=request_cls)
        started = time.perf_counter()
        metrics = testbed.run()
        elapsed = time.perf_counter() - started
        best_s = min(best_s, elapsed)
        events = testbed.sim.events_processed
    return {
        "best_seconds": round(best_s, 4),
        "events_per_sec": round(events / best_s, 1),
        "requests_per_sec": round(num_requests / best_s, 1),
    }, metrics


def time_stages(seed, qps, num_requests):
    """One instrumented run split into its pipeline stages.

    Separate from :func:`time_path` (whose runs stay uninstrumented)
    so stage boundaries cannot perturb the headline timing.
    """
    from repro.loadgen.measurement import PointOfMeasurement
    from repro.sim.engine import Simulator

    testbed = build_testbed(Simulator(), seed, qps, num_requests)
    started = time.perf_counter()
    testbed.generator.start()
    start_s = time.perf_counter() - started

    started = time.perf_counter()
    testbed.sim.run()
    run_s = time.perf_counter() - started

    samples = testbed.generator.samples
    started = time.perf_counter()
    samples.average_latency_us(PointOfMeasurement.GENERATOR)
    samples.percentile_latency_us(99.0, PointOfMeasurement.GENERATOR)
    samples.average_latency_us(PointOfMeasurement.NIC)
    samples.percentile_latency_us(99.0, PointOfMeasurement.NIC)
    summarize_s = time.perf_counter() - started

    return {
        "arrival_train_seconds": round(start_s, 4),
        "event_loop_seconds": round(run_s, 4),
        "summarize_seconds": round(summarize_s, 4),
    }


def time_observability(seed, qps, num_requests, repetitions,
                       baseline, baseline_metrics):
    """Observability-on flavors vs the uninstrumented columnar run.

    Tracing must leave the run metrics bit-identical (asserted, after
    stripping the harvested ``obs_metrics``); the streaming sink is
    an approximation by design, so its latency deltas are reported
    rather than asserted.
    """
    from dataclasses import replace

    from repro.obs import Observability
    from repro.sim.engine import Simulator

    traced, traced_metrics = time_path(
        lambda: Observability(trace=True).install(Simulator()),
        seed, qps, num_requests, repetitions)
    stripped = replace(traced_metrics, obs_metrics=())
    assert stripped == baseline_metrics, (
        f"tracing perturbed the run: traced={stripped} "
        f"baseline={baseline_metrics}")
    traced_overhead = (traced["best_seconds"]
                       / baseline["best_seconds"] - 1.0)

    streaming, streaming_metrics = time_path(
        lambda: Observability(sink="streaming").install(Simulator()),
        seed, qps, num_requests, repetitions)
    streaming_overhead = (streaming["best_seconds"]
                          / baseline["best_seconds"] - 1.0)
    return {
        "traced": traced,
        "tracing_overhead_pct": round(100.0 * traced_overhead, 2),
        "traced_metrics_identical": True,
        "streaming_sink": streaming,
        "streaming_overhead_pct": round(
            100.0 * streaming_overhead, 2),
        "streaming_avg_delta_pct": round(
            100.0 * (streaming_metrics.avg_us
                     / baseline_metrics.avg_us - 1.0), 4),
        "streaming_p99_delta_pct": round(
            100.0 * (streaming_metrics.p99_us
                     / baseline_metrics.p99_us - 1.0), 4),
    }


def time_kernel(seed, qps, num_requests, repetitions):
    """Reference vs vectorized-kernel event-loop timing.

    Both engines run the identical testbed; timing covers the event
    loop only (arrival-train construction and summary excluded), which
    is what the kernel accelerates.  Per-launch request synthesis (the
    request factory, run as each arrival fires) falls inside
    ``sim.run()`` on both engines.  Bit-identity is asserted over
    every telemetry column of the final sample buffer -- not just the
    summary statistics -- so a divergence anywhere in the event order
    or the RNG draw sequence fails loudly.
    """
    import hashlib

    from repro.sim.engine import Simulator
    from repro.sim.kernel import KernelSimulator
    from repro.telemetry.columns import COLUMN_FIELDS

    def loop_time(sim_cls):
        best_s = float("inf")
        events = 0
        testbed = None
        for _ in range(repetitions):
            testbed = build_testbed(sim_cls(), seed, qps, num_requests)
            testbed.generator.start()
            started = time.perf_counter()
            testbed.sim.run()
            best_s = min(best_s, time.perf_counter() - started)
            events = testbed.sim.events_processed
        digest = hashlib.sha256()
        columns = testbed.generator.samples.columns
        for name in COLUMN_FIELDS:
            digest.update(columns.column(name).tobytes())
        return best_s, events, digest.hexdigest(), testbed

    ref_s, ref_events, ref_hash, _ = loop_time(Simulator)
    kern_s, kern_events, kern_hash, kernel_testbed = loop_time(
        KernelSimulator)
    assert ref_events == kern_events, (
        f"event counts diverged: reference={ref_events} "
        f"kernel={kern_events}")
    assert ref_hash == kern_hash, (
        "kernel run is not bit-identical to the reference "
        f"(payload hashes {ref_hash[:12]} != {kern_hash[:12]})")
    return {
        "reference_loop_seconds": round(ref_s, 4),
        "reference_events_per_sec": round(ref_events / ref_s, 1),
        "kernel_loop_seconds": round(kern_s, 4),
        "kernel_events_per_sec": round(kern_events / kern_s, 1),
        "kernel_speedup": round(ref_s / kern_s, 3),
        "bit_identical": True,
        "events": ref_events,
        "scalar_fallbacks": kernel_testbed.sim.kernel_scalar_fallbacks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="5k requests, 1 repetition (CI smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per run (default 50000)")
    parser.add_argument("--qps", type=float, default=200_000.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repetitions", type=int, default=None,
                        help="take the best of N runs (default 3)")
    parser.add_argument("--json", default="BENCH_hotpath.json",
                        help="output path (default ./BENCH_hotpath.json)")
    parser.add_argument("--check-overhead", action="store_true",
                        help="fail (exit 1) when the obs-off hot path "
                             "regresses more than "
                             f"{OVERHEAD_MARGIN:.0%} below the pinned "
                             "speedup reference")
    args = parser.parse_args(argv)

    num_requests = args.requests or (5_000 if args.quick else 50_000)
    repetitions = args.repetitions or (1 if args.quick else 3)

    print(f"open-loop memcached, {num_requests} requests @ "
          f"{args.qps:g} QPS, seed {args.seed}, best of {repetitions}")

    legacy, legacy_metrics = time_path(
        LegacySimulator, args.seed, args.qps, num_requests, repetitions,
        samples_factory=LegacyRunSamples, request_cls=LegacyRequest)
    print(f"  legacy object path : {legacy['best_seconds']:8.3f}s  "
          f"({legacy['events_per_sec']:>10.0f} ev/s)")

    from repro.sim.engine import Simulator
    columnar, columnar_metrics = time_path(
        Simulator, args.seed, args.qps, num_requests, repetitions)
    print(f"  columnar pipeline  : {columnar['best_seconds']:8.3f}s  "
          f"({columnar['events_per_sec']:>10.0f} ev/s)")

    identical = legacy_metrics == columnar_metrics
    assert identical, (
        f"pipelines diverged: legacy={legacy_metrics} "
        f"columnar={columnar_metrics}")

    speedup = legacy["best_seconds"] / columnar["best_seconds"]
    print(f"  speedup            : {speedup:8.2f}x  "
          f"(metrics bit-identical: {identical})")

    observability = time_observability(
        args.seed, args.qps, num_requests, repetitions,
        columnar, columnar_metrics)
    print(f"  tracing on         : "
          f"{observability['traced']['best_seconds']:8.3f}s  "
          f"({observability['tracing_overhead_pct']:+.1f}%, "
          f"metrics bit-identical)")
    print(f"  streaming sink     : "
          f"{observability['streaming_sink']['best_seconds']:8.3f}s  "
          f"({observability['streaming_overhead_pct']:+.1f}%, "
          f"p99 {observability['streaming_p99_delta_pct']:+.3f}%)")

    stages = time_stages(args.seed, args.qps, num_requests)
    print(f"  stages             : arrival train "
          f"{stages['arrival_train_seconds']:.3f}s, event loop "
          f"{stages['event_loop_seconds']:.3f}s, summarize "
          f"{stages['summarize_seconds']:.3f}s")

    kernel = time_kernel(args.seed, args.qps, num_requests, repetitions)
    print(f"  vectorized kernel  : "
          f"{kernel['kernel_loop_seconds']:8.3f}s loop  "
          f"({kernel['kernel_events_per_sec']:>10.0f} ev/s, "
          f"{kernel['kernel_speedup']:.2f}x vs reference loop "
          f"{kernel['reference_loop_seconds']:.3f}s, bit-identical, "
          f"{kernel['scalar_fallbacks']} scalar fallbacks)")

    payload = {
        "benchmark": "hotpath",
        "workload": "memcached-open-loop",
        "qps": args.qps,
        "num_requests": num_requests,
        "seed": args.seed,
        "repetitions": repetitions,
        "quick": bool(args.quick),
        "legacy_object_path": legacy,
        "columnar_path": columnar,
        "speedup_vs_seed": round(speedup, 3),
        # Kept under the historical key too so existing trajectory
        # tooling keeps parsing older artifacts alongside new ones.
        "speedup": round(speedup, 3),
        "metrics_identical": identical,
        "observability": observability,
        "per_stage": stages,
        "kernel": kernel,
        "kernel_speedup_floor": KERNEL_SPEEDUP_FLOOR,
        "main_pre_batching": MAIN_PRE_BATCHING,
        "obs_off_reference": OBS_OFF_REFERENCE,
        "streaming_overhead_reference": STREAMING_OVERHEAD_REFERENCE,
        "avg_us": columnar_metrics.avg_us,
        "p99_us": columnar_metrics.p99_us,
    }
    reference_config = (
        num_requests == MAIN_PRE_BATCHING["num_requests"]
        and args.qps == MAIN_PRE_BATCHING["qps"]
        and args.seed == MAIN_PRE_BATCHING["seed"])
    if reference_config:
        vs_main = (MAIN_PRE_BATCHING["best_seconds"]
                   / columnar["best_seconds"])
        payload["speedup_vs_pre_batching"] = round(vs_main, 3)
        print(f"  vs pre-batching    : {vs_main:8.2f}x  "
              f"(mainline {MAIN_PRE_BATCHING['commit']}, "
              f"{MAIN_PRE_BATCHING['best_seconds']}s)")

    sampling_path = os.path.join(
        os.path.dirname(os.path.abspath(args.json)), "BENCH_sampling.json")
    if os.path.exists(sampling_path):
        with open(sampling_path) as handle:
            payload["sampling_microbench"] = json.load(handle)

    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {args.json}")

    if args.check_overhead:
        pin_key = ("speedup_vs_seed_quick" if args.quick
                   else "speedup_vs_seed_full")
        pinned = OBS_OFF_REFERENCE[pin_key]
        floor = pinned * (1.0 - OVERHEAD_MARGIN)
        if speedup < floor:
            print(f"  obs-overhead gate  : FAIL -- speedup_vs_seed "
                  f"{speedup:.2f}x fell below {floor:.2f}x "
                  f"(pinned {pinned}x - {OVERHEAD_MARGIN:.0%} margin)")
            return 1
        print(f"  obs-overhead gate  : ok ({speedup:.2f}x >= "
              f"{floor:.2f}x)")
        ceiling_key = ("max_overhead_pct_quick" if args.quick
                       else "max_overhead_pct_full")
        ceiling = STREAMING_OVERHEAD_REFERENCE[ceiling_key]
        streaming_pct = observability["streaming_overhead_pct"]
        if streaming_pct > ceiling:
            print(f"  streaming gate     : FAIL -- streaming-sink "
                  f"overhead {streaming_pct:+.1f}% exceeded the "
                  f"pinned {ceiling:.0f}% ceiling")
            return 1
        print(f"  streaming gate     : ok ({streaming_pct:+.1f}% <= "
              f"{ceiling:.0f}%)")
        floor_key = ("min_speedup_quick" if args.quick
                     else "min_speedup_full")
        kernel_floor = KERNEL_SPEEDUP_FLOOR[floor_key]
        if kernel["kernel_speedup"] < kernel_floor:
            print(f"  kernel gate        : FAIL -- kernel speedup "
                  f"{kernel['kernel_speedup']:.2f}x fell below the "
                  f"pinned {kernel_floor:.2f}x floor")
            return 1
        print(f"  kernel gate        : ok "
              f"({kernel['kernel_speedup']:.2f}x >= "
              f"{kernel_floor:.2f}x, bit-identical)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
