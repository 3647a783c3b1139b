"""The per-run observability context.

One :class:`Observability` instance is installed on one
:class:`~repro.sim.engine.Simulator` (``sim.obs``) before the
testbed's components are built.  Components discover it at
construction via the null-object contract::

    obs = getattr(sim, "obs", None)
    self._trace = obs.tracer if obs is not None else None

so a disabled run (``sim.obs is None``, the default) pays exactly one
cached-attribute check per hook on the hot path, and an enabled run
appends spans / bumps plain counters with no extra indirection.

Metrics follow the pull model: hot components accumulate into plain
attributes they already keep (events processed, dispatch counts,
busy time); :meth:`Observability.finalize` harvests them all into the
:class:`~repro.obs.metrics.MetricsRegistry` once, after the run
drains, and returns the flattened pairs that ride on
:class:`~repro.core.testbed.RunMetrics.obs_metrics`.  A sharded
repetition folds its shard workers' pairs with
:func:`merge_shard_metrics`, which knows each metric's kind.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricPairs, MetricsRegistry
from repro.obs.sinks import (
    DEFAULT_SINK,
    SINK_COLUMNAR,
    make_sink,
    validate_sink_name,
)
from repro.obs.trace import DEFAULT_MAX_SPANS, Tracer
from repro.sim.sampling import c_samplers_active


class LinkObserver:
    """Message accounting attached to one network link.

    The link bumps :attr:`messages` and :attr:`kb` in place per sampled
    transit -- two plain attribute adds -- only when an observer is
    attached.
    """

    __slots__ = ("name", "messages", "kb")

    def __init__(self, name: str) -> None:
        self.name = name
        self.messages = 0
        self.kb = 0.0


class Observability:
    """Run-scoped observability switchboard.

    Args:
        trace: record lifecycle spans (off by default; tracing costs
            a few tuple appends per request and the span memory).
        sink: telemetry sink name (see :mod:`repro.obs.sinks`);
            validated immediately so typos fail before a run starts.
        max_spans: span-list bound when tracing.

    Example:
        >>> from repro.sim.engine import Simulator
        >>> obs = Observability(trace=True)
        >>> sim = obs.install(Simulator())
        >>> sim.obs is obs
        True
    """

    def __init__(self, trace: bool = False, sink: str = DEFAULT_SINK,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.sink_name = validate_sink_name(sink)
        self.tracer: Optional[Tracer] = (
            Tracer(max_spans) if trace else None)
        self.registry = MetricsRegistry()
        self._generators: List[Any] = []
        self._stations: List[Any] = []
        self._balancers: List[Any] = []
        self._fanouts: List[Any] = []
        self._caches: List[Any] = []
        self._resilience: List[Any] = []
        self._links: List[LinkObserver] = []
        self._finalized: Optional[MetricPairs] = None

    @property
    def tracing(self) -> bool:
        """True when lifecycle spans are being recorded."""
        return self.tracer is not None

    # ------------------------------------------------------------------
    def install(self, sim: Any) -> Any:
        """Attach this context to *sim* (``sim.obs``); return *sim*."""
        sim.obs = self
        return sim

    # ---------------------------------------------------- registration
    def on_generator(self, generator: Any) -> None:
        """A load generator is wiring up: swap sinks, watch links.

        Called from ``LoadGenerator.__init__``; replacing ``samples``
        here (before any completion) keeps the generator subclasses
        sink-agnostic.
        """
        self._generators.append(generator)
        if self.sink_name != SINK_COLUMNAR:
            generator.samples = make_sink(
                self.sink_name, generator.num_requests,
                generator.samples.warmup_fraction)
        self.watch_link(generator._link_to_server, "client->server")
        self.watch_link(generator._link_to_client, "server->client")

    def on_station(self, station: Any) -> None:
        self._stations.append(station)

    def on_balancer(self, balancer: Any) -> None:
        self._balancers.append(balancer)

    def on_fanout(self, fanout: Any) -> None:
        self._fanouts.append(fanout)
        for index, link in enumerate(fanout._links):
            if link is not None:
                self.watch_link(
                    link, f"{fanout.name}.shard{index}")

    def on_cache(self, cache: Any) -> None:
        self._caches.append(cache)

    def on_resilience(self, dispatcher: Any) -> None:
        self._resilience.append(dispatcher)

    def watch_link(self, link: Any, name: str) -> LinkObserver:
        """Attach (or reuse) a message observer on *link*."""
        observer = getattr(link, "observer", None)
        if observer is None:
            observer = LinkObserver(name)
            link.observer = observer
            self._links.append(observer)
        return observer

    # ------------------------------------------------------- finalize
    def finalize(self, testbed: Any) -> MetricPairs:
        """Harvest every component's counters into the registry.

        Idempotent: the run summary and any later export see the same
        flattened snapshot.
        """
        if self._finalized is not None:
            return self._finalized
        reg = self.registry
        sim = testbed.sim
        reg.counter("engine.events_dispatched").add(sim.events_processed)
        reg.counter("engine.heap_compactions").add(
            getattr(sim, "compactions", 0))
        fallbacks = getattr(sim, "kernel_scalar_fallbacks", None)
        if fallbacks is not None:
            # The vectorized engine: events it could not fuse
            # (duck-typed so the reference engine pays nothing).
            reg.counter("engine.kernel.scalar_fallbacks").add(fallbacks)
        # The one sampling fast path: 0.0 means every scalar draw of
        # this process pays the Generator method call instead.
        reg.gauge("sampling.c_samplers").set(
            1.0 if c_samplers_active() else 0.0)
        for observer in self._links:
            reg.counter(f"net.{observer.name}.messages").add(
                observer.messages)
            reg.counter(f"net.{observer.name}.kb").add(observer.kb)
        for station in self._stations:
            prefix = f"station.{station.name}"
            reg.counter(prefix + ".completed").add(station.completed)
            reg.gauge(prefix + ".utilization").set(station.utilization())
            pool = getattr(station, "_pool", None)
            if pool is not None:
                reg.gauge(prefix + ".peak_queue_depth").set(
                    getattr(pool, "peak_queue_depth", 0))
                reg.counter(prefix + ".queue_drops").add(
                    pool.queue.dropped)
        for balancer in self._balancers:
            prefix = f"lb.{balancer.name}"
            reg.counter(prefix + ".completed").add(balancer.completed)
            reg.gauge(prefix + ".peak_outstanding").set(
                getattr(balancer, "peak_outstanding", 0))
            for index, count in enumerate(balancer.dispatched):
                reg.counter(
                    f"{prefix}.dispatched.node{index}").add(count)
        for fanout in self._fanouts:
            prefix = f"fanout.{fanout.name}"
            reg.counter(prefix + ".roots_completed").add(
                fanout.roots_completed)
            reg.counter(prefix + ".subs_issued").add(fanout.subs_issued)
            reg.counter(prefix + ".subs_completed").add(
                fanout.subs_completed)
        for cache in self._caches:
            prefix = f"cache.{cache.name}"
            reg.counter(prefix + ".hits").add(cache.hits)
            reg.counter(prefix + ".misses").add(cache.misses)
            reg.gauge(prefix + ".hit_rate").set(cache.hit_rate)
        for dispatcher in self._resilience:
            prefix = f"resilience.{dispatcher.name}"
            reg.counter(prefix + ".calls").add(dispatcher.calls)
            reg.counter(prefix + ".retries").add(dispatcher.retries)
            reg.counter(prefix + ".hedges").add(dispatcher.hedges)
            reg.counter(prefix + ".timeouts").add(dispatcher.timeouts)
            reg.counter(prefix + ".attempts_issued").add(
                dispatcher.attempts_issued)
            reg.counter(prefix + ".attempts_completed").add(
                dispatcher.attempts_completed)
        for generator in self._generators:
            samples = generator.samples
            reg.counter("sink.recorded").add(len(samples))
            reg.counter("sink.warmup_skipped").add(samples.warmup_count)
        tracer = self.tracer
        if tracer is not None:
            reg.counter("trace.spans").add(len(tracer))
            reg.counter("trace.dropped").add(tracer.dropped)
        self._finalized = reg.flatten()
        return self._finalized


def merge_shard_metrics(shards: Sequence[MetricPairs]) -> MetricPairs:
    """One repetition's metrics from its replica shards' pairs.

    Counters add across shards.  The gauges :meth:`Observability.
    finalize` sets do not: a ``*.utilization`` and
    ``sampling.c_samplers`` average over the shards (as the run's
    ``server_utilization`` does), a ``*.peak_*`` takes the largest,
    and a ``cache.<name>.hit_rate`` is recomputed from the summed
    hits and misses.  Names keep their first-seen order.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for pairs in shards:
        for name, value in pairs:
            name, value = str(name), float(value)
            if name.rpartition(".")[2].startswith("peak_"):
                totals[name] = max(totals.get(name, value), value)
            else:
                totals[name] = totals.get(name, 0.0) + value
            counts[name] = counts.get(name, 0) + 1
    for name in totals:
        if (name.endswith(".utilization")
                or name == "sampling.c_samplers"):
            totals[name] /= counts[name]
        elif name.startswith("cache.") and name.endswith(".hit_rate"):
            prefix = name[:-len("hit_rate")]
            hits = totals.get(prefix + "hits", 0.0)
            lookups = hits + totals.get(prefix + "misses", 0.0)
            totals[name] = hits / lookups if lookups else 0.0
    return tuple(totals.items())
