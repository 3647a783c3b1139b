"""Service-graph assembly: one workload, many tiers.

Builds a :class:`~repro.graph.spec.ServiceGraphSpec` into a live
service tree for the one testbed assembly,
:meth:`~repro.workloads.registry.WorkloadDefinition.build_testbed`
(``graph=...``), which wraps it in the same
:class:`~repro.core.testbed.Testbed` everything above consumes.  Each
tier reuses the cluster layer's assembly for its own shape (so a
leaf-shard tier is literally a :class:`~repro.cluster.fanout.
FanoutService` with the same streams a standalone cluster would
draw), cache tiers become :class:`~repro.graph.cache.CacheTier`
stages, and a tier with a non-noop policy gets a
:class:`~repro.graph.resilience.ResilientDispatcher` on its inbound
edge.

Tiers are assembled back-to-front (the spec's tuple order is the
topological order), and every tier's random streams are namespaced by
its name (``<tier>/node<i>/...``), so graph runs are bit-exactly
reproducible and adding a tier never perturbs another tier's draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro.cluster.fanout import FanoutService
from repro.cluster.testbed import build_cluster_service
from repro.config.knobs import HardwareConfig
from repro.graph.cache import CacheTier, hit_stream
from repro.graph.resilience import ResilientDispatcher
from repro.graph.spec import TIER_CACHE, ServiceGraphSpec
from repro.parameters import SkylakeParameters
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

if TYPE_CHECKING:
    from repro.workloads.registry import WorkloadDefinition


class GraphStage:
    """One service tier: local work, then an optional downstream hop.

    Honors the ``submit(request, done_fn, *ctx)`` contract: the local
    service runs first (stamping arrival and accumulating service
    time), then the request forwards downstream; the downstream's
    completion is the stage's completion.  The caller's callback and
    context ride through the local service as data, so no per-request
    closure is built (and the accelerated kernel can fuse an entry
    stage's station, see :mod:`repro.sim.kernel`).
    """

    def __init__(self, local, downstream=None,
                 name: str = "stage") -> None:
        self.local = local
        self.downstream = downstream
        self.name = name

    def submit(self, request, done_fn: Callable, *ctx: Any) -> None:
        if self.downstream is None:
            self.local.submit(request, done_fn, *ctx)
            return
        self.local.submit(request, self._forward, done_fn, *ctx)

    def _forward(self, request, done_fn: Callable, *ctx: Any) -> None:
        self.downstream.submit(request, done_fn, *ctx)

    # ------------------------------------------------------- metrics
    def node_utilizations(self) -> List[float]:
        return _node_utilizations(self.local)

    def utilization(self) -> float:
        probe = getattr(self.local, "utilization", None)
        return probe() if probe is not None else 0.0

    def expected_service_us(self) -> float:
        probe = getattr(self.local, "expected_service_us", None)
        return probe() if probe is not None else 0.0


def _node_utilizations(service) -> List[float]:
    """Per-node utilizations of *service*, via duck-probes."""
    probe = getattr(service, "node_utilizations", None)
    if probe is not None:
        return list(probe() if callable(probe) else probe)
    probe = getattr(service, "utilization", None)
    return [probe()] if probe is not None else []


class ServiceGraph:
    """A built service graph behind the ``submit`` contract.

    Attributes:
        spec: the topology this graph was built from.
        entries: tier name -> the submit target for calls into that
            tier (the dispatcher when the tier has a policy).
        caches: cache tiers by name.
        dispatchers: resilient dispatchers by tier name.
    """

    def __init__(self, spec: ServiceGraphSpec,
                 entries: Dict[str, Any],
                 caches: Dict[str, CacheTier],
                 dispatchers: Dict[str, ResilientDispatcher]) -> None:
        self.spec = spec
        self.entries = entries
        self.caches = caches
        self.dispatchers = dispatchers
        self._entry = entries[spec.entry.name]
        self.name = f"graph[{'>'.join(spec.names)}]"

    def submit(self, request, done_fn: Callable, *ctx: Any) -> None:
        self._entry.submit(request, done_fn, *ctx)

    def tier_entry(self, name: str) -> Any:
        """The live submit target for tier *name*."""
        self.spec.tier(name)  # did-you-mean on unknown names
        return self.entries[name]

    # ------------------------------------------------------- metrics
    def node_utilizations(self) -> List[float]:
        values: List[float] = []
        for tier in self.spec.tiers:
            values.extend(_node_utilizations(self.entries[tier.name]))
        return values

    def utilization(self) -> float:
        values = self.node_utilizations()
        return sum(values) / len(values) if values else 0.0

    def expected_service_us(self) -> float:
        total = 0.0
        for tier in self.spec.tiers:
            probe = getattr(self.entries[tier.name],
                            "expected_service_us", None)
            if probe is not None:
                total += probe()
        return total


def build_service_graph(definition: "WorkloadDefinition",
                        sim: Simulator,
                        streams: RandomStreams,
                        server_config: HardwareConfig,
                        params: SkylakeParameters,
                        spec: ServiceGraphSpec,
                        **workload_params: Any) -> ServiceGraph:
    """Assemble the service side of a graph topology.

    Tiers build in reverse declaration order so every downstream
    reference is already live; a tier forwarding to several children
    joins them through an all-children :class:`FanoutService` barrier
    (which consumes no randomness when fanout == children).
    """
    entries: Dict[str, Any] = {}
    caches: Dict[str, CacheTier] = {}
    dispatchers: Dict[str, ResilientDispatcher] = {}
    for tier in reversed(spec.tiers):
        if not tier.downstream:
            downstream = None
        elif len(tier.downstream) == 1:
            downstream = entries[tier.downstream[0]]
        else:
            downstream = FanoutService(
                sim, [entries[name] for name in tier.downstream],
                links=None, fanout=0, quorum=0,
                name=f"{tier.name}-join")
        if tier.kind == TIER_CACHE:
            rng = (hit_stream(streams, f"{tier.name}/cache")
                   if 0.0 < tier.hit_ratio < 1.0 else None)
            stage: Any = CacheTier(
                sim, downstream,
                hit_ratio=tier.hit_ratio,
                hit_service_us=tier.hit_service_us,
                fill_penalty_us=tier.fill_penalty_us,
                rng=rng, name=tier.name)
            caches[tier.name] = stage
        else:
            local = build_cluster_service(
                definition, sim, streams, server_config, params,
                tier.shape,
                stream_prefix=f"{tier.name}/",
                label=f"{definition.name}.{tier.name}",
                **workload_params)
            stage = GraphStage(local, downstream, name=tier.name)
        if tier.policy.is_noop:
            entries[tier.name] = stage
        else:
            dispatcher = ResilientDispatcher(
                sim, stage, tier.policy, name=tier.name)
            dispatchers[tier.name] = dispatcher
            entries[tier.name] = dispatcher
    return ServiceGraph(spec, entries, caches, dispatchers)
