"""Cluster testbed assembly: one workload, many servers.

Turns a workload's single-server building blocks into a
load-balanced, optionally sharded cluster deployment behind the same
:class:`~repro.core.testbed.Testbed` interface, so everything above
(experiments, campaigns, figure studies, the CLI) runs cluster
topologies unchanged.

Every workload contributes a :class:`ClusterAdapter` -- its
server-group service factory, its load-generator builder and its
request factory -- and the assembly here composes them by
:class:`~repro.cluster.spec.ClusterSpec`:

* ``nodes`` replicated groups behind a
  :class:`~repro.cluster.balancer.LoadBalancer` (one LB policy draw
  per request, through the batched stream facade);
* ``shards`` shard stations per group wired into a
  :class:`~repro.cluster.fanout.FanoutService` with per-shard links;
* ``replication`` replicas per shard behind a nested per-shard
  balancer.

Random streams are namespaced per node/shard/replica
(``node<i>/shard<j>/rep<k>/...``), so every station draws an
independent, seed-derived stream and cluster runs stay bit-exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.balancer import LoadBalancer
from repro.cluster.fanout import FanoutService
from repro.cluster.spec import ClusterSpec
from repro.config.knobs import HardwareConfig
from repro.config.presets import SERVER_BASELINE
from repro.core.testbed import Testbed
from repro.errors import ExperimentError
from repro.net.link import NetworkLink
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.sim.engine import Simulator
from repro.sim.kernel import make_simulator
from repro.sim.random import RandomStreams
from repro.workloads.common import server_env_scale
from repro.workloads.hdsearch import (
    _hdsearch_request_factory,
    _hdsearch_service,
)
from repro.workloads.memcached import (
    _memcached_request_factory,
    _memcached_service,
)
from repro.loadgen.hdsearch_client import build_hdsearch_client
from repro.loadgen.mutilate import build_mutilate
from repro.loadgen.wrk2 import build_wrk2
from repro.workloads.registry import workload_by_name
from repro.workloads.socialnetwork import (
    _socialnetwork_request_factory,
    _socialnetwork_service,
)
from repro.workloads.synthetic import (
    _synthetic_request_factory,
    _synthetic_service,
)


@dataclass(frozen=True)
class ClusterAdapter:
    """How one workload's pieces assemble into a cluster.

    Attributes:
        workload: registered workload name.
        make_service: ``(sim, streams, server_config, params,
            env_scale=..., name=..., stream_prefix=..., **params) ->
            service`` -- builds one server group (station or tiered
            service).
        make_generator: the workload's load-generator builder
            (``build_mutilate``-shaped).
        make_request_factory: ``(streams) -> (index -> Request)``.
    """

    workload: str
    make_service: Callable[..., Any]
    make_generator: Callable[..., Any]
    make_request_factory: Callable[[RandomStreams], Callable[[int], Any]]


_ADAPTERS: Dict[str, ClusterAdapter] = {}


def register_cluster_adapter(adapter: ClusterAdapter,
                             replace: bool = False) -> None:
    """Register *adapter* under its workload name."""
    key = str(adapter.workload)
    if not replace and key in _ADAPTERS:
        raise ExperimentError(
            f"cluster adapter for {key!r} is already registered; "
            f"pass replace=True to override")
    _ADAPTERS[key] = adapter


def cluster_adapter(workload: str) -> ClusterAdapter:
    """Resolve a workload name to its cluster adapter.

    Raises:
        ExperimentError: when the workload has no adapter (it cannot
            be deployed as a cluster yet).
    """
    try:
        return _ADAPTERS[str(workload)]
    except KeyError:
        raise ExperimentError(
            f"workload {workload!r} has no cluster adapter; "
            f"clustered workloads: {', '.join(sorted(_ADAPTERS))}"
        ) from None


def clustered_workloads() -> tuple:
    """Sorted names of the workloads that can deploy as clusters."""
    return tuple(sorted(_ADAPTERS))


# ------------------------------------------------------------------ assembly
def _build_group(adapter: ClusterAdapter, sim: Simulator,
                 streams: RandomStreams, server_config: HardwareConfig,
                 params: SkylakeParameters, cluster: ClusterSpec,
                 node: int, stream_prefix: str = "",
                 label: Optional[str] = None,
                 **workload_params: Any) -> Any:
    """One server group: a bare service, or a sharded fanout tree."""
    if label is None:
        label = adapter.workload
    prefix = f"{stream_prefix}node{node}/"
    env = server_env_scale(streams, params,
                           stream=prefix + "server-env")
    if cluster.shards == 1 and cluster.replication == 1:
        return adapter.make_service(
            sim, streams, server_config, params,
            env_scale=env,
            name=f"{label}[n{node}]",
            stream_prefix=prefix,
            **workload_params)
    if cluster.shards == 1:
        # Replication without sharding: the group is just a replica
        # balancer -- no fan-out lifecycle, no shard links, none of
        # the per-request sub-Request machinery.
        replicas = [
            adapter.make_service(
                sim, streams, server_config, params,
                env_scale=env,
                name=f"{label}[n{node}.s0.r{replica}]",
                stream_prefix=f"{prefix}shard0/rep{replica}/",
                **workload_params)
            for replica in range(cluster.replication)
        ]
        return LoadBalancer(
            sim, replicas, policy=cluster.lb_policy,
            rng=streams.stream(f"{prefix}shard0/lb"),
            name=f"{label}-lb[n{node}.s0]")
    shard_backends: List[Any] = []
    links: List[Optional[NetworkLink]] = []
    for shard in range(cluster.shards):
        shard_prefix = f"{prefix}shard{shard}/"
        replicas = [
            adapter.make_service(
                sim, streams, server_config, params,
                env_scale=env,
                name=f"{label}[n{node}.s{shard}.r{replica}]",
                stream_prefix=(shard_prefix if cluster.replication == 1
                               else f"{shard_prefix}rep{replica}/"),
                **workload_params)
            for replica in range(cluster.replication)
        ]
        if cluster.replication == 1:
            shard_backends.append(replicas[0])
        else:
            shard_backends.append(LoadBalancer(
                sim, replicas, policy=cluster.lb_policy,
                rng=streams.stream(shard_prefix + "lb"),
                name=f"{label}-lb[n{node}.s{shard}]"))
        links.append(NetworkLink(
            params, streams.stream(f"{prefix}shard-net-{shard}")))
    return FanoutService(
        sim, shard_backends, links,
        fanout=cluster.effective_fanout,
        quorum=cluster.effective_quorum,
        rng=streams.stream(prefix + "fanout"),
        name=f"{label}-fanout[n{node}]")


def build_cluster_service(adapter: ClusterAdapter, sim: Simulator,
                          streams: RandomStreams,
                          server_config: HardwareConfig,
                          params: SkylakeParameters,
                          cluster: ClusterSpec, *,
                          stream_prefix: str = "",
                          label: Optional[str] = None,
                          **workload_params: Any) -> Any:
    """Assemble just the service side of a cluster topology.

    The service-graph builder uses this to give each graph tier its
    own station or cluster shape: a single-server shape is the
    workload's bare service, anything larger is the same group /
    balancer tree ``build_cluster_testbed`` deploys.  With the default
    ``stream_prefix`` and ``label`` this is draw-for-draw and
    name-for-name identical to the assembly inside
    ``build_cluster_testbed``.
    """
    if label is None:
        label = adapter.workload
    if cluster.is_single_server:
        prefix = f"{stream_prefix}node0/"
        env = server_env_scale(streams, params,
                               stream=prefix + "server-env")
        return adapter.make_service(
            sim, streams, server_config, params,
            env_scale=env,
            name=f"{label}[n0]",
            stream_prefix=prefix,
            **workload_params)
    groups = [
        _build_group(adapter, sim, streams, server_config, params,
                     cluster, node, stream_prefix=stream_prefix,
                     label=label, **workload_params)
        for node in range(cluster.nodes)
    ]
    if cluster.nodes == 1:
        return groups[0]
    return LoadBalancer(
        sim, groups, policy=cluster.lb_policy,
        rng=streams.stream(stream_prefix + "cluster-lb"),
        name=f"{label}-cluster-lb")


def build_cluster_testbed(
        workload: str,
        seed: int,
        client_config: HardwareConfig,
        server_config: HardwareConfig = SERVER_BASELINE,
        qps: float = 1_000.0,
        num_requests: int = 1_000,
        cluster: ClusterSpec = ClusterSpec(),
        warmup_fraction: float = 0.1,
        params: SkylakeParameters = DEFAULT_PARAMETERS,
        obs: Any = None,
        engine: Any = None,
        arrival: Any = None,
        **workload_params: Any) -> Testbed:
    """Assemble one single-use cluster testbed for *workload*.

    The default (single-server) cluster spec delegates to the
    workload's registered builder, so the two paths are one path --
    and stay bit-identical by construction.

    Args:
        workload: registered workload name (must have a cluster
            adapter).
        seed: root seed; every node/shard stream derives from it.
        client_config: client hardware configuration.
        server_config: hardware configuration of every server node.
        qps: aggregate offered load across the cluster.
        num_requests: requests per run.
        cluster: the topology to deploy.
        warmup_fraction: leading samples to discard.
        params: machine timing constants.
        obs: optional :class:`~repro.obs.Observability` context,
            installed on the simulator before any component builds.
        engine: event-loop engine name (``None`` selects the
            default fused kernel; ``"reference"`` the pure-Python
            loop it is bit-identical to).
        arrival: optional :class:`~repro.loadgen.interarrival.
            ArrivalSpec` (or dict / shape name) selecting a
            time-varying arrival process; ``None`` keeps the stock
            Poisson process.
        **workload_params: workload-specific parameters (e.g. the
            synthetic workload's ``added_delay_us``).
    """
    if cluster.is_single_server:
        extra = dict(workload_params)
        if obs is not None:
            extra["obs"] = obs
        if engine is not None:
            extra["engine"] = engine
        if arrival is not None:
            extra["arrival"] = arrival
        return workload_by_name(workload).build_testbed(
            seed, client_config=client_config,
            server_config=server_config, qps=qps,
            num_requests=num_requests,
            warmup_fraction=warmup_fraction,
            params=params,
            **extra)
    adapter = cluster_adapter(workload)
    sim = make_simulator(engine)
    if obs is not None:
        obs.install(sim)
    streams = RandomStreams(seed)
    groups = [
        _build_group(adapter, sim, streams, server_config, params,
                     cluster, node, **workload_params)
        for node in range(cluster.nodes)
    ]
    if cluster.nodes == 1:
        service: Any = groups[0]
    else:
        service = LoadBalancer(
            sim, groups, policy=cluster.lb_policy,
            rng=streams.stream("cluster-lb"),
            name=f"{adapter.workload}-cluster-lb")
    request_factory = adapter.make_request_factory(streams)
    gen_extra: Dict[str, Any] = {}
    if arrival is not None:
        from repro.loadgen.interarrival import arrival_process
        gen_extra["interarrival"] = arrival_process(arrival, qps)
    generator = adapter.make_generator(
        sim, streams, client_config, service, qps, num_requests,
        request_factory=request_factory,
        warmup_fraction=warmup_fraction,
        params=params,
        **gen_extra,
    )
    return Testbed(
        sim, streams, generator, service,
        workload=str(workload), qps=qps,
        client_config=client_config, server_config=server_config,
    )


# The paper's four workloads, cluster-ready.
register_cluster_adapter(ClusterAdapter(
    workload="memcached",
    make_service=_memcached_service,
    make_generator=build_mutilate,
    make_request_factory=_memcached_request_factory,
))
register_cluster_adapter(ClusterAdapter(
    workload="hdsearch",
    make_service=_hdsearch_service,
    make_generator=build_hdsearch_client,
    make_request_factory=_hdsearch_request_factory,
))
register_cluster_adapter(ClusterAdapter(
    workload="socialnetwork",
    make_service=_socialnetwork_service,
    make_generator=build_wrk2,
    make_request_factory=_socialnetwork_request_factory,
))
register_cluster_adapter(ClusterAdapter(
    workload="synthetic",
    make_service=_synthetic_service,
    make_generator=build_mutilate,
    make_request_factory=_synthetic_request_factory,
))
