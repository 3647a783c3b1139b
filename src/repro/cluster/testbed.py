"""Cluster service assembly: one workload's server group, many servers.

Turns a workload's server group into a load-balanced, optionally
sharded service tree.  The one testbed assembly,
:meth:`~repro.workloads.registry.WorkloadDefinition.build_testbed`,
calls :func:`build_cluster_service` for a multi-server
:class:`~repro.cluster.spec.ClusterSpec`, and the service-graph
builder calls it for every service tier; both hand it the registered
:class:`~repro.workloads.registry.WorkloadDefinition`, whose
``make_service`` builds one group.  The shape composes by the spec:

* ``nodes`` replicated groups behind a
  :class:`~repro.cluster.balancer.LoadBalancer` (one LB policy draw
  per request);
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

from typing import TYPE_CHECKING, Any, List, Optional

from repro.cluster.balancer import LoadBalancer
from repro.cluster.fanout import FanoutService
from repro.cluster.spec import ClusterSpec
from repro.config.knobs import HardwareConfig
from repro.net.link import NetworkLink, link_stream
from repro.parameters import SkylakeParameters
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.common import server_env_scale

if TYPE_CHECKING:
    from repro.workloads.registry import WorkloadDefinition


def _build_group(definition: "WorkloadDefinition", sim: Simulator,
                 streams: RandomStreams, server_config: HardwareConfig,
                 params: SkylakeParameters, cluster: ClusterSpec,
                 node: int, stream_prefix: str, label: str,
                 **workload_params: Any) -> Any:
    """One server group: a bare service, or a sharded fanout tree."""
    prefix = f"{stream_prefix}node{node}/"
    env = server_env_scale(streams, params,
                           stream=prefix + "server-env")
    if cluster.shards == 1 and cluster.replication == 1:
        return definition.make_service(
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
            definition.make_service(
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
            definition.make_service(
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
            params, link_stream(streams, f"{prefix}shard-net-{shard}")))
    return FanoutService(
        sim, shard_backends, links,
        fanout=cluster.effective_fanout,
        quorum=cluster.effective_quorum,
        rng=streams.stream(prefix + "fanout"),
        name=f"{label}-fanout[n{node}]")


def build_cluster_service(definition: "WorkloadDefinition",
                          sim: Simulator,
                          streams: RandomStreams,
                          server_config: HardwareConfig,
                          params: SkylakeParameters,
                          cluster: ClusterSpec, *,
                          stream_prefix: str = "",
                          label: Optional[str] = None,
                          **workload_params: Any) -> Any:
    """Assemble the service side of a cluster topology.

    One group per node (:func:`_build_group`), behind a cluster
    balancer when there is more than one.  A single-server *cluster*
    is one group on node 0: the workload's bare service under the
    ``node0/`` stream names, which is what a graph tier of that shape
    deploys.  ``stream_prefix`` and ``label`` namespace a graph
    tier's streams and stations; the defaults are a standalone
    cluster's.
    """
    if label is None:
        label = definition.name
    groups = [
        _build_group(definition, sim, streams, server_config, params,
                     cluster, node, stream_prefix, label,
                     **workload_params)
        for node in range(cluster.nodes)
    ]
    if cluster.nodes == 1:
        return groups[0]
    return LoadBalancer(
        sim, groups, policy=cluster.lb_policy,
        rng=streams.stream(stream_prefix + "cluster-lb"),
        name=f"{label}-cluster-lb")
