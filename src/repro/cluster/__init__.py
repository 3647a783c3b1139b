"""repro.cluster: load-balanced, sharded multi-server topologies.

The paper's testbed is one server; this package scales it out.  A
:class:`ClusterSpec` describes the topology as frozen data (nodes
behind a load balancer, shards with fan-out and quorum, per-shard
replication); :class:`LoadBalancer` and :class:`FanoutService`
implement the request lifecycle with the same ``submit(request,
done_fn)`` interface as a single
:class:`~repro.server.station.ServiceStation`.  There is no separate
cluster testbed: every registered workload deploys as a cluster
through the one assembly,
:meth:`~repro.workloads.registry.WorkloadDefinition.build_testbed`
(``cluster=...``), which builds the service tree with
:func:`repro.cluster.testbed.build_cluster_service`.

Plans carry the topology::

    from repro.api import experiment

    result = (experiment("memcached")
              .client("LP")
              .cluster(nodes=4, lb_policy="power-of-two")
              .load(qps=400_000)
              .policy(runs=10)
              .run())
"""

from repro.cluster.balancer import (
    LoadBalancer,
    least_outstanding_choice,
    power_of_two_choice,
)
from repro.cluster.fanout import FanoutService
from repro.cluster.spec import (
    LB_LEAST_OUTSTANDING,
    LB_POLICIES,
    LB_POWER_OF_TWO,
    LB_RANDOM,
    LB_ROUND_ROBIN,
    SINGLE_SERVER,
    ClusterSpec,
    as_cluster_spec,
)

__all__ = [
    "ClusterSpec",
    "FanoutService",
    "LB_LEAST_OUTSTANDING",
    "LB_POLICIES",
    "LB_POWER_OF_TWO",
    "LB_RANDOM",
    "LB_ROUND_ROBIN",
    "LoadBalancer",
    "SINGLE_SERVER",
    "as_cluster_spec",
    "least_outstanding_choice",
    "power_of_two_choice",
]
