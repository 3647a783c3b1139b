"""Multi-tier service graphs: DAG topologies over workload services.

The graph layer generalizes :mod:`repro.cluster` from one
load-balanced tier to a DAG of named tiers -- frontend, cache, leaf
shards -- with per-edge resilience policies (timeout + bounded retry
with backoff, hedged duplicates) and a hit-ratio cache model that
short-circuits downstream fan-out on hits.

Everything composes with the existing stack: tiers reuse the cluster
assembly for their own shapes, telemetry lands in the observability
registry, and plans carry a frozen :class:`ServiceGraphSpec` exactly
the way they carry a :class:`~repro.cluster.spec.ClusterSpec`.  Every
registered workload deploys as a graph through the one testbed
assembly,
:meth:`~repro.workloads.registry.WorkloadDefinition.build_testbed`
(``graph=...``).
"""

from repro.graph.cache import CacheTier
from repro.graph.presets import (
    GRAPH_PRESETS,
    graph_preset,
    graph_preset_names,
)
from repro.graph.resilience import ResilientDispatcher
from repro.graph.spec import (
    NO_RESILIENCE,
    TIER_CACHE,
    TIER_KINDS,
    TIER_SERVICE,
    GraphTierSpec,
    ResiliencePolicy,
    ServiceGraphSpec,
    as_graph_spec,
    as_resilience_policy,
)
from repro.graph.testbed import (
    GraphStage,
    ServiceGraph,
    build_service_graph,
)

__all__ = [
    "CacheTier",
    "GRAPH_PRESETS",
    "GraphStage",
    "GraphTierSpec",
    "NO_RESILIENCE",
    "ResiliencePolicy",
    "ResilientDispatcher",
    "ServiceGraph",
    "ServiceGraphSpec",
    "TIER_CACHE",
    "TIER_KINDS",
    "TIER_SERVICE",
    "as_graph_spec",
    "as_resilience_policy",
    "build_service_graph",
    "graph_preset",
    "graph_preset_names",
]
