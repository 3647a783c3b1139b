"""repro.api: the unified, typed experiment surface.

Everything that runs an experiment -- the CLI, campaign sweeps, the
figure studies, the examples -- compiles down to one object: the
:class:`ExperimentPlan`.  Author an experiment once as a validated,
serializable spec; run it anywhere::

    from repro.api import experiment

    plan = (experiment("synthetic", added_delay_us=200.0)
            .client("HP")
            .load(qps=10_000, num_requests=1_000)
            .policy(runs=10, base_seed=0)
            .build())

    result = plan.run()                    # ExperimentResult
    results = plan.sweep(qps=[5e3, 1e4])   # one result per load
    text = plan.to_json()                  # ship it anywhere
    assert ExperimentPlan.from_json(text) == plan
    plan.content_hash()                    # stable store/cache key

Validation happens at construction: unknown workloads fail with a
did-you-mean error listing the registry, unknown workload parameters
fail naming the valid keys.  New workloads join the API by calling
:func:`register_workload` with a :class:`WorkloadDefinition` (its
server group, load generator and request factory + parameter
schema), and then run on every topology; see
:mod:`repro.workloads.registry`.
"""

from repro.api.builder import PlanBuilder, experiment
from repro.api.specs import (
    ExperimentPlan,
    HardwareSpec,
    LoadSpec,
    RunPolicy,
    WorkloadSpec,
)
from repro.cluster.spec import ClusterSpec
from repro.errors import SpecValidationError
from repro.graph.spec import (
    GraphTierSpec,
    ResiliencePolicy,
    ServiceGraphSpec,
)
from repro.loadgen.interarrival import ArrivalSpec
from repro.workloads.registry import (
    ParamSpec,
    WorkloadDefinition,
    register_workload,
    registered_workloads,
    workload_by_name,
)

__all__ = [
    "ArrivalSpec",
    "ClusterSpec",
    "ExperimentPlan",
    "GraphTierSpec",
    "HardwareSpec",
    "LoadSpec",
    "ParamSpec",
    "PlanBuilder",
    "ResiliencePolicy",
    "RunPolicy",
    "ServiceGraphSpec",
    "SpecValidationError",
    "WorkloadDefinition",
    "WorkloadSpec",
    "experiment",
    "register_workload",
    "registered_workloads",
    "workload_by_name",
]
