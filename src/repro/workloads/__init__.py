"""The paper's four workloads, built on the substrates.

* :mod:`repro.workloads.memcached` -- Memcached + Mutilate + the
  Facebook ETC workload (Section IV-B).
* :mod:`repro.workloads.hdsearch` -- HDSearch from MicroSuite: a
  3-tier image-similarity service backed by a real LSH index.
* :mod:`repro.workloads.socialnetwork` -- Social Network from
  DeathStarBench on a Reed98-scale social graph.
* :mod:`repro.workloads.synthetic` -- the tunable-service-latency
  sensitivity workload.

Each module defines its workload's server group
(``_<workload>_service``) and request factory
(``_<workload>_request_factory``).  :mod:`repro.workloads.registry`
registers each workload once as a
:class:`~repro.workloads.registry.WorkloadDefinition` -- those two
parts, its load generator from :mod:`repro.loadgen` and a typed
parameter schema -- the plugin protocol the :mod:`repro.api` plan
layer compiles against.
:meth:`~repro.workloads.registry.WorkloadDefinition.build_testbed` is
the one testbed assembly, for the single server, a cluster and a
service graph alike: ``plan.testbed(seed)`` calls it, and so can a
caller injecting keywords a plan does not carry
(``workload_by_name(name).build_testbed(seed, ...)``).
"""

from repro.workloads.etc import EtcWorkload
from repro.workloads.registry import (
    DEFAULT_QPS_SWEEPS,
    ParamSpec,
    WorkloadDefinition,
    find_workload,
    register_workload,
    registered_workloads,
    workload_by_name,
)

__all__ = [
    "DEFAULT_QPS_SWEEPS",
    "EtcWorkload",
    "ParamSpec",
    "WorkloadDefinition",
    "find_workload",
    "register_workload",
    "registered_workloads",
    "workload_by_name",
]
