"""The paper's four workloads, built on the substrates.

* :mod:`repro.workloads.memcached` -- Memcached + Mutilate + the
  Facebook ETC workload (Section IV-B).
* :mod:`repro.workloads.hdsearch` -- HDSearch from MicroSuite: a
  3-tier image-similarity service backed by a real LSH index.
* :mod:`repro.workloads.socialnetwork` -- Social Network from
  DeathStarBench on a Reed98-scale social graph.
* :mod:`repro.workloads.synthetic` -- the tunable-service-latency
  sensitivity workload.

Each workload registers a :class:`~repro.workloads.registry.\
WorkloadDefinition` -- builder + typed parameter schema -- in
:mod:`repro.workloads.registry`, the plugin protocol the
:mod:`repro.api` plan layer compiles against.  Testbeds are built
through it: ``plan.testbed(seed)``, or
``workload_by_name(name).build_testbed(seed, ...)`` where a caller
injects builder keywords a plan does not carry.
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
