"""Workload registry: named workload definitions with parameter schemas.

Experiment specs are *data* (dicts, JSON, database rows), so they
cannot hold a builder callable directly -- and multiprocessing workers
need to reconstruct the testbed on the far side of a pickle boundary.
The registry gives every workload a stable string name plus a **typed
parameter schema**: a :class:`WorkloadDefinition` pairs the workload's
three parts (its server group, its load generator and its request
factory) with the :class:`ParamSpec`s of its extra knobs (e.g. the
synthetic workload's ``added_delay_us``), its load-generator identity
and its default/paper load points.

:meth:`WorkloadDefinition.build_testbed` is the one testbed assembly
for every topology: the bare server group, a
:class:`~repro.cluster.spec.ClusterSpec` deployment or a
:class:`~repro.graph.spec.ServiceGraphSpec`, all from the same three
parts.  This is the plugin protocol new workloads implement::

    register_workload(WorkloadDefinition(
        name="myservice",
        make_service=myservice_group,       # one server group
        make_generator=build_mutilate,      # the load generator
        make_request_factory=myservice_requests,
        params=(ParamSpec("fanout", int, 4, minimum=1),),
        default_qps=1_000.0,
        default_num_requests=1_000,
    ))

Anything registered this way is addressable from the whole stack and
deploys on every topology: :class:`repro.api.ExperimentPlan`
validates parameters against the schema at construction, campaigns
expand into plans over it, and the CLI lists it.  A plan or campaign
parameter outside the schema is rejected by name.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.config.knobs import HardwareConfig
from repro.core.testbed import Testbed
from repro.errors import ExperimentError, SpecValidationError
from repro.loadgen.hdsearch_client import build_hdsearch_client
from repro.loadgen.interarrival import arrival_process
from repro.loadgen.mutilate import build_mutilate
from repro.loadgen.wrk2 import build_wrk2
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
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
from repro.workloads.socialnetwork import (
    _socialnetwork_request_factory,
    _socialnetwork_service,
)
from repro.workloads.synthetic import (
    _synthetic_request_factory,
    _synthetic_service,
)

if TYPE_CHECKING:
    from repro.cluster.spec import ClusterSpec
    from repro.graph.spec import ServiceGraphSpec

#: The paper's load sweeps, per workload (Section IV-B).
DEFAULT_QPS_SWEEPS: Dict[str, Tuple[float, ...]] = {
    "memcached": (10_000, 50_000, 100_000, 200_000, 300_000,
                  400_000, 500_000),
    "hdsearch": (500, 1_000, 1_500, 2_000, 2_500),
    "socialnetwork": (100, 200, 300, 400, 500, 600),
    "synthetic": (5_000, 10_000, 15_000, 20_000),
}


@dataclass(frozen=True)
class ParamSpec:
    """Schema entry for one workload parameter.

    Attributes:
        name: the ``build_testbed`` keyword, e.g. ``"added_delay_us"``.
        kind: expected Python type (``float``, ``int``, ``bool`` or
            ``str``).  Integers are accepted for ``float`` parameters
            and normalized, matching JSON's single number type.
        default: value the workload uses when the parameter is absent.
        doc: one-line description for error messages and ``repro plan``.
        minimum: optional lower bound (inclusive) for numeric kinds.
        below: optional upper bound (exclusive) for numeric kinds.
    """

    name: str
    kind: type = float
    default: Any = None
    doc: str = ""
    minimum: Optional[float] = None
    below: Optional[float] = None

    def validate(self, workload: str, value: Any) -> Any:
        """Type-check and normalize one value, or raise."""
        ok: bool
        if self.kind is float:
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
            if ok:
                value = float(value)
        elif self.kind is int:
            # JSON has one number type (and campaign ``extra``
            # canonicalizes ints to floats for hashing), so integral
            # floats are ints here.
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool)
                  and float(value).is_integer())
            if ok:
                value = int(value)
        elif self.kind is bool:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, self.kind)
        if not ok:
            raise SpecValidationError(
                f"workload {workload!r} parameter {self.name!r} must "
                f"be {self.kind.__name__}, got {value!r}")
        if self.kind is float and not math.isfinite(value):
            # NaN passes every bound test below; infinity no bound
            # excludes.
            raise SpecValidationError(
                f"workload {workload!r} parameter {self.name!r} must "
                f"be finite, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise SpecValidationError(
                f"workload {workload!r} parameter {self.name!r} must "
                f"be >= {self.minimum:g}, got {value!r}")
        if self.below is not None and value >= self.below:
            raise SpecValidationError(
                f"workload {workload!r} parameter {self.name!r} must "
                f"be < {self.below:g}, got {value!r}")
        return value


#: ``build_testbed`` keywords every workload accepts beyond the
#: universal five (seed / client_config / server_config / qps /
#: num_requests).  Campaign ``extra`` dicts may carry them for
#: backwards compatibility; :class:`repro.api.ExperimentPlan` routes
#: them through :class:`~repro.api.LoadSpec` instead.
UNIVERSAL_BUILDER_PARAMS: Tuple[ParamSpec, ...] = (
    ParamSpec("warmup_fraction", float, 0.1,
              "leading samples to discard", minimum=0.0, below=1.0),
)


@dataclass(frozen=True)
class WorkloadDefinition:
    """One registered workload: its three parts, schema, defaults.

    Attributes:
        name: stable workload name, e.g. ``"memcached"``.
        make_service: ``(sim, streams, server_config, params, *,
            env_scale=..., name=..., stream_prefix=...,
            **workload_params) -> service`` -- one server group (a
            station or a tiered service).  ``stream_prefix``
            namespaces its random streams so cluster nodes and graph
            tiers draw independently; the defaults are the
            single-server testbed's names.
        make_generator: the load-generator builder
            (``build_mutilate``-shaped).
        make_request_factory: ``(streams) -> (index -> Request)``.
        params: schema of the workload-specific parameters.
        description: one-line summary for listings.
        generator: identity of the load generator ``make_generator``
            builds (``repro plan`` and :class:`~repro.api.LoadSpec`'s
            ``generator`` field validate against it).
        default_qps: default offered load.
        default_num_requests: default requests per run.
        qps_sweep: the paper's load sweep for this workload.
    """

    name: str
    make_service: Callable[..., Any]
    make_generator: Callable[..., Any]
    make_request_factory: Callable[[RandomStreams], Callable[[int], Any]]
    params: Tuple[ParamSpec, ...] = ()
    description: str = ""
    generator: str = "default"
    default_qps: float = 1_000.0
    default_num_requests: int = 1_000
    qps_sweep: Tuple[float, ...] = ()

    # ------------------------------------------------------------------
    def schema(self) -> Dict[str, ParamSpec]:
        """Parameter name -> :class:`ParamSpec`."""
        return {spec.name: spec for spec in self.params}

    def param_names(self) -> Tuple[str, ...]:
        """Sorted names of the workload-specific parameters."""
        return tuple(sorted(spec.name for spec in self.params))

    def validate_params(self, params: Mapping[str, Any], *,
                        include_universal: bool = False
                        ) -> Dict[str, Any]:
        """Validate *params* against the schema; return them normalized.

        Args:
            params: candidate parameter dict.
            include_universal: additionally accept the universal
                builder keywords (``warmup_fraction``) -- the campaign
                ``extra`` compatibility surface.

        Raises:
            SpecValidationError: naming the offending key and listing
                the valid parameter names (with a did-you-mean
                suggestion when one is close).
        """
        schema = self.schema()
        if include_universal:
            for spec in UNIVERSAL_BUILDER_PARAMS:
                schema.setdefault(spec.name, spec)
        out: Dict[str, Any] = {}
        for key, value in dict(params).items():
            key = str(key)
            spec = schema.get(key)
            if spec is None:
                valid = ", ".join(sorted(schema)) or "(none)"
                close = difflib.get_close_matches(key, list(schema), n=1)
                hint = f" -- did you mean {close[0]!r}?" if close else ""
                raise SpecValidationError(
                    f"unknown parameter {key!r} for workload "
                    f"{self.name!r}{hint} (valid parameters: {valid})")
            out[key] = spec.validate(self.name, value)
        return out

    def build_testbed(self, seed: int, *,
                      client_config: HardwareConfig,
                      server_config: HardwareConfig,
                      qps: float,
                      num_requests: int,
                      cluster: Optional["ClusterSpec"] = None,
                      graph: Optional["ServiceGraphSpec"] = None,
                      warmup_fraction: float = 0.1,
                      params: SkylakeParameters = DEFAULT_PARAMETERS,
                      obs: Any = None,
                      engine: Optional[str] = None,
                      arrival: Any = None,
                      **workload_params: Any) -> Testbed:
        """Assemble one single-use testbed of this workload.

        The one testbed assembly for every topology.  The service is
        the bare server group when neither *cluster* nor *graph* asks
        for more, the cluster layer's balancer/fan-out tree for a
        multi-server *cluster*, or the service graph for *graph*.
        Stream identity is ``(seed, name)``, so every topology keeps
        its historical stream and station names: unprefixed for the
        single server, ``node<i>/...`` for a cluster and
        ``<tier>/node<i>/...`` for a graph tier.

        Args:
            seed: root seed; every stochastic component derives
                from it.
            client_config: client hardware configuration.
            server_config: hardware configuration of every server.
            qps: offered load (aggregate, at the entry point).
            num_requests: requests per run.
            cluster: the topology to deploy; ``None`` and the
                single-server spec build the bare server group.
            graph: a service-graph topology (each tier carries its
                own shape, so *cluster* is ignored when this is set).
            warmup_fraction: leading samples to discard.
            params: machine timing constants.
            obs: optional :class:`~repro.obs.Observability` context,
                installed on the simulator before any component
                builds so every hook sees it.
            engine: event-loop engine name (``None`` selects the
                default fused kernel; ``"reference"`` the pure-Python
                loop it is bit-identical to).
            arrival: optional arrival-shape spec (or dict / shape
                name); ``None`` keeps the generator's stock Poisson
                process.
            **workload_params: workload-specific parameters (e.g. the
                synthetic workload's ``added_delay_us``).
        """
        sim = make_simulator(engine)
        if obs is not None:
            obs.install(sim)
        streams = RandomStreams(seed)
        service: Any
        if graph is not None:
            # Deferred imports: the graph and cluster layers matter
            # only once a testbed deploys them.
            from repro.graph.testbed import build_service_graph
            service = build_service_graph(
                self, sim, streams, server_config, params, graph,
                **workload_params)
        elif cluster is not None and not cluster.is_single_server:
            from repro.cluster.testbed import build_cluster_service
            service = build_cluster_service(
                self, sim, streams, server_config, params, cluster,
                **workload_params)
        else:
            service = self.make_service(
                sim, streams, server_config, params,
                env_scale=server_env_scale(streams, params),
                **workload_params)
        generator = self.make_generator(
            sim, streams, client_config, service, qps, num_requests,
            request_factory=self.make_request_factory(streams),
            warmup_fraction=warmup_fraction,
            params=params,
            interarrival=arrival_process(arrival, qps),
        )
        return Testbed(
            sim, streams, generator, service,
            workload=self.name, qps=qps,
            client_config=client_config, server_config=server_config,
        )


_WORKLOADS: Dict[str, WorkloadDefinition] = {}


def register_workload(definition: WorkloadDefinition,
                      replace: bool = False) -> None:
    """Register *definition* under its name.

    Args:
        definition: the workload definition.
        replace: allow overwriting an existing registration (tests).

    Raises:
        ExperimentError: on duplicate registration without *replace*.
    """
    key = str(definition.name)
    if not replace and key in _WORKLOADS:
        raise ExperimentError(
            f"workload {key!r} is already registered; "
            f"pass replace=True to override")
    _WORKLOADS[key] = definition


def workload_by_name(name: str) -> WorkloadDefinition:
    """Resolve a workload name to its definition.

    Raises:
        ExperimentError: (a :class:`SpecValidationError`) if no
            workload is registered under *name*, with a did-you-mean
            suggestion when a registered name is close.
    """
    try:
        return _WORKLOADS[str(name)]
    except KeyError:
        close = difflib.get_close_matches(
            str(name), list(_WORKLOADS), n=1)
        hint = f" -- did you mean {close[0]!r}?" if close else ""
        raise SpecValidationError(
            f"unknown workload {name!r}{hint} (registered: "
            f"{', '.join(registered_workloads())})"
        ) from None


def find_workload(name: str) -> Optional[WorkloadDefinition]:
    """The definition registered under *name*, or None.

    The lenient lookup: campaign specs use it so a spec naming a
    workload that only the executing process imports still
    constructs (validation then happens at plan-build time).
    """
    return _WORKLOADS.get(str(name))


def registered_workloads() -> Sequence[str]:
    """Sorted names of all registered workloads."""
    return tuple(sorted(_WORKLOADS))


# The paper's four workloads.
register_workload(WorkloadDefinition(
    name="memcached",
    make_service=_memcached_service,
    make_generator=build_mutilate,
    make_request_factory=_memcached_request_factory,
    description="Memcached + Mutilate replaying Facebook ETC "
                "(Section IV-B)",
    generator="mutilate",
    default_qps=100_000.0,
    default_num_requests=2_000,
    qps_sweep=DEFAULT_QPS_SWEEPS["memcached"],
))
register_workload(WorkloadDefinition(
    name="hdsearch",
    make_service=_hdsearch_service,
    make_generator=build_hdsearch_client,
    make_request_factory=_hdsearch_request_factory,
    description="MicroSuite HDSearch: 3-tier image similarity over "
                "a real LSH index",
    generator="hdsearch-client",
    default_qps=1_000.0,
    default_num_requests=1_000,
    qps_sweep=DEFAULT_QPS_SWEEPS["hdsearch"],
))
register_workload(WorkloadDefinition(
    name="socialnetwork",
    make_service=_socialnetwork_service,
    make_generator=build_wrk2,
    make_request_factory=_socialnetwork_request_factory,
    description="DeathStarBench Social Network on a Reed98-scale "
                "social graph",
    generator="wrk2",
    default_qps=300.0,
    default_num_requests=800,
    qps_sweep=DEFAULT_QPS_SWEEPS["socialnetwork"],
))
register_workload(WorkloadDefinition(
    name="synthetic",
    make_service=_synthetic_service,
    make_generator=build_mutilate,
    make_request_factory=_synthetic_request_factory,
    params=(
        ParamSpec("added_delay_us", float, 0.0,
                  "busy-wait service-time extension (Fig. 7)",
                  minimum=0.0),
    ),
    description="tunable-service-latency sensitivity workload "
                "(Fig. 7)",
    generator="mutilate",
    default_qps=10_000.0,
    default_num_requests=2_000,
    qps_sweep=DEFAULT_QPS_SWEEPS["synthetic"],
))
