"""Typed, frozen experiment specs and their compiled execution.

An experiment is authored once as a validated, serializable
:class:`ExperimentPlan` -- four small frozen dataclasses composed
together -- and *compiled* into execution on demand:

* :class:`WorkloadSpec` -- which workload, with which parameters,
  validated against the registry's per-workload schema at
  construction (unknown workload -> did-you-mean error; unknown
  parameter -> schema error naming the valid keys);
* :class:`LoadSpec` -- offered load, requests per run, warmup
  fraction and load-generator choice;
* :class:`HardwareSpec` -- the client and server
  :class:`~repro.config.knobs.HardwareConfig` pair, with sweep
  labels;
* :class:`RunPolicy` -- repetitions, base seed, result label and the
  observability knobs (telemetry sink, lifecycle tracing).

Every spec is hashable data: ``plan.to_json()`` round-trips exactly
(``ExperimentPlan.from_json(plan.to_json()) == plan``) and
``plan.content_hash()`` is stable across processes and sessions, so
plans can key result stores and ship to remote executors unchanged.
``plan.run()`` executes the paper's repetition protocol and returns
the existing :class:`~repro.core.experiment.ExperimentResult`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.cluster.spec import (
    SINGLE_SERVER,
    ClusterSpec,
    as_cluster_spec,
)
from repro.config.serialize import (
    content_hash,
    hardware_config_from_dict,
    hardware_config_to_dict,
)
from repro.config.knobs import HardwareConfig
from repro.config.presets import SERVER_BASELINE
from repro.core.experiment import (
    DEFAULT_RUNS,
    Experiment,
    ExperimentResult,
)
from repro.core.testbed import Testbed
from repro.errors import SpecValidationError, spec_int
from repro.graph.spec import ServiceGraphSpec, as_graph_spec
from repro.loadgen.interarrival import ArrivalSpec, as_arrival_spec
from repro.obs.sinks import DEFAULT_SINK, validate_sink_name
from repro.sim.kernel import DEFAULT_ENGINE, validate_engine_name
from repro.workloads.registry import WorkloadDefinition, workload_by_name

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.core import Observability

#: ``LoadSpec.generator`` value meaning "the workload's own generator".
DEFAULT_GENERATOR = "default"


def _check_keys(data: Mapping[str, Any], allowed: Tuple[str, ...],
                what: str) -> None:
    """Reject unknown keys: a misspelled field in a spec file must
    fail loudly, not silently fall back to a default."""
    unknown = sorted(set(map(str, data)) - set(allowed))
    if unknown:
        raise SpecValidationError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in "
            f"{what} spec; valid keys: {', '.join(allowed)}")


def _as_config(value: Union[str, Mapping[str, Any], HardwareConfig],
               what: str) -> HardwareConfig:
    """Coerce a config, preset name, or dict into a HardwareConfig."""
    if isinstance(value, HardwareConfig):
        return value
    if isinstance(value, (str, Mapping)):
        return hardware_config_from_dict(
            value if isinstance(value, str) else dict(value))
    raise SpecValidationError(
        f"{what} must be a HardwareConfig, preset name or config "
        f"dict, got {type(value).__name__}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Which workload to run, with which typed parameters.

    Attributes:
        name: registered workload name (see
            :mod:`repro.workloads.registry`).
        params: workload parameters as sorted ``(name, value)`` pairs
            -- validated and normalized against the workload's
            registered schema at construction.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        definition = workload_by_name(self.name)
        normalized = definition.validate_params(dict(self.params))
        object.__setattr__(
            self, "params", tuple(sorted(normalized.items())))

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, name: str, **params: Any) -> "WorkloadSpec":
        """Build a spec from keyword parameters."""
        return cls(name=name, params=tuple(params.items()))

    @property
    def definition(self) -> WorkloadDefinition:
        """The registry definition backing this spec."""
        return workload_by_name(self.name)

    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_keys(data, ("name", "params"), "workload")
        return cls(name=str(data["name"]),
                   params=tuple(dict(data.get("params", {})).items()))


@dataclass(frozen=True)
class LoadSpec:
    """How hard and how long to drive the testbed.

    Attributes:
        qps: offered load.
        num_requests: requests per run.
        warmup_fraction: leading samples to discard; ``None`` keeps
            the testbed assembly's default.
        generator: load-generator choice; ``"default"`` keeps the
            workload's own (Mutilate, wrk2, the HDSearch client).
        arrival: optional time-varying arrival shape (an
            :class:`~repro.loadgen.interarrival.ArrivalSpec`, its
            dict form, or a shape name); ``None`` -- and the default
            Poisson spec, which normalizes to ``None`` -- keep the
            stock exponential process.
    """

    qps: float
    num_requests: int = 1_000
    warmup_fraction: Optional[float] = None
    generator: str = DEFAULT_GENERATOR
    arrival: Optional[ArrivalSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qps", float(self.qps))
        object.__setattr__(self, "num_requests",
                           spec_int(self.num_requests, "num_requests"))
        object.__setattr__(self, "generator", str(self.generator))
        object.__setattr__(self, "arrival",
                           as_arrival_spec(self.arrival))
        if not 0.0 < self.qps < math.inf:
            raise SpecValidationError(
                f"qps must be finite and > 0, got {self.qps!r}")
        if self.num_requests < 1:
            raise SpecValidationError(
                f"num_requests must be >= 1, got {self.num_requests!r}")
        if self.warmup_fraction is not None:
            warmup = float(self.warmup_fraction)
            if not 0.0 <= warmup < 1.0:
                raise SpecValidationError(
                    f"warmup_fraction must be in [0, 1), got {warmup!r}")
            object.__setattr__(self, "warmup_fraction", warmup)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize; ``arrival`` is emitted only when a non-default
        shape is set, so pre-existing plan hashes stay byte-stable."""
        data: Dict[str, Any] = {
            "qps": self.qps,
            "num_requests": self.num_requests,
            "warmup_fraction": self.warmup_fraction,
            "generator": self.generator,
        }
        if self.arrival is not None:
            data["arrival"] = self.arrival.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LoadSpec":
        _check_keys(data, ("qps", "num_requests", "warmup_fraction",
                           "generator", "arrival"), "load")
        return cls(
            qps=data["qps"],
            num_requests=data.get("num_requests", 1_000),
            warmup_fraction=data.get("warmup_fraction"),
            generator=data.get("generator") or DEFAULT_GENERATOR,
            arrival=data.get("arrival"),
        )


@dataclass(frozen=True)
class HardwareSpec:
    """The client/server hardware pair under study.

    Attributes:
        client: client machine configuration (LP, HP, or custom);
            accepts a preset name or config dict at construction.
        server: server machine configuration (default: the Table II
            baseline).
        client_label: sweep label, defaulting to ``client.name``.
        server_label: condition label, defaulting to ``server.name``.
    """

    client: HardwareConfig
    server: HardwareConfig = SERVER_BASELINE
    client_label: str = ""
    server_label: str = ""

    def __post_init__(self) -> None:
        client = _as_config(self.client, "client")
        server = _as_config(self.server, "server")
        object.__setattr__(self, "client", client)
        object.__setattr__(self, "server", server)
        object.__setattr__(
            self, "client_label",
            str(self.client_label) or client.name)
        object.__setattr__(
            self, "server_label",
            str(self.server_label) or server.name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client": hardware_config_to_dict(self.client),
            "server": hardware_config_to_dict(self.server),
            "client_label": self.client_label,
            "server_label": self.server_label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HardwareSpec":
        _check_keys(data, ("client", "server", "client_label",
                           "server_label"), "hardware")
        # `or ""`: a JSON null label means "use the default", not the
        # literal string "None".
        return cls(
            client=data["client"],
            server=data.get("server") or SERVER_BASELINE,
            client_label=str(data.get("client_label") or ""),
            server_label=str(data.get("server_label") or ""),
        )


@dataclass(frozen=True)
class RunPolicy:
    """The repetition protocol: how many runs, from which seeds.

    Attributes:
        runs: repetitions (the paper: 50).
        base_seed: first root seed; repetition *i* uses
            ``base_seed + i``.
        label: result label; empty means the workload name.
        sink: telemetry sink name (see :mod:`repro.obs.sinks`); the
            default ``"columnar"`` is the exact per-request buffer.
        trace: record request-lifecycle spans (off by default; spans
            cost memory but never perturb the simulation).
        metrics: harvest component counters into
            :attr:`~repro.core.testbed.RunMetrics.obs_metrics` even
            without tracing or a custom sink (cache hit rates,
            retry/hedge counts, dispatch tallies).
        engine: event-loop engine name (see
            :mod:`repro.sim.kernel`); the default ``"vectorized"`` is
            the fused-handler kernel, ``"reference"`` the pure-Python
            loop it is bit-identical to and checked against.
        workers: shard width for multi-core execution (see
            :mod:`repro.parallel`).  ``workers=W > 1`` decomposes
            each repetition into W striped full-replica shards at
            ``qps / W`` -- a *semantic* change (a W-replica cluster
            behind random assignment), so it participates in the
            content hash; the default ``1`` is omitted from the
            serialized form, keeping every pre-existing plan hash and
            store key byte-stable.
    """

    runs: int = DEFAULT_RUNS
    base_seed: int = 0
    label: str = ""
    sink: str = DEFAULT_SINK
    trace: bool = False
    metrics: bool = False
    engine: str = DEFAULT_ENGINE
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs",
                           spec_int(self.runs, "runs", minimum=1))
        # numpy seeds only non-negative integers.
        object.__setattr__(self, "base_seed",
                           spec_int(self.base_seed, "base_seed", minimum=0))
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "sink",
                           validate_sink_name(self.sink))
        object.__setattr__(self, "trace", bool(self.trace))
        object.__setattr__(self, "metrics", bool(self.metrics))
        object.__setattr__(self, "engine",
                           validate_engine_name(self.engine))
        object.__setattr__(self, "workers",
                           spec_int(self.workers, "workers", minimum=1))

    def seed_schedule(self) -> Tuple[int, ...]:
        """The root seed of every repetition, in run order."""
        return tuple(range(self.base_seed, self.base_seed + self.runs))

    @property
    def observed(self) -> bool:
        """True when runs need an :class:`~repro.obs.Observability`."""
        return (self.trace or self.metrics
                or self.sink != DEFAULT_SINK)

    def observability(self) -> Optional["Observability"]:
        """A fresh per-run observability context, or None when the
        policy keeps the defaults (the zero-overhead path)."""
        if not self.observed:
            return None
        from repro.obs.core import Observability
        return Observability(trace=self.trace, sink=self.sink)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize; the observability fields are emitted only when
        non-default, so pre-existing plan hashes and campaign store
        keys stay byte-stable."""
        data = {"runs": self.runs, "base_seed": self.base_seed,
                "label": self.label}
        if self.sink != DEFAULT_SINK:
            data["sink"] = self.sink
        if self.trace:
            data["trace"] = True
        if self.metrics:
            data["metrics"] = True
        if self.engine != DEFAULT_ENGINE:
            data["engine"] = self.engine
        if self.workers != 1:
            data["workers"] = self.workers
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunPolicy":
        _check_keys(data, ("runs", "base_seed", "label", "sink",
                           "trace", "metrics", "engine", "workers"),
                    "policy")
        return cls(
            runs=data.get("runs", DEFAULT_RUNS),
            base_seed=data.get("base_seed", 0),
            label=str(data.get("label") or ""),
            sink=str(data.get("sink", DEFAULT_SINK)),
            trace=bool(data.get("trace", False)),
            metrics=bool(data.get("metrics", False)),
            engine=str(data.get("engine", DEFAULT_ENGINE)),
            workers=data.get("workers", 1),
        )


@dataclass(frozen=True)
class ExperimentPlan:
    """One complete, validated, serializable experiment.

    The single public entry point to the simulator: the CLI, the
    campaign subsystem, the figure studies and the examples all
    compile down to plans.  A plan is pure data -- compare it, hash
    it, ship it over JSON -- until :meth:`run` executes it.
    """

    workload: WorkloadSpec
    load: LoadSpec
    hardware: HardwareSpec
    policy: RunPolicy = field(default_factory=RunPolicy)
    #: Server-side topology; the default is the paper's single-server
    #: testbed (and is omitted from the serialized form, so existing
    #: plan hashes and store keys are untouched).
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    #: Multi-tier service graph; ``None`` (the default, omitted from
    #: the serialized form) keeps the cluster/single-server paths.
    #: Mutually exclusive with a non-single-server ``cluster`` -- a
    #: graph tier carries its own cluster shape instead.
    graph: Optional[ServiceGraphSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cluster", as_cluster_spec(self.cluster))
        object.__setattr__(self, "graph", as_graph_spec(self.graph))
        if self.graph is not None and not self.cluster.is_single_server:
            raise SpecValidationError(
                "a plan deploys either a service graph or a cluster, "
                "not both; give the graph's tiers their own cluster "
                "shapes instead")
        definition = self.workload.definition
        generator = self.load.generator
        if generator not in (DEFAULT_GENERATOR, definition.generator):
            raise SpecValidationError(
                f"workload {self.workload.name!r} drives load with "
                f"{definition.generator!r}; got generator="
                f"{generator!r} (supported: '{DEFAULT_GENERATOR}', "
                f"{definition.generator!r})")
        if generator != DEFAULT_GENERATOR:
            # Naming the workload's own generator explicitly is the
            # same plan as the default: normalize so the two forms
            # share one content hash (plans are store/cache keys).
            object.__setattr__(
                self, "load",
                replace(self.load, generator=DEFAULT_GENERATOR))

    # ------------------------------------------------------------ identity
    @property
    def label(self) -> str:
        """The result label this plan will produce."""
        return self.policy.label or self.workload.name

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the hash input and wire format).

        A default (single-server) cluster is omitted entirely:
        ``content_hash()`` of every pre-cluster plan -- and therefore
        every stored campaign row keyed by one -- is unchanged.
        """
        data = {
            "workload": self.workload.to_dict(),
            "load": self.load.to_dict(),
            "hardware": self.hardware.to_dict(),
            "policy": self.policy.to_dict(),
        }
        if not self.cluster.is_single_server:
            data["cluster"] = self.cluster.to_dict()
        if self.graph is not None:
            data["graph"] = self.graph.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPlan":
        """Rebuild (and re-validate) a plan from its dict form.

        Strict on keys: a misspelled section or field raises instead
        of silently running with defaults.  ``policy`` itself may be
        omitted (all its fields have defaults).
        """
        _check_keys(data, ("workload", "load", "hardware", "policy",
                           "cluster", "graph"), "experiment plan")
        try:
            return cls(
                workload=WorkloadSpec.from_dict(data["workload"]),
                load=LoadSpec.from_dict(data["load"]),
                hardware=HardwareSpec.from_dict(data["hardware"]),
                policy=RunPolicy.from_dict(data.get("policy", {})),
                cluster=as_cluster_spec(data.get("cluster")),
                graph=as_graph_spec(data.get("graph")),
            )
        except KeyError as exc:
            raise SpecValidationError(
                f"invalid experiment plan: missing {exc}") from exc

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (what a plan file contains)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        """Rebuild a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(
                f"experiment plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def content_hash(self) -> str:
        """Stable identity of this plan across processes/sessions."""
        return content_hash(self.to_dict())

    # ------------------------------------------------------- fluent copies
    def with_params(self, **params: Any) -> "ExperimentPlan":
        """Copy with workload parameters merged in."""
        merged = {**self.workload.param_dict(), **params}
        return replace(self, workload=WorkloadSpec.create(
            self.workload.name, **merged))

    def with_load(self, **changes: Any) -> "ExperimentPlan":
        """Copy with load fields replaced."""
        return replace(self, load=replace(self.load, **changes))

    def with_qps(self, qps: float) -> "ExperimentPlan":
        """Copy at a different offered load."""
        return self.with_load(qps=float(qps))

    def with_client(self, client: Union[str, HardwareConfig],
                    label: str = "") -> "ExperimentPlan":
        """Copy measured by a different client configuration."""
        config = _as_config(client, "client")
        return replace(self, hardware=replace(
            self.hardware, client=config,
            client_label=label or config.name))

    def with_server(self, server: Union[str, HardwareConfig],
                    label: str = "") -> "ExperimentPlan":
        """Copy against a different server configuration."""
        config = _as_config(server, "server")
        return replace(self, hardware=replace(
            self.hardware, server=config,
            server_label=label or config.name))

    def with_policy(self, **changes: Any) -> "ExperimentPlan":
        """Copy with run-policy fields replaced."""
        return replace(self, policy=replace(self.policy, **changes))

    def with_cluster(self,
                     cluster: Optional[Union[ClusterSpec,
                                             Mapping[str, Any]]] = None,
                     **fields: Any) -> "ExperimentPlan":
        """Copy deployed on a different cluster topology.

        Pass a :class:`~repro.cluster.spec.ClusterSpec` (or its dict
        form), or keyword fields merged into the current topology::

            plan.with_cluster(nodes=4, lb_policy="power-of-two")

        With no arguments the copy **resets to single-server** (the
        ``with_*`` family always produces the stated change; keeping
        the topology is spelled ``plan`` itself).
        """
        if cluster is not None and fields:
            raise SpecValidationError(
                "pass either a cluster spec or keyword fields, "
                "not both")
        if cluster is None:
            cluster = (self.cluster.with_fields(**fields)
                       if fields else SINGLE_SERVER)
        return replace(self, cluster=as_cluster_spec(cluster),
                       graph=None)

    def with_graph(self,
                   graph: Optional[Union[ServiceGraphSpec, str,
                                         Mapping[str, Any]]] = None
                   ) -> "ExperimentPlan":
        """Copy deployed on a service-graph topology.

        Pass a :class:`~repro.graph.spec.ServiceGraphSpec`, its dict
        form, or a graph preset name (``"memcached-cached"``).  With
        no argument the copy resets to the plan's non-graph topology.
        Setting a graph resets the cluster to single-server (each
        tier carries its own shape).
        """
        if isinstance(graph, str):
            from repro.graph.presets import graph_preset
            graph = graph_preset(graph)
        spec = as_graph_spec(graph)
        if spec is None:
            return replace(self, graph=None)
        return replace(self, graph=spec, cluster=SINGLE_SERVER)

    def with_seed(self, base_seed: int) -> "ExperimentPlan":
        """Copy starting from a different base seed."""
        return self.with_policy(base_seed=int(base_seed))

    def with_label(self, label: str) -> "ExperimentPlan":
        """Copy producing a different result label."""
        return self.with_policy(label=str(label))

    # ---------------------------------------------------------- execution
    def builder(self) -> Callable[[int], Testbed]:
        """The compiled seed -> :class:`Testbed` factory."""
        definition = self.workload.definition
        kwargs = self.workload.param_dict()
        if self.load.warmup_fraction is not None:
            kwargs["warmup_fraction"] = self.load.warmup_fraction
        policy = self.policy

        def build(seed: int) -> Testbed:
            # A fresh Observability per run: contexts are single-use
            # like testbeds.
            return definition.build_testbed(
                seed,
                client_config=self.hardware.client,
                server_config=self.hardware.server,
                qps=self.load.qps,
                num_requests=self.load.num_requests,
                cluster=self.cluster,
                graph=self.graph,
                obs=policy.observability(),
                engine=policy.engine,
                arrival=self.load.arrival,
                **kwargs)

        return build

    def testbed(self, seed: Optional[int] = None) -> Testbed:
        """One single-use testbed (default seed: the policy's base)."""
        base = (self.policy.base_seed if seed is None
                else spec_int(seed, "seed", minimum=0))
        return self.builder()(base)

    def experiment(self) -> Experiment:
        """The repetition-protocol executor for this plan."""
        return Experiment(
            self.builder(),
            runs=self.policy.runs,
            base_seed=self.policy.base_seed,
            label=self.policy.label)

    def run(self) -> ExperimentResult:
        """Execute all repetitions; returns the per-run results.

        Runs through :func:`~repro.parallel.run_sharded` with its
        default placement: the plan's repetitions (and, with
        ``workers > 1``, their shards) spread over ``min(tasks,
        usable cores)`` processes, up to twice the cores for long
        tasks (:func:`~repro.parallel.runner.default_processes`),
        inline below :data:`~repro.parallel.runner.POOL_MIN_REQUESTS`
        simulated requests.  Placement never changes the result: it
        equals :meth:`experiment`'s serial run field by field.
        """
        # Deferred import: the parallel runner imports this module
        # for plan reconstruction in worker processes.
        from repro.parallel.runner import run_sharded
        return run_sharded(self)

    # ------------------------------------------------------------- sweeps
    def variants(self, *, qps: Optional[Iterable[float]] = None,
                 **param_axes: Iterable[Any]) -> List["ExperimentPlan"]:
        """Expand this plan over one or more axes, without running.

        ``qps`` sweeps the offered load; any other keyword must be a
        registered workload parameter and sweeps its values.  Axes
        combine cartesian-style with qps innermost, matching campaign
        expansion order.
        """
        qps_values = ([self.load.qps] if qps is None
                      else [float(q) for q in qps])
        axes = [(name, list(values))
                for name, values in param_axes.items()]
        plans: List[ExperimentPlan] = []
        for combo in product(*(values for _, values in axes)):
            overrides = {name: value
                         for (name, _), value in zip(axes, combo)}
            base = self.with_params(**overrides) if overrides else self
            for value in qps_values:
                plans.append(base.with_qps(value))
        return plans

    def sweep(self, *, qps: Optional[Iterable[float]] = None,
              **param_axes: Iterable[Any]) -> List[ExperimentResult]:
        """Run :meth:`variants` and return their results, in order."""
        return [plan.run() for plan in self.variants(
            qps=qps, **param_axes)]
