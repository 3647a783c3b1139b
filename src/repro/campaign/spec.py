"""Declarative campaign specifications.

A *campaign* is the paper's methodology written down as data: a
cartesian sweep of workloads x client configurations x server knob
conditions x offered loads, each cell repeated N times from a
deterministic seed block.  :class:`CampaignSpec` describes the sweep;
:meth:`CampaignSpec.expand` flattens it into an ordered list of
:class:`ConditionSpec` -- one experiment each -- with stable content
hashes that key the result store and make re-runs, resumes and
cross-campaign sharing possible.

Specs are data, not code: :meth:`CampaignSpec.from_dict` accepts plain
dicts/JSON with preset shorthands (clients by Table II name, server
conditions by knob), so a campaign can live in a ``.json`` file next
to the figures it feeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.api.specs import ExperimentPlan

from repro.campaign.serialize import (
    content_hash,
    hardware_config_from_dict,
    hardware_config_to_dict,
)
from repro.cluster.spec import ClusterSpec, as_cluster_spec
from repro.config.knobs import HardwareConfig
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    server_with_c1e,
    server_with_smt,
)
from repro.core.experiment import DEFAULT_RUNS
from repro.errors import ExperimentError
from repro.graph.spec import ServiceGraphSpec, as_graph_spec
from repro.loadgen.interarrival import ArrivalSpec, as_arrival_spec
from repro.sim.kernel import DEFAULT_ENGINE, validate_engine_name
from repro.sim.random import _stable_name_key
from repro.workloads.registry import (
    UNIVERSAL_BUILDER_PARAMS,
    find_workload,
)

#: The default client sweep: both Table II configurations.
DEFAULT_CLIENTS: Dict[str, HardwareConfig] = {
    "LP": LP_CLIENT, "HP": HP_CLIENT}


def _normalize_extra(extra) -> Dict[str, Any]:
    """Canonicalize extra builder kwargs for hashing.

    JSON has one number type, so ``{"added_delay_us": 200}`` and
    ``{"added_delay_us": 200.0}`` must be the *same* condition --
    otherwise a spec file written with integer literals would miss
    every store row a preset-built campaign produced.
    """
    out: Dict[str, Any] = {}
    for key, value in dict(extra).items():
        if isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        out[str(key)] = value
    return out


def cell_seed(base_seed: int, client: str, condition: str,
              qps: float) -> int:
    """Deterministic, condition-unique seed block for one grid cell.

    Derived from the cell's identity (not its position in the sweep),
    so adding or removing QPS points never perturbs other cells' seeds
    -- the property that makes store hits and resumed campaigns exact.
    """
    key = _stable_name_key(f"{client}/{condition}/{qps:g}")
    return base_seed + (key % 1_000_003) * 10_000


@dataclass(frozen=True)
class ConditionSpec:
    """One fully-resolved experimental condition.

    Attributes:
        workload: registered workload name (see
            :mod:`repro.workloads.registry`).
        client_label: client sweep label, e.g. ``"LP"``.
        client_config: the client hardware configuration.
        condition_label: server condition label, e.g. ``"SMToff"``.
        server_config: the server hardware configuration.
        qps: offered load.
        runs: repetitions (the paper: 50).
        num_requests: requests per run.
        base_seed: first root seed of this condition's seed block.
        extra: extra builder kwargs as sorted ``(name, value)`` pairs
            (e.g. the synthetic workload's ``added_delay_us``).
        cluster: server-side topology, or ``None`` for the paper's
            single-server testbed.  A default (single-server) spec is
            normalized to ``None`` so the condition's content hash --
            the result-store memoization key -- is canonical: the
            same deployment always produces the same key, and any
            non-default cluster field (nodes, lb_policy, shards, ...)
            produces a distinct one.
        engine: event-loop engine name, or ``None`` for the default
            kernel.  Normalized exactly like ``cluster``: naming the
            default engine explicitly is stored as ``None`` and
            omitted from the dict form, so every pre-engine condition
            hash -- and every store row keyed by one -- is unchanged.
        graph: multi-tier service-graph topology, or ``None`` for the
            cluster / single-server paths.  Omitted from the dict form
            when ``None``, preserving every pre-graph condition hash.
        arrival: time-varying arrival shape, or ``None`` for the
            stock Poisson process (the default spec normalizes to
            ``None``, same canonicalization as ``cluster``).
        workers: shard count for the sharded-execution path, or
            ``None`` for a plain single-process run.  ``workers=1``
            normalizes to ``None`` and is omitted from the dict form,
            so every pre-parallel condition hash is unchanged; the
            autotuner uses this field to search ``policy.workers``.
    """

    workload: str
    client_label: str
    client_config: HardwareConfig
    condition_label: str
    server_config: HardwareConfig
    qps: float
    runs: int
    num_requests: int
    base_seed: int
    extra: Tuple[Tuple[str, Any], ...] = ()
    cluster: Optional[ClusterSpec] = None
    engine: Optional[str] = None
    graph: Optional[ServiceGraphSpec] = None
    arrival: Optional[ArrivalSpec] = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "extra",
            tuple(sorted(_normalize_extra(dict(self.extra)).items())))
        if self.cluster is not None:
            cluster = as_cluster_spec(self.cluster)
            object.__setattr__(
                self, "cluster",
                None if cluster.is_single_server else cluster)
        if self.engine is not None:
            engine = validate_engine_name(self.engine)
            object.__setattr__(
                self, "engine",
                None if engine == DEFAULT_ENGINE else engine)
        object.__setattr__(self, "graph", as_graph_spec(self.graph))
        object.__setattr__(self, "arrival",
                           as_arrival_spec(self.arrival))
        if self.workers is not None:
            workers = int(self.workers)
            if workers < 1:
                raise ExperimentError(
                    f"workers must be >= 1, got {workers}")
            object.__setattr__(self, "workers",
                               None if workers == 1 else workers)
        if self.graph is not None and self.cluster is not None:
            raise ExperimentError(
                "a condition deploys either a service graph or a "
                "cluster, not both")

    @property
    def label(self) -> str:
        """The condition's series label, e.g. ``"LP-SMToff"``."""
        return f"{self.client_label}-{self.condition_label}"

    def extra_kwargs(self) -> Dict[str, Any]:
        """The extra builder kwargs as a dict."""
        return dict(self.extra)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the hash input and pickle payload).

        The cluster key appears only for non-default topologies, so
        every single-server condition hash -- and therefore every
        result already sitting in a store -- is unchanged.
        """
        data = {
            "workload": self.workload,
            "client_label": self.client_label,
            "client_config": hardware_config_to_dict(self.client_config),
            "condition_label": self.condition_label,
            "server_config": hardware_config_to_dict(self.server_config),
            "qps": self.qps,
            "runs": self.runs,
            "num_requests": self.num_requests,
            "base_seed": self.base_seed,
            "extra": dict(self.extra),
        }
        if self.cluster is not None:
            data["cluster"] = self.cluster.to_dict()
        if self.engine is not None:
            data["engine"] = self.engine
        if self.graph is not None:
            data["graph"] = self.graph.to_dict()
        if self.arrival is not None:
            data["arrival"] = self.arrival.to_dict()
        if self.workers is not None:
            data["workers"] = self.workers
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConditionSpec":
        """Rebuild a condition from its dict form."""
        try:
            return cls(
                workload=str(data["workload"]),
                client_label=str(data["client_label"]),
                client_config=hardware_config_from_dict(
                    data["client_config"]),
                condition_label=str(data["condition_label"]),
                server_config=hardware_config_from_dict(
                    data["server_config"]),
                qps=float(data["qps"]),
                runs=int(data["runs"]),
                num_requests=int(data["num_requests"]),
                base_seed=int(data["base_seed"]),
                extra=tuple(sorted(dict(data.get("extra", {})).items())),
                cluster=(ClusterSpec.from_dict(data["cluster"])
                         if "cluster" in data else None),
                engine=data.get("engine"),
                graph=(ServiceGraphSpec.from_dict(data["graph"])
                       if "graph" in data else None),
                arrival=(ArrivalSpec.from_dict(data["arrival"])
                         if "arrival" in data else None),
                workers=(int(data["workers"])
                         if "workers" in data else None),
            )
        except KeyError as exc:
            raise ExperimentError(
                f"invalid condition spec: missing {exc}") from exc

    def content_hash(self) -> str:
        """Stable identity of this condition across processes/sessions."""
        return content_hash(self.to_dict())

    def to_plan(self) -> "ExperimentPlan":
        """Compile this condition into an :class:`~repro.api.ExperimentPlan`.

        The plan is what actually executes -- executor workers receive
        plans, not label/kwargs tuples.  ``warmup_fraction``, if a
        legacy ``extra`` carries it, moves into the plan's
        :class:`~repro.api.LoadSpec`; everything else in ``extra`` is
        a workload parameter validated against the registry schema.
        The condition's :meth:`content_hash` stays the store key, so
        stored campaign results keep their identity.
        """
        from repro.api.specs import (
            ExperimentPlan,
            HardwareSpec,
            LoadSpec,
            RunPolicy,
            WorkloadSpec,
        )

        extra = self.extra_kwargs()
        # Every universal builder param maps to the LoadSpec field of
        # the same name (the contract a new UNIVERSAL_BUILDER_PARAMS
        # entry must uphold); everything left is a workload param.
        load_kwargs = {spec.name: extra.pop(spec.name)
                       for spec in UNIVERSAL_BUILDER_PARAMS
                       if spec.name in extra}
        return ExperimentPlan(
            workload=WorkloadSpec.create(self.workload, **extra),
            load=LoadSpec(qps=self.qps, num_requests=self.num_requests,
                          arrival=self.arrival, **load_kwargs),
            hardware=HardwareSpec(
                client=self.client_config, server=self.server_config,
                client_label=self.client_label,
                server_label=self.condition_label),
            policy=RunPolicy(runs=self.runs, base_seed=self.base_seed,
                             label=self.label,
                             engine=self.engine or DEFAULT_ENGINE,
                             workers=self.workers or 1),
            cluster=self.cluster,
            graph=self.graph,
        )


def _coerce_server_condition(
        label: str,
        value: Union[str, Mapping[str, Any], HardwareConfig],
        ) -> HardwareConfig:
    """One server condition from config, preset name, or knob shorthand.

    Shorthand: ``{"knob": "smt"|"c1e", "enabled": bool}`` derives the
    Table II baseline exactly like the figure studies do.
    """
    if isinstance(value, HardwareConfig):
        return value
    if isinstance(value, str):
        return hardware_config_from_dict(value)
    if "knob" in value:
        knob = str(value["knob"]).lower()
        enabled = bool(value.get("enabled", False))
        if knob == "smt":
            return server_with_smt(enabled)
        if knob == "c1e":
            return server_with_c1e(enabled)
        raise ExperimentError(
            f"unknown knob {knob!r} in condition {label!r}; "
            f"expected 'smt' or 'c1e'")
    return hardware_config_from_dict(dict(value))


def _coerce_clients(
        value: Union[Sequence[str], Mapping[str, Any], None],
        ) -> Dict[str, HardwareConfig]:
    if value is None:
        return dict(DEFAULT_CLIENTS)
    if isinstance(value, Mapping):
        return {str(label): (config if isinstance(config, HardwareConfig)
                             else hardware_config_from_dict(config))
                for label, config in value.items()}
    return {str(name): hardware_config_from_dict(str(name))
            for name in value}


@dataclass
class CampaignSpec:
    """A declarative cartesian sweep of experimental conditions.

    Attributes:
        name: campaign name (labels the store rows and reports).
        workload: registered workload name.
        clients: client label -> hardware config (default: LP and HP).
        conditions: server condition label -> hardware config.
        qps_list: the load sweep, in paper order.
        runs: repetitions per condition.
        num_requests: requests per run.
        base_seed: campaign-wide base seed; per-condition blocks are
            derived via :func:`cell_seed`.
        extra: extra kwargs forwarded to the testbed builder.
        cluster: server-side topology every condition deploys on
            (spec, dict, or ``None`` for single-server).
        engine: event-loop engine every condition runs on (``None``
            for the default kernel).  Validated here, before any
            condition executes, with a did-you-mean hint.
        graph: service-graph topology every condition deploys on
            (spec, dict, or ``None``); validated here, before
            expansion, with did-you-mean hints for tier references.
        arrival: time-varying arrival shape every condition drives
            (spec, dict, shape name, or ``None`` for Poisson).
    """

    name: str
    workload: str
    conditions: Dict[str, HardwareConfig]
    qps_list: Tuple[float, ...]
    clients: Dict[str, HardwareConfig] = field(
        default_factory=lambda: dict(DEFAULT_CLIENTS))
    runs: int = DEFAULT_RUNS
    num_requests: int = 1_000
    base_seed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    cluster: Optional[ClusterSpec] = None
    engine: Optional[str] = None
    graph: Optional[ServiceGraphSpec] = None
    arrival: Optional[ArrivalSpec] = None

    def __post_init__(self) -> None:
        if self.cluster is not None:
            cluster = as_cluster_spec(self.cluster)
            self.cluster = (None if cluster.is_single_server
                            else cluster)
        if self.engine is not None:
            engine = validate_engine_name(self.engine)
            self.engine = (None if engine == DEFAULT_ENGINE
                           else engine)
        self.graph = as_graph_spec(self.graph)
        self.arrival = as_arrival_spec(self.arrival)
        if self.graph is not None and self.cluster is not None:
            raise ExperimentError(
                "a campaign deploys either a service graph or a "
                "cluster, not both")
        self.qps_list = tuple(float(q) for q in self.qps_list)
        if not self.name:
            raise ExperimentError("campaign name must be non-empty")
        if self.runs < 1:
            raise ExperimentError(f"runs must be >= 1, got {self.runs}")
        if self.num_requests < 1:
            raise ExperimentError(
                f"num_requests must be >= 1, got {self.num_requests}")
        if not self.qps_list:
            raise ExperimentError("qps_list must be non-empty")
        if not self.conditions:
            raise ExperimentError("conditions must be non-empty")
        if not self.clients:
            raise ExperimentError("clients must be non-empty")
        self.extra = _normalize_extra(self.extra)
        # Validate extra against the workload's registered parameter
        # schema *now*, naming the offending key -- not at execution
        # time deep inside a worker process.  A workload the driving
        # process has not registered (a plugin the executor imports)
        # defers validation to plan-build time.
        definition = find_workload(self.workload)
        if definition is not None:
            self.extra = definition.validate_params(
                self.extra, include_universal=True)

    # ------------------------------------------------------------------
    def expand(self) -> List[ConditionSpec]:
        """The sweep, flattened in deterministic paper order.

        Order is clients x conditions x qps -- the same nesting the
        serial figure studies use, so a campaign-built grid renders
        its series in the same order.
        """
        extra = tuple(sorted(self.extra.items()))
        out: List[ConditionSpec] = []
        for client_label, client_config in self.clients.items():
            for condition_label, server_config in self.conditions.items():
                for qps in self.qps_list:
                    out.append(ConditionSpec(
                        workload=self.workload,
                        client_label=client_label,
                        client_config=client_config,
                        condition_label=condition_label,
                        server_config=server_config,
                        qps=qps,
                        runs=self.runs,
                        num_requests=self.num_requests,
                        base_seed=cell_seed(
                            self.base_seed, client_label,
                            condition_label, qps),
                        extra=extra,
                        cluster=self.cluster,
                        engine=self.engine,
                        graph=self.graph,
                        arrival=self.arrival,
                    ))
        return out

    def size(self) -> int:
        """Number of conditions in the sweep."""
        return len(self.clients) * len(self.conditions) * len(self.qps_list)

    def with_overrides(self, **kwargs: Any) -> "CampaignSpec":
        """Copy of this spec with some fields replaced (CLI overrides)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form of the whole campaign."""
        data = {
            "name": self.name,
            "workload": self.workload,
            "clients": {label: hardware_config_to_dict(config)
                        for label, config in self.clients.items()},
            "conditions": {label: hardware_config_to_dict(config)
                           for label, config in self.conditions.items()},
            "qps_list": list(self.qps_list),
            "runs": self.runs,
            "num_requests": self.num_requests,
            "base_seed": self.base_seed,
            "extra": dict(self.extra),
        }
        if self.cluster is not None:
            data["cluster"] = self.cluster.to_dict()
        if self.engine is not None:
            data["engine"] = self.engine
        if self.graph is not None:
            data["graph"] = self.graph.to_dict()
        if self.arrival is not None:
            data["arrival"] = self.arrival.to_dict()
        return data

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (what a campaign file contains)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a campaign from a plain dict.

        Accepts the shorthands documented in the module docstring:
        clients as a list of preset names, server conditions as knob
        dicts or preset names, ``qps`` as an alias for ``qps_list``.
        """
        try:
            name = str(data["name"])
            workload = str(data["workload"])
            raw_conditions = data["conditions"]
        except KeyError as exc:
            raise ExperimentError(
                f"invalid campaign spec: missing {exc}") from exc
        qps_list = data.get("qps_list", data.get("qps"))
        if qps_list is None:
            raise ExperimentError(
                "invalid campaign spec: missing 'qps_list'")
        conditions = {
            str(label): _coerce_server_condition(str(label), value)
            for label, value in dict(raw_conditions).items()}
        return cls(
            name=name,
            workload=workload,
            clients=_coerce_clients(data.get("clients")),
            conditions=conditions,
            qps_list=tuple(float(q) for q in qps_list),
            runs=int(data.get("runs", DEFAULT_RUNS)),
            num_requests=int(data.get("num_requests", 1_000)),
            base_seed=int(data.get("base_seed", 0)),
            extra=dict(data.get("extra", {})),
            cluster=(ClusterSpec.from_dict(data["cluster"])
                     if "cluster" in data else None),
            engine=data.get("engine"),
            graph=(ServiceGraphSpec.from_dict(data["graph"])
                   if "graph" in data else None),
            arrival=(ArrivalSpec.from_dict(data["arrival"])
                     if "arrival" in data else None),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Build a campaign from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"campaign spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Build a campaign from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def content_hash(self) -> str:
        """Stable identity of the whole campaign."""
        return content_hash(self.to_dict())
