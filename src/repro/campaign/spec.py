"""Declarative campaign specifications.

A *campaign* is the paper's methodology written down as data: a
cartesian sweep of workloads x client configurations x server knob
conditions x offered loads, each cell repeated N times from a
deterministic seed block.  :class:`CampaignSpec` describes the sweep;
:meth:`CampaignSpec.expand` flattens it into an ordered list of
:class:`ConditionSpec` cells, each holding the validated
:class:`~repro.api.ExperimentPlan` that runs it.  The plan's content
hash keys the result store, which makes re-runs, resumes and
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
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.specs import (
    ExperimentPlan,
    HardwareSpec,
    LoadSpec,
    RunPolicy,
    WorkloadSpec,
)
from repro.cluster.spec import ClusterSpec, as_cluster_spec
from repro.config.knobs import HardwareConfig
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    server_with_c1e,
    server_with_smt,
)
from repro.config.serialize import (
    content_hash,
    hardware_config_from_dict,
    hardware_config_to_dict,
)
from repro.core.experiment import DEFAULT_RUNS
from repro.errors import ExperimentError, spec_int
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
    """One campaign cell: the validated plan that runs it.

    The plan is the condition's whole identity.  Its content hash is
    the result-store key, so every plan field that changes the
    simulation (topology, engine, arrival shape, shard width, ...)
    changes the key, and fields at their defaults, which plans omit
    from their serialized form, never do.

    Attributes:
        plan: the experiment this cell runs.  Its policy label is the
            cell's series label (``"LP-SMToff"``) and its hardware
            labels are the sweep's client and condition labels.
    """

    plan: ExperimentPlan

    @property
    def label(self) -> str:
        """The condition's series label, e.g. ``"LP-SMToff"``."""
        return self.plan.label

    @property
    def qps(self) -> float:
        """The condition's offered load."""
        return self.plan.load.qps

    def to_plan(self) -> ExperimentPlan:
        """The plan this condition runs."""
        return self.plan

    def content_hash(self) -> str:
        """The result-store key: the plan's content hash."""
        return self.plan.content_hash()


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
        extra: extra kwargs forwarded to the testbed assembly.
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
        self.runs = spec_int(self.runs, "runs", minimum=1)
        self.num_requests = spec_int(self.num_requests, "num_requests",
                                     minimum=1)
        self.base_seed = spec_int(self.base_seed, "base_seed", minimum=0)
        if not self.qps_list:
            raise ExperimentError("qps_list must be non-empty")
        if not self.conditions:
            raise ExperimentError("conditions must be non-empty")
        if not self.clients:
            raise ExperimentError("clients must be non-empty")
        self.extra = _normalize_extra(self.extra)
        # Validate extra against the workload's registered parameter
        # schema *now*, naming the offending key -- not at execution
        # time deep inside a worker process.  A workload this process
        # has not registered yet (a plugin imported later) defers
        # validation to expansion.
        definition = find_workload(self.workload)
        if definition is not None:
            self.extra = definition.validate_params(
                self.extra, include_universal=True)

    # ------------------------------------------------------------------
    def expand(self) -> List[ConditionSpec]:
        """The sweep as validated plans, in deterministic paper order.

        Order is clients x conditions x qps -- the same nesting the
        serial figure studies use, so a campaign-built grid renders
        its series in the same order.  Each cell's plan carries the
        cell's labels and its :func:`cell_seed` block.  A
        ``warmup_fraction`` in ``extra`` moves into the plan's
        :class:`~repro.api.LoadSpec`; everything else in ``extra`` is
        a workload parameter.

        Raises:
            SpecValidationError: if the workload is not registered.
        """
        extra = dict(self.extra)
        # Every universal builder param maps to the LoadSpec field of
        # the same name (the contract a new UNIVERSAL_BUILDER_PARAMS
        # entry must uphold); everything left is a workload param.
        load_kwargs = {spec.name: extra.pop(spec.name)
                       for spec in UNIVERSAL_BUILDER_PARAMS
                       if spec.name in extra}
        workload = WorkloadSpec.create(self.workload, **extra)
        engine = self.engine or DEFAULT_ENGINE
        out: List[ConditionSpec] = []
        for client_label, client_config in self.clients.items():
            for condition_label, server_config in self.conditions.items():
                hardware = HardwareSpec(
                    client=client_config, server=server_config,
                    client_label=client_label,
                    server_label=condition_label)
                for qps in self.qps_list:
                    out.append(ConditionSpec(ExperimentPlan(
                        workload=workload,
                        load=LoadSpec(
                            qps=qps, num_requests=self.num_requests,
                            arrival=self.arrival, **load_kwargs),
                        hardware=hardware,
                        policy=RunPolicy(
                            runs=self.runs,
                            base_seed=cell_seed(
                                self.base_seed, client_label,
                                condition_label, qps),
                            label=f"{client_label}-{condition_label}",
                            engine=engine),
                        cluster=self.cluster,
                        graph=self.graph,
                    )))
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
            runs=data.get("runs", DEFAULT_RUNS),
            num_requests=data.get("num_requests", 1_000),
            base_seed=data.get("base_seed", 0),
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
