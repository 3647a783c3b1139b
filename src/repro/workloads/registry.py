"""Workload registry: named workload definitions with parameter schemas.

Experiment specs are *data* (dicts, JSON, database rows), so they
cannot hold a builder callable directly -- and multiprocessing workers
need to reconstruct the builder on the far side of a pickle boundary.
The registry gives every workload a stable string name plus a **typed
parameter schema**: a :class:`WorkloadDefinition` pairs the testbed
builder with the :class:`ParamSpec`s of its extra knobs (e.g. the
synthetic workload's ``added_delay_us``), its load-generator identity
and its default/paper load points.

This is the plugin protocol new workloads implement::

    register_workload(WorkloadDefinition(
        name="myservice",
        builder=_myservice_testbed,
        params=(ParamSpec("fanout", int, 4, minimum=1),),
        default_qps=1_000.0,
        default_num_requests=1_000,
    ))

Anything registered this way is addressable from the whole stack:
:class:`repro.api.ExperimentPlan` validates parameters against the
schema at construction, campaigns expand into plans over it, and the
CLI lists it.  A plan or campaign parameter outside the schema is
rejected by name.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.testbed import Testbed
from repro.errors import ExperimentError, SpecValidationError
from repro.workloads.hdsearch import _hdsearch_testbed
from repro.workloads.memcached import _memcached_testbed
from repro.workloads.socialnetwork import _socialnetwork_testbed
from repro.workloads.synthetic import _synthetic_testbed

#: A testbed builder: ``builder(seed=..., client_config=...,
#: server_config=..., qps=..., num_requests=..., **extra) -> Testbed``.
TestbedBuilder = Callable[..., Testbed]

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
        name: the builder keyword, e.g. ``"added_delay_us"``.
        kind: expected Python type (``float``, ``int``, ``bool`` or
            ``str``).  Integers are accepted for ``float`` parameters
            and normalized, matching JSON's single number type.
        default: value the builder uses when the parameter is absent.
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
        if self.minimum is not None and value < self.minimum:
            raise SpecValidationError(
                f"workload {workload!r} parameter {self.name!r} must "
                f"be >= {self.minimum:g}, got {value!r}")
        if self.below is not None and value >= self.below:
            raise SpecValidationError(
                f"workload {workload!r} parameter {self.name!r} must "
                f"be < {self.below:g}, got {value!r}")
        return value


#: Builder keywords every paper testbed accepts beyond the universal
#: five (seed / client_config / server_config / qps / num_requests).
#: Campaign ``extra`` dicts may carry them for backwards
#: compatibility; :class:`repro.api.ExperimentPlan` routes them
#: through :class:`~repro.api.LoadSpec` instead.
UNIVERSAL_BUILDER_PARAMS: Tuple[ParamSpec, ...] = (
    ParamSpec("warmup_fraction", float, 0.1,
              "leading samples to discard", minimum=0.0, below=1.0),
)


@dataclass(frozen=True)
class WorkloadDefinition:
    """One registered workload: builder, schema, defaults.

    Attributes:
        name: stable workload name, e.g. ``"memcached"``.
        builder: the testbed factory (called with the universal
            keywords plus any schema parameters).
        params: schema of the workload-specific parameters.
        description: one-line summary for listings.
        generator: identity of the load generator the builder wires
            in (``repro plan`` and :class:`~repro.api.LoadSpec`'s
            ``generator`` field validate against it).
        default_qps: builder's default offered load.
        default_num_requests: builder's default requests per run.
        qps_sweep: the paper's load sweep for this workload.
    """

    name: str
    builder: TestbedBuilder
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

    def build_testbed(self, seed: int, *, client_config: Any,
                      server_config: Any, qps: float,
                      num_requests: int, **params: Any) -> Testbed:
        """Invoke the builder with the universal keywords + *params*."""
        return self.builder(
            seed=seed,
            client_config=client_config,
            server_config=server_config,
            qps=qps,
            num_requests=num_requests,
            **params)


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
    builder=_memcached_testbed,
    description="Memcached + Mutilate replaying Facebook ETC "
                "(Section IV-B)",
    generator="mutilate",
    default_qps=100_000.0,
    default_num_requests=2_000,
    qps_sweep=DEFAULT_QPS_SWEEPS["memcached"],
))
register_workload(WorkloadDefinition(
    name="hdsearch",
    builder=_hdsearch_testbed,
    description="MicroSuite HDSearch: 3-tier image similarity over "
                "a real LSH index",
    generator="hdsearch-client",
    default_qps=1_000.0,
    default_num_requests=1_000,
    qps_sweep=DEFAULT_QPS_SWEEPS["hdsearch"],
))
register_workload(WorkloadDefinition(
    name="socialnetwork",
    builder=_socialnetwork_testbed,
    description="DeathStarBench Social Network on a Reed98-scale "
                "social graph",
    generator="wrk2",
    default_qps=300.0,
    default_num_requests=800,
    qps_sweep=DEFAULT_QPS_SWEEPS["socialnetwork"],
))
register_workload(WorkloadDefinition(
    name="synthetic",
    builder=_synthetic_testbed,
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
