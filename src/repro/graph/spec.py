"""Frozen specs describing a multi-tier service graph.

A :class:`ServiceGraphSpec` composes named tiers into a DAG: the first
tier is the entry (where the load generator submits), each tier names
the tiers it forwards to, and every tier carries its own station shape
(a :class:`~repro.cluster.spec.ClusterSpec` for service tiers, a
hit-ratio model for cache tiers) plus the :class:`ResiliencePolicy`
governing calls *into* it.

Specs follow the same contract as ``ClusterSpec``: frozen, validated
at construction, exactly round-tripping through ``to_dict`` /
``from_dict`` with defaults omitted so the dict form is canonical and
the hash of a plan that carries the graph is stable.

The tuple order of ``tiers`` is the topological order: every
downstream reference must point to a tier declared *later* in the
tuple.  That single rule makes cycles unrepresentable and gives the
builder a deterministic construction order for free.
"""

from __future__ import annotations

import difflib
import math
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cluster.spec import SINGLE_SERVER, ClusterSpec, as_cluster_spec
from repro.errors import SpecValidationError, spec_int

TIER_SERVICE = "service"
TIER_CACHE = "cache"
TIER_KINDS = (TIER_SERVICE, TIER_CACHE)

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

_POLICY_FIELDS = ("timeout_us", "max_retries", "backoff_us",
                  "hedge_after_us", "hedges")
_TIER_FIELDS = ("name", "kind", "shape", "downstream", "policy",
                "hit_ratio", "hit_service_us", "fill_penalty_us")
_GRAPH_FIELDS = ("tiers",)


def _did_you_mean(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    return f" -- did you mean {close[0]!r}?" if close else ""


def _check_keys(data: Mapping[str, Any], allowed, what: str) -> None:
    unknown = sorted(set(map(str, data)) - set(allowed))
    if unknown:
        hints = "".join(_did_you_mean(k, allowed) for k in unknown[:1])
        raise SpecValidationError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in "
            f"{what}; valid keys: {', '.join(allowed)}{hints}")


# --------------------------------------------------------------- policy
@dataclass(frozen=True)
class ResiliencePolicy:
    """Timeout/retry/hedge behavior for calls into a tier.

    All fields default to zero, meaning "no policy" -- calls go
    straight through.  A non-zero ``timeout_us`` arms a timer per
    attempt; on expiry the attempt is abandoned (its response drains
    as a straggler) and, while retries remain, a fresh attempt is
    issued after ``backoff_us``.  A non-zero ``hedge_after_us``
    launches up to ``hedges`` duplicate attempts if no response has
    arrived yet; the first response wins and later ones drain without
    double-counting, reusing the fanout-quorum machinery's contract.

    Attributes:
        timeout_us: per-attempt timeout; 0 disables timeouts.
        max_retries: extra attempts after a timeout (requires
            ``timeout_us``).
        backoff_us: delay before each retry attempt.
        hedge_after_us: delay before launching a hedged duplicate;
            0 disables hedging.
        hedges: maximum hedged duplicates (requires
            ``hedge_after_us``).
    """

    timeout_us: float = 0.0
    max_retries: int = 0
    backoff_us: float = 0.0
    hedge_after_us: float = 0.0
    hedges: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "timeout_us", float(self.timeout_us))
        object.__setattr__(self, "max_retries", spec_int(
            self.max_retries, "resilience max_retries"))
        object.__setattr__(self, "backoff_us", float(self.backoff_us))
        object.__setattr__(self, "hedge_after_us",
                           float(self.hedge_after_us))
        object.__setattr__(self, "hedges",
                           spec_int(self.hedges, "resilience hedges"))
        for name in _POLICY_FIELDS:
            if not 0 <= getattr(self, name) < math.inf:
                raise SpecValidationError(
                    f"resilience {name} must be finite and >= 0, "
                    f"got {getattr(self, name)}")
        if (self.max_retries > 0) != (self.timeout_us > 0):
            raise SpecValidationError(
                "retries need both timeout_us > 0 and max_retries "
                f"> 0 (got timeout_us={self.timeout_us}, "
                f"max_retries={self.max_retries})")
        if (self.hedges > 0) != (self.hedge_after_us > 0):
            raise SpecValidationError(
                "hedging needs both hedge_after_us > 0 and hedges "
                f"> 0 (got hedge_after_us={self.hedge_after_us}, "
                f"hedges={self.hedges})")
        if self.backoff_us > 0 and self.max_retries == 0:
            raise SpecValidationError(
                "backoff_us without retries has no effect; set "
                "timeout_us and max_retries")

    @property
    def is_noop(self) -> bool:
        """True when every knob is off (calls pass straight through)."""
        return (self.timeout_us == 0 and self.max_retries == 0
                and self.hedge_after_us == 0)

    def describe(self) -> str:
        """One-line summary for topology listings."""
        if self.is_noop:
            return "none"
        parts = []
        if self.max_retries:
            backoff = (f" (backoff {self.backoff_us:g}us)"
                       if self.backoff_us else "")
            parts.append(f"retry x{self.max_retries} @ "
                         f"{self.timeout_us:g}us{backoff}")
        elif self.timeout_us:
            parts.append(f"timeout {self.timeout_us:g}us")
        if self.hedges:
            parts.append(f"hedge x{self.hedges} @ "
                         f"{self.hedge_after_us:g}us")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; zero fields are omitted (noop -> ``{}``)."""
        return {name: getattr(self, name) for name in _POLICY_FIELDS
                if getattr(self, name)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResiliencePolicy":
        _check_keys(data, _POLICY_FIELDS, "resilience policy")
        return cls(**{name: data[name] for name in _POLICY_FIELDS
                      if name in data})

    def with_fields(self, **changes: Any) -> "ResiliencePolicy":
        """Copy with some fields replaced (re-validated)."""
        return replace(self, **changes)


NO_RESILIENCE = ResiliencePolicy()


def as_resilience_policy(value: Any) -> ResiliencePolicy:
    """Coerce ``None`` / policy / mapping to a :class:`ResiliencePolicy`."""
    if value is None:
        return NO_RESILIENCE
    if isinstance(value, ResiliencePolicy):
        return value
    if isinstance(value, Mapping):
        return ResiliencePolicy.from_dict(value)
    raise SpecValidationError(
        f"policy must be a ResiliencePolicy or dict, "
        f"got {type(value).__name__}")


# ----------------------------------------------------------------- tier
@dataclass(frozen=True)
class GraphTierSpec:
    """One named stage of a service graph.

    A ``service`` tier hosts the workload's service in the station or
    cluster shape given by ``shape``; a ``cache`` tier is a hit-ratio
    model that answers hits locally and forwards misses downstream
    (filling on the way back).  ``policy`` governs calls *into* this
    tier from its upstream (for the entry tier: from the client).

    Attributes:
        name: tier identifier, ``[A-Za-z0-9_-]+``.
        kind: ``"service"`` or ``"cache"``.
        shape: station/cluster shape of a service tier.
        downstream: names of tiers this one forwards to.
        policy: resilience policy on this tier's inbound edge.
        hit_ratio: cache hit probability (cache tiers only).
        hit_service_us: local service time charged on a hit.
        fill_penalty_us: extra time charged filling after a miss.
    """

    name: str
    kind: str = TIER_SERVICE
    shape: ClusterSpec = field(default_factory=lambda: SINGLE_SERVER)
    downstream: Tuple[str, ...] = ()
    policy: ResiliencePolicy = field(
        default_factory=lambda: NO_RESILIENCE)
    hit_ratio: float = 0.0
    hit_service_us: float = 0.0
    fill_penalty_us: float = 0.0

    def __post_init__(self) -> None:
        name = str(self.name)
        if not _NAME_RE.match(name):
            raise SpecValidationError(
                f"tier name must match [A-Za-z0-9_-]+, got {name!r}")
        object.__setattr__(self, "name", name)
        kind = str(self.kind)
        if kind not in TIER_KINDS:
            raise SpecValidationError(
                f"unknown tier kind {kind!r}; valid kinds: "
                f"{', '.join(TIER_KINDS)}"
                f"{_did_you_mean(kind, TIER_KINDS)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", as_cluster_spec(self.shape))
        downstream = tuple(str(d) for d in self.downstream)
        if len(set(downstream)) != len(downstream):
            raise SpecValidationError(
                f"tier {name!r} lists a downstream tier twice: "
                f"{downstream}")
        object.__setattr__(self, "downstream", downstream)
        object.__setattr__(self, "policy",
                           as_resilience_policy(self.policy))
        for attr in ("hit_ratio", "hit_service_us",
                     "fill_penalty_us"):
            object.__setattr__(self, attr, float(getattr(self, attr)))
        if kind == TIER_CACHE:
            if not self.shape.is_single_server:
                raise SpecValidationError(
                    f"cache tier {name!r} must be single-server; "
                    f"got shape {self.shape.describe()!r}")
            if not downstream:
                raise SpecValidationError(
                    f"cache tier {name!r} needs a downstream tier "
                    f"to forward misses to")
            if not 0.0 <= self.hit_ratio <= 1.0:
                raise SpecValidationError(
                    f"cache tier {name!r} hit_ratio must be in "
                    f"[0, 1], got {self.hit_ratio}")
            for attr in ("hit_service_us", "fill_penalty_us"):
                if not 0.0 <= getattr(self, attr) < math.inf:
                    raise SpecValidationError(
                        f"cache tier {name!r} {attr} must be finite "
                        f"and >= 0, got {getattr(self, attr)}")
        else:
            for attr in ("hit_ratio", "hit_service_us",
                         "fill_penalty_us"):
                if getattr(self, attr):
                    raise SpecValidationError(
                        f"{attr} only applies to cache tiers; "
                        f"service tier {name!r} sets it to "
                        f"{getattr(self, attr)}")

    def describe(self) -> str:
        """One-line summary for topology listings."""
        if self.kind == TIER_CACHE:
            head = (f"cache (hit {self.hit_ratio:.0%}, "
                    f"hit cost {self.hit_service_us:g}us, "
                    f"fill {self.fill_penalty_us:g}us)")
        else:
            head = self.shape.describe()
        arrow = (f" -> {', '.join(self.downstream)}"
                 if self.downstream else "")
        policy = (f" [policy: {self.policy.describe()}]"
                  if not self.policy.is_noop else "")
        return f"{self.name}: {head}{arrow}{policy}"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; fields at their default are omitted."""
        data: Dict[str, Any] = {"name": self.name}
        if self.kind != TIER_SERVICE:
            data["kind"] = self.kind
        if not self.shape.is_single_server:
            data["shape"] = self.shape.to_dict()
        if self.downstream:
            data["downstream"] = list(self.downstream)
        if not self.policy.is_noop:
            data["policy"] = self.policy.to_dict()
        for attr in ("hit_ratio", "hit_service_us",
                     "fill_penalty_us"):
            if getattr(self, attr):
                data[attr] = getattr(self, attr)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphTierSpec":
        _check_keys(data, _TIER_FIELDS, "graph tier spec")
        if "name" not in data:
            raise SpecValidationError("graph tier spec needs a name")
        kwargs: Dict[str, Any] = {
            name: data[name] for name in _TIER_FIELDS if name in data}
        if "downstream" in kwargs:
            kwargs["downstream"] = tuple(kwargs["downstream"])
        return cls(**kwargs)

    def with_fields(self, **changes: Any) -> "GraphTierSpec":
        """Copy with some fields replaced (re-validated)."""
        return replace(self, **changes)


# ---------------------------------------------------------------- graph
@dataclass(frozen=True)
class ServiceGraphSpec:
    """A validated DAG of tiers; ``tiers[0]`` is the entry.

    The tuple order is the topological order: every ``downstream``
    name must reference a tier declared later, so cycles cannot be
    expressed and builders can assemble back-to-front.
    """

    tiers: Tuple[GraphTierSpec, ...]

    def __post_init__(self) -> None:
        tiers = []
        for tier in self.tiers:
            if isinstance(tier, Mapping):
                tier = GraphTierSpec.from_dict(tier)
            elif not isinstance(tier, GraphTierSpec):
                raise SpecValidationError(
                    f"graph tiers must be GraphTierSpec or dict, "
                    f"got {type(tier).__name__}")
            tiers.append(tier)
        if not tiers:
            raise SpecValidationError(
                "a service graph needs at least one tier")
        object.__setattr__(self, "tiers", tuple(tiers))
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecValidationError(
                f"duplicate tier name(s): {', '.join(dupes)}")
        position = {name: i for i, name in enumerate(names)}
        for i, tier in enumerate(self.tiers):
            for ref in tier.downstream:
                if ref not in position:
                    raise SpecValidationError(
                        f"tier {tier.name!r} forwards to unknown "
                        f"tier {ref!r}; known tiers: "
                        f"{', '.join(names)}"
                        f"{_did_you_mean(ref, names)}")
                if position[ref] <= i:
                    raise SpecValidationError(
                        f"tier {tier.name!r} forwards to "
                        f"{ref!r}, which is declared at or before "
                        f"it; tiers must be listed in topological "
                        f"order (downstream tiers come later)")
        reachable = {names[0]}
        for tier in self.tiers:
            if tier.name in reachable:
                reachable.update(tier.downstream)
        orphans = [n for n in names if n not in reachable]
        if orphans:
            raise SpecValidationError(
                f"tier(s) unreachable from entry {names[0]!r}: "
                f"{', '.join(orphans)}")

    @property
    def entry(self) -> GraphTierSpec:
        """The tier the load generator submits to."""
        return self.tiers[0]

    @property
    def names(self) -> Tuple[str, ...]:
        """Tier names in topological order."""
        return tuple(t.name for t in self.tiers)

    def tier(self, name: str) -> GraphTierSpec:
        """Look up a tier by name (did-you-mean on miss)."""
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise SpecValidationError(
            f"no tier named {name!r}; known tiers: "
            f"{', '.join(self.names)}"
            f"{_did_you_mean(name, self.names)}")

    def describe(self) -> str:
        """Multi-line topology summary for ``repro plan``."""
        return "\n".join(t.describe() for t in self.tiers)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (tiers serialized with defaults omitted)."""
        return {"tiers": [t.to_dict() for t in self.tiers]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceGraphSpec":
        _check_keys(data, _GRAPH_FIELDS, "service graph spec")
        if "tiers" not in data:
            raise SpecValidationError(
                "service graph spec needs a 'tiers' list")
        return cls(tiers=tuple(data["tiers"]))


def as_graph_spec(value: Any) -> Optional[ServiceGraphSpec]:
    """Coerce ``None`` / spec / mapping to a :class:`ServiceGraphSpec`."""
    if value is None:
        return None
    if isinstance(value, ServiceGraphSpec):
        return value
    if isinstance(value, Mapping):
        return ServiceGraphSpec.from_dict(value)
    raise SpecValidationError(
        f"graph must be a ServiceGraphSpec or dict, "
        f"got {type(value).__name__}")
