"""The cluster topology spec: how many servers, wired how.

A :class:`ClusterSpec` describes the server side of a deployment as
data: *nodes* replicated server groups behind a load balancer, each
group internally split into *shards* shard stations (each shard
optionally *replication*-way replicated), with a root request fanning
out to *fanout* shards and completing on the *quorum*-th response.
The default spec -- one node, one shard, no replication -- is the
paper's single-server testbed, and every existing plan, campaign and
stored result hashes exactly as before (a default cluster is omitted
from the serialized form entirely).

Like every spec in :mod:`repro.api`, a ``ClusterSpec`` is frozen,
hashable data with an exact dict/JSON round-trip, so cluster
topologies participate in plan content hashes, result-store keys and
cross-process shipping unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Tuple

from repro.errors import SpecValidationError, spec_int

#: Load-balancing policies a :class:`ClusterSpec` may name.
LB_ROUND_ROBIN = "round-robin"
LB_RANDOM = "random"
LB_LEAST_OUTSTANDING = "least-outstanding"
LB_POWER_OF_TWO = "power-of-two"

LB_POLICIES: Tuple[str, ...] = (
    LB_ROUND_ROBIN,
    LB_RANDOM,
    LB_LEAST_OUTSTANDING,
    LB_POWER_OF_TWO,
)

_FIELDS = ("nodes", "replication", "shards", "fanout", "quorum",
           "lb_policy")


@dataclass(frozen=True)
class ClusterSpec:
    """Server-side cluster topology, as validated frozen data.

    Attributes:
        nodes: replicated server groups behind the front load
            balancer; each request is dispatched to exactly one group
            by ``lb_policy``.
        replication: replicas of each shard station inside a group; a
            shard sub-request is routed to one replica by the same
            policy.
        shards: shard stations per group.  A root request fans out to
            ``fanout`` of them through per-shard links.
        fanout: shards touched per root request; ``0`` means all.
        quorum: responses that complete the root request; ``0`` means
            all of the fanout (the classic slowest-shard barrier).
        lb_policy: one of :data:`LB_POLICIES`.
    """

    nodes: int = 1
    replication: int = 1
    shards: int = 1
    fanout: int = 0
    quorum: int = 0
    lb_policy: str = LB_ROUND_ROBIN

    def __post_init__(self) -> None:
        for name in ("nodes", "replication", "shards", "fanout",
                     "quorum"):
            object.__setattr__(self, name, spec_int(
                getattr(self, name), f"cluster {name}"))
        object.__setattr__(self, "lb_policy", str(self.lb_policy))
        if self.nodes < 1:
            raise SpecValidationError(
                f"cluster nodes must be >= 1, got {self.nodes}")
        if self.replication < 1:
            raise SpecValidationError(
                f"cluster replication must be >= 1, "
                f"got {self.replication}")
        if self.shards < 1:
            raise SpecValidationError(
                f"cluster shards must be >= 1, got {self.shards}")
        if not 0 <= self.fanout <= self.shards:
            raise SpecValidationError(
                f"cluster fanout must be in [0, shards={self.shards}], "
                f"got {self.fanout}")
        if not 0 <= self.quorum <= self.effective_fanout:
            raise SpecValidationError(
                f"cluster quorum must be in [0, "
                f"fanout={self.effective_fanout}], got {self.quorum}")
        if self.lb_policy not in LB_POLICIES:
            raise SpecValidationError(
                f"unknown lb_policy {self.lb_policy!r}; valid policies: "
                f"{', '.join(LB_POLICIES)}")
        # Canonicalize: specs are content-hash keys, so the same
        # deployment must always be the same spec.  An explicit "all
        # shards" fanout (and an "all of fanout" quorum) becomes the
        # 0 default, and a topology that never instantiates a load
        # balancer (one node, no replicas) drops its dead lb_policy.
        # Canonical form is also the *merge* base: a later
        # ``with_fields(shards=...)`` on a fanout-equal-to-shards
        # spec keeps meaning "all shards" -- pin fanout below shards
        # if it must survive a shard-count change.
        if self.fanout == self.shards:
            object.__setattr__(self, "fanout", 0)
        if self.quorum == self.effective_fanout:
            object.__setattr__(self, "quorum", 0)
        if self.nodes == 1 and self.replication == 1:
            object.__setattr__(self, "lb_policy", LB_ROUND_ROBIN)

    # ------------------------------------------------------------------
    @property
    def effective_fanout(self) -> int:
        """Shards actually touched per root request (0 resolved)."""
        return self.fanout or self.shards

    @property
    def effective_quorum(self) -> int:
        """Responses that complete a root request (0 resolved)."""
        return self.quorum or self.effective_fanout

    @property
    def is_single_server(self) -> bool:
        """True for the paper's one-box topology (the default)."""
        return (self.nodes == 1 and self.shards == 1
                and self.replication == 1)

    @property
    def total_stations(self) -> int:
        """Server groups' station count across the whole cluster."""
        return self.nodes * self.shards * self.replication

    def describe(self) -> str:
        """One-line topology summary for listings and reports."""
        if self.is_single_server:
            return "single-server"
        parts = [f"{self.nodes} node{'s' if self.nodes != 1 else ''}"]
        if self.nodes > 1 or self.replication > 1:
            parts.append(self.lb_policy)
        if self.shards > 1:
            parts.append(
                f"{self.shards} shards (fanout {self.effective_fanout}, "
                f"quorum {self.effective_quorum})")
        if self.replication > 1:
            parts.append(f"x{self.replication} replicas")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the hash input and wire format)."""
        return {
            "nodes": self.nodes,
            "replication": self.replication,
            "shards": self.shards,
            "fanout": self.fanout,
            "quorum": self.quorum,
            "lb_policy": self.lb_policy,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        """Rebuild (and re-validate) a spec from its dict form."""
        unknown = sorted(set(map(str, data)) - set(_FIELDS))
        if unknown:
            raise SpecValidationError(
                f"unknown key(s) {', '.join(map(repr, unknown))} in "
                f"cluster spec; valid keys: {', '.join(_FIELDS)}")
        return cls(**{name: data[name] for name in _FIELDS
                      if name in data})

    def with_fields(self, **changes: Any) -> "ClusterSpec":
        """Copy with some fields replaced (re-validated)."""
        return replace(self, **changes)


#: The default topology: the paper's single-server testbed.
SINGLE_SERVER = ClusterSpec()


def as_cluster_spec(value: Any) -> ClusterSpec:
    """Coerce a :class:`ClusterSpec`, dict, or ``None`` into a spec."""
    if value is None:
        return SINGLE_SERVER
    if isinstance(value, ClusterSpec):
        return value
    if isinstance(value, Mapping):
        return ClusterSpec.from_dict(value)
    raise SpecValidationError(
        f"cluster must be a ClusterSpec or dict, "
        f"got {type(value).__name__}")
