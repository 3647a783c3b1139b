"""Sharded fan-out request lifecycle with quorum completion.

A :class:`FanoutService` models the root/leaf pattern of sharded
services (HDSearch root -> leaf shards, memcached proxy -> shard
pools): a root request fans out to *K* of *N* shard backends through
per-shard network links and completes when the *Q*-th response
arrives -- ``Q == K`` is the classic slowest-shard barrier, ``Q < K``
is quorum/hedged completion where stragglers are ignored (but still
drain their servers, exactly as real stragglers do).

The root request's ``service_us``/``queue_wait_us`` aggregate the
*maximum* over the responses that counted toward the quorum, so
per-request telemetry stays a single columnar row per root request --
sub-requests never reach the samples buffer (request conservation:
one completion per injected request, always).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.cluster.balancer import (
    backend_expected_service_us,
    backend_utilization,
)
from repro.errors import ConfigurationError
from repro.net.link import NetworkLink
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.sampling import as_stream


class _RootState:
    """Per-root bookkeeping while its shard responses are in flight:
    the caller's ``done_fn`` and context ride here as data until the
    quorum response applies them."""

    __slots__ = ("pending", "max_service_us", "max_queue_wait_us",
                 "completed", "done_fn", "ctx")

    def __init__(self, pending: int, done_fn: Callable[..., None],
                 ctx: Tuple[Any, ...]) -> None:
        self.pending = pending
        self.max_service_us = 0.0
        self.max_queue_wait_us = 0.0
        self.completed = False
        self.done_fn = done_fn
        self.ctx = ctx


class FanoutService:
    """Fan a root request out to K of N shards; complete on quorum.

    Args:
        sim: the run's simulator.
        shards: shard backends (stations, tiered services, nested
            balancers, graph stages, ...) honoring
            ``submit(request, done_fn, *ctx)``: each calls
            ``done_fn(request, *ctx)`` when it has served the request.
            The fan-out passes each shard its context as data (the
            root, its bookkeeping, the shard index and the dispatch
            time) with the stable bound :meth:`_shard_served` as
            ``done_fn``, so no per-sub-request closure is built.
        links: one :class:`~repro.net.link.NetworkLink` per shard (the
            root->shard and shard->root hops), or ``None`` for
            co-located shards.
        fanout: shards touched per root request (0 = all).
        quorum: responses completing the root (0 = all of fanout).
        rng: randomness for the K-of-N shard subset draw (batched
            facade); required when ``fanout < len(shards)``.
        name: diagnostic name.
    """

    def __init__(self, sim: Simulator, shards: Sequence[Any],
                 links: Optional[Sequence[Optional[NetworkLink]]] = None,
                 fanout: int = 0, quorum: int = 0,
                 rng: Optional[Any] = None,
                 name: str = "fanout") -> None:
        if not shards:
            raise ConfigurationError("a fanout service needs >= 1 shard")
        self._sim = sim
        self._shards: List[Any] = list(shards)
        count = len(self._shards)
        if links is None:
            links = [None] * count
        if len(links) != count:
            raise ConfigurationError(
                f"got {len(links)} links for {count} shards")
        self._links: List[Optional[NetworkLink]] = list(links)
        self.fanout = int(fanout) or count
        if not 1 <= self.fanout <= count:
            raise ConfigurationError(
                f"fanout must be in [1, {count}], got {self.fanout}")
        self.quorum = int(quorum) or self.fanout
        if not 1 <= self.quorum <= self.fanout:
            raise ConfigurationError(
                f"quorum must be in [1, fanout={self.fanout}], "
                f"got {self.quorum}")
        self._rng = as_stream(rng)
        if self._rng is None and self.fanout < count:
            raise ConfigurationError(
                f"fanout {self.fanout} < {count} shards needs an rng "
                f"for the subset draw")
        self.name = str(name)
        #: Root requests completed (exactly one per submit).
        self.roots_completed = 0
        #: Shard sub-requests issued / completed (stragglers included).
        self.subs_issued = 0
        self.subs_completed = 0
        #: Sub-requests dispatched per shard (conservation checks).
        self.shard_dispatched: List[int] = [0] * count
        obs = getattr(sim, "obs", None)
        self._trace = obs.tracer if obs is not None else None
        if obs is not None:
            obs.on_fanout(self)
        # Accelerated-kernel handshake (see repro.sim.kernel).
        adopt = getattr(sim, "adopt_fanout", None)
        if adopt is not None:
            adopt(self)

    # ------------------------------------------------------------------
    @property
    def shards(self) -> Sequence[Any]:
        """The shard backends, in index order."""
        return tuple(self._shards)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def select_shards(self) -> List[int]:
        """The shard subset for one root request, in dispatch order.

        ``fanout == shards`` touches every shard without consuming a
        draw; a partial fanout draws a uniform partial Fisher-Yates
        shuffle (K uniform draws).
        """
        count = len(self._shards)
        if self.fanout == count:
            return list(range(count))
        pool = list(range(count))
        rng = self._rng
        chosen: List[int] = []
        for position in range(self.fanout):
            pick = position + rng.next_index(count - position)
            pool[position], pool[pick] = pool[pick], pool[position]
            chosen.append(pool[position])
        return chosen

    # ------------------------------------------------------------------
    def submit(self, request: Request,
               done_fn: Callable[..., None], *ctx: Any) -> None:
        """Fan *request* out; call ``done_fn(request, *ctx)`` on the
        quorum response."""
        sim = self._sim
        if request.server_arrival_us == 0.0:
            request.server_arrival_us = sim.now
        selected = self.select_shards()
        state = _RootState(self.quorum, done_fn, ctx)
        sub_size_kb = request.size_kb / len(selected)
        served = self._shard_served
        for shard_index in selected:
            self.subs_issued += 1
            self.shard_dispatched[shard_index] += 1
            sub = Request(
                request_id=request.request_id,
                size_kb=sub_size_kb,
                intended_send_us=request.intended_send_us,
                actual_send_us=request.actual_send_us,
            )
            link = self._links[shard_index]
            if link is None:
                self._shards[shard_index].submit(
                    sub, served, request, state, shard_index, sim.now)
            else:
                sim.post(link.sample_latency_us(sub.size_kb),
                         self._shards[shard_index].submit,
                         sub, served, request, state, shard_index,
                         sim.now)

    def _shard_served(self, sub: Request, root: Request,
                      state: _RootState, shard_index: int,
                      dispatched_at: float) -> None:
        """A shard finished serving *sub*; the response still crosses
        the shard's return link before it reaches the root."""
        link = self._links[shard_index]
        if link is None:
            self._at_root(root, state, sub, shard_index, dispatched_at)
        else:
            self._sim.post(
                link.sample_latency_us(sub.size_kb),
                self._at_root, root, state, sub, shard_index,
                dispatched_at)

    def _at_root(self, root: Request, state: _RootState, sub: Request,
                 shard_index: int = -1,
                 dispatched_at: float = 0.0) -> None:
        self.subs_completed += 1
        trace = self._trace
        if trace is not None:
            # One child span per shard sub-request: root dispatch to
            # response back at the root (stragglers included).
            trace.span("fanout.rpc", dispatched_at, self._sim.now,
                       root.request_id, self.name, detail=shard_index)
        if state.completed:
            return  # straggler past the quorum: drains, never counts
        if sub.service_us > state.max_service_us:
            state.max_service_us = sub.service_us
        if sub.queue_wait_us > state.max_queue_wait_us:
            state.max_queue_wait_us = sub.queue_wait_us
        state.pending -= 1
        if state.pending > 0:
            return
        state.completed = True
        root.service_us += state.max_service_us
        root.queue_wait_us += state.max_queue_wait_us
        root.server_departure_us = self._sim.now
        self.roots_completed += 1
        state.done_fn(root, *state.ctx)

    # ------------------------------------------------------------- metrics
    def node_utilizations(self) -> tuple:
        """Time-averaged utilization of every shard, in order."""
        return tuple(backend_utilization(shard)
                     for shard in self._shards)

    def utilization(self) -> float:
        """Mean utilization across the shards."""
        utils = self.node_utilizations()
        return sum(utils) / len(utils)

    def expected_service_us(self) -> float:
        """Mean root service demand: the slowest of *fanout* shards
        approximated by one shard's mean (a lower bound; sizing
        heuristics only)."""
        per_shard = (sum(backend_expected_service_us(s)
                         for s in self._shards) / len(self._shards))
        return per_shard
