"""Hit-ratio cache tier: hits answer locally, misses traverse & fill.

:class:`CacheTier` sits in front of a downstream service and models a
look-aside cache with a fixed hit probability.  On a hit the request
is answered after ``hit_service_us`` of local work; on a miss it
traverses the downstream service, then pays ``fill_penalty_us`` to
install the result before completing.  Hit decisions draw one uniform
from the tier's :class:`~repro.sim.sampling.Stream`, through its
zero-argument C draw bound once; the degenerate ratios 0 and 1 consume
no randomness at all (mirroring the ``next_index(1)`` idiom), so an
always-miss cache is draw-for-draw identical to no cache.  That uniform
is the stream's only draw, so :func:`hit_stream` block-serves it.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.server.request import Request
from repro.sim.random import RandomStreams
from repro.sim.sampling import Stream, as_stream


def hit_stream(streams: RandomStreams, name: str) -> Stream:
    """The stream for a :class:`CacheTier`'s hit decisions.

    A hit decision is the stream's only draw, a uniform, so the stream
    is block-served (``streams.stream(name, only="uniform")``): the
    scalar draws' values in their order, at a C iterator step each.
    """
    return streams.stream(name, only="uniform")


class CacheTier:
    """A hit-ratio cache stage honoring the ``submit`` contract.

    Args:
        sim: the simulator.
        downstream: service (or stage) misses traverse.
        hit_ratio: probability a request hits, in [0, 1].
        hit_service_us: local service time charged on a hit.
        fill_penalty_us: extra time charged after a miss returns,
            modelling the cache fill.
        rng: random stream for hit decisions; required only when
            ``0 < hit_ratio < 1``.
        name: label used in metrics and trace spans.
    """

    def __init__(self, sim, downstream, *, hit_ratio: float,
                 hit_service_us: float = 0.0,
                 fill_penalty_us: float = 0.0,
                 rng=None, name: str = "cache") -> None:
        if not 0.0 <= hit_ratio <= 1.0:
            raise ConfigurationError(
                f"hit_ratio must be in [0, 1], got {hit_ratio}")
        if not (0.0 <= hit_service_us < math.inf
                and 0.0 <= fill_penalty_us < math.inf):
            raise ConfigurationError(
                f"cache service costs must be finite and >= 0, got "
                f"hit_service_us={hit_service_us}, "
                f"fill_penalty_us={fill_penalty_us}")
        if 0.0 < hit_ratio < 1.0 and rng is None:
            raise ConfigurationError(
                f"cache {name!r} with fractional hit_ratio needs an "
                f"rng stream")
        self._sim = sim
        self.downstream = downstream
        self.hit_ratio = float(hit_ratio)
        self.hit_service_us = float(hit_service_us)
        self.fill_penalty_us = float(fill_penalty_us)
        stream = as_stream(rng)
        self._uniform = None if stream is None else stream.draw_uniform
        self.name = name
        self.hits = 0
        self.misses = 0
        # Observability (null-object contract): the tracer is cached
        # once, so untraced completions pay a single None test.
        obs = getattr(sim, "obs", None)
        self._trace = obs.tracer if obs is not None else None
        if obs is not None:
            obs.on_cache(self)
        # Accelerated-kernel handshake (see repro.sim.kernel).
        adopt = getattr(sim, "adopt_cache", None)
        if adopt is not None:
            adopt(self)

    @property
    def lookups(self) -> int:
        """Total hit decisions made."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Empirical hit rate so far (0.0 before any lookup)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def _is_hit(self) -> bool:
        # Degenerate ratios consume no draw so an always-miss cache
        # leaves the stream bit-identical to having no cache at all.
        if self.hit_ratio >= 1.0:
            return True
        if self.hit_ratio <= 0.0:
            return False
        return self._uniform() < self.hit_ratio

    def submit(self, request: Request, done_fn: Callable,
               *ctx: Any) -> None:
        """Look *request* up; call ``done_fn(request, *ctx)`` when it
        completes.  The caller's callback and context ride through
        the hit, fill and miss continuations as data, so no
        per-request closure is built."""
        sim = self._sim
        if request.server_arrival_us == 0.0:
            request.server_arrival_us = sim.now
        if self._is_hit():
            self.hits += 1
            request.service_us += self.hit_service_us
            sim.post(self.hit_service_us, self._finish_hit,
                     request, done_fn, sim.now, *ctx)
        else:
            self.misses += 1
            self.downstream.submit(request, self._filled, done_fn,
                                   sim.now, *ctx)

    def _finish_hit(self, request: Request, done_fn: Callable,
                    started_us: float, *ctx: Any) -> None:
        sim = self._sim
        request.server_departure_us = sim.now
        if self._trace is not None:
            self._trace.span("cache.hit", started_us, sim.now,
                             request.request_id, self.name)
        done_fn(request, *ctx)

    def _filled(self, request: Request, done_fn: Callable,
                started_us: float, *ctx: Any) -> None:
        request.service_us += self.fill_penalty_us
        self._sim.post(self.fill_penalty_us, self._finish_miss,
                       request, done_fn, started_us, *ctx)

    def _finish_miss(self, request: Request, done_fn: Callable,
                     started_us: float, *ctx: Any) -> None:
        sim = self._sim
        request.server_departure_us = sim.now
        if self._trace is not None:
            self._trace.span("cache.miss", started_us, sim.now,
                             request.request_id, self.name)
        done_fn(request, *ctx)

    # ------------------------------------------------------- metrics
    def utilization(self) -> float:
        """Caches are a model, not a station; no busy time to report."""
        return 0.0

    def expected_service_us(self) -> float:
        """Mean local cost per lookup under the configured ratio."""
        return (self.hit_ratio * self.hit_service_us
                + (1.0 - self.hit_ratio) * self.fill_penalty_us)
