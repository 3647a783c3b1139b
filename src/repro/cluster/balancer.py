"""A load-balancer station fronting replicated server groups.

:class:`LoadBalancer` presents the same ``submit(request, done_fn,
*ctx)`` interface as a :class:`~repro.server.station.ServiceStation`,
so a workload generator drives a cluster exactly as it drives one
server.
Each incoming request is dispatched to one backend chosen by a
:data:`~repro.cluster.spec.LB_POLICIES` policy; the balancer tracks
per-backend outstanding and dispatch counts, which the policies read
and the tests (request conservation, least-outstanding invariants)
assert against.

Stochastic policies (``random``, ``power-of-two``) draw uniform
primitives through a :class:`~repro.sim.sampling.Stream`, so cluster
runs keep the simulator's bit-exact determinism and numpy's C
samplers.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.cluster.spec import (
    LB_LEAST_OUTSTANDING,
    LB_POLICIES,
    LB_POWER_OF_TWO,
    LB_RANDOM,
    LB_ROUND_ROBIN,
)
from repro.core.testbed import service_utilization
from repro.errors import ConfigurationError
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.sampling import as_stream


def least_outstanding_choice(outstanding: Sequence[int]) -> int:
    """The least-loaded backend index; ties break to the lowest index.

    Deterministic on purpose: a tie must not consume a random draw,
    or two runs of the same seed could diverge on scheduling noise.
    """
    best = 0
    best_load = outstanding[0]
    for index in range(1, len(outstanding)):
        load = outstanding[index]
        if load < best_load:
            best = index
            best_load = load
    return best


def power_of_two_choice(outstanding: Sequence[int],
                        first: int, second: int) -> int:
    """Pick the less-loaded of two sampled backends (ties: first)."""
    if outstanding[second] < outstanding[first]:
        return second
    return first


class LoadBalancer:
    """Dispatch requests over *backends* under one LB policy.

    Args:
        sim: the run's simulator (kept for interface symmetry with
            stations; dispatch itself is instantaneous).
        backends: server groups with a station-compatible
            ``submit(request, done_fn, *ctx)`` that calls
            ``done_fn(request, *ctx)`` on completion.
        policy: one of :data:`~repro.cluster.spec.LB_POLICIES`.
        rng: randomness source for the stochastic policies; wrapped
            in a :class:`~repro.sim.sampling.Stream` so uniform draws
            call numpy's C sampler.  Required for ``random`` and
            ``power-of-two``.
        name: diagnostic name.
    """

    def __init__(self, sim: Simulator, backends: Sequence[Any],
                 policy: str = LB_ROUND_ROBIN,
                 rng: Optional[Any] = None,
                 name: str = "load-balancer") -> None:
        if not backends:
            raise ConfigurationError(
                "a load balancer needs >= 1 backend")
        if policy not in LB_POLICIES:
            raise ConfigurationError(
                f"unknown lb policy {policy!r}; valid policies: "
                f"{', '.join(LB_POLICIES)}")
        self._sim = sim
        self._backends: List[Any] = list(backends)
        self.policy = str(policy)
        self._rng = as_stream(rng)
        if (self._rng is None
                and policy in (LB_RANDOM, LB_POWER_OF_TWO)):
            raise ConfigurationError(
                f"lb policy {policy!r} needs an rng")
        self.name = str(name)
        count = len(self._backends)
        #: In-flight requests per backend (policy input + invariants).
        self.outstanding: List[int] = [0] * count
        #: Total requests ever dispatched per backend.
        self.dispatched: List[int] = [0] * count
        #: Total requests completed through this balancer.
        self.completed = 0
        self._next_round_robin = 0
        #: Test/diagnostic hook: called ``(chosen_index,
        #: outstanding_snapshot)`` at each dispatch decision.
        self.on_dispatch: Optional[
            Callable[[int, List[int]], None]] = None
        #: Peak in-flight requests on any single backend (tracked only
        #: under an Observability context).
        self.peak_outstanding = 0
        obs = getattr(sim, "obs", None)
        self._obs = obs
        self._trace = obs.tracer if obs is not None else None
        if obs is not None:
            obs.on_balancer(self)

    # ------------------------------------------------------------------
    @property
    def backends(self) -> Sequence[Any]:
        """The backend server groups, in index order."""
        return tuple(self._backends)

    @property
    def num_backends(self) -> int:
        return len(self._backends)

    def choose(self) -> int:
        """The policy's pick for the next request (consumes draws)."""
        policy = self.policy
        if policy == LB_ROUND_ROBIN:
            index = self._next_round_robin
            self._next_round_robin = (
                index + 1) % len(self._backends)
            return index
        if policy == LB_RANDOM:
            return self._rng.next_index(len(self._backends))
        if policy == LB_LEAST_OUTSTANDING:
            return least_outstanding_choice(self.outstanding)
        # power-of-two-choices: two uniform draws picking a *distinct*
        # pair (the classic formulation -- comparing a backend against
        # itself would degenerate to a blind random pick), keep the
        # less loaded one.
        count = len(self._backends)
        if count == 1:
            return 0
        first = self._rng.next_index(count)
        second = (first + 1 + self._rng.next_index(count - 1)) % count
        return power_of_two_choice(self.outstanding, first, second)

    # ------------------------------------------------------------------
    def submit(self, request: Request,
               done_fn: Callable[..., None], *ctx: Any) -> None:
        """Dispatch *request* to one backend; forward its completion
        as ``done_fn(request, *ctx)``."""
        index = self.choose()
        if self.on_dispatch is not None:
            self.on_dispatch(index, list(self.outstanding))
        self.outstanding[index] += 1
        self.dispatched[index] += 1
        if self._obs is not None:
            if self.outstanding[index] > self.peak_outstanding:
                self.peak_outstanding = self.outstanding[index]
            trace = self._trace
            if trace is not None:
                trace.instant("lb.dispatch", self._sim.now,
                              request.request_id, self.name,
                              detail=index)
        self._backends[index].submit(request, self._backend_done,
                                     index, done_fn, *ctx)

    def _backend_done(self, job: Request, index: int,
                      done_fn: Callable[..., None], *ctx: Any) -> None:
        """Backend *index* served *job*: release its slot and forward
        the completion (a stable bound method; the context rides as
        data, so no per-request closure is built)."""
        self.outstanding[index] -= 1
        self.completed += 1
        done_fn(job, *ctx)

    # ------------------------------------------------------------- metrics
    def node_utilizations(self) -> tuple:
        """Time-averaged utilization of every backend, in order."""
        return tuple(backend_utilization(backend)
                     for backend in self._backends)

    def utilization(self) -> float:
        """Mean utilization across the backends."""
        utils = self.node_utilizations()
        return sum(utils) / len(utils)

    def expected_service_us(self) -> float:
        """Mean per-request service demand of one backend."""
        return (sum(backend_expected_service_us(b)
                    for b in self._backends) / len(self._backends))


# ---------------------------------------------------------------- helpers
def backend_utilization(backend: Any) -> float:
    """Utilization of a station, tiered service, or nested cluster
    (the shared :func:`~repro.core.testbed.service_utilization`
    probe, so per-node and top-level numbers always agree)."""
    return service_utilization(backend)


def backend_expected_service_us(backend: Any) -> float:
    """Mean service demand of any backend shape (0 when unknown)."""
    expected = getattr(backend, "expected_service_us", None)
    if expected is not None:
        return float(expected())
    return 0.0
