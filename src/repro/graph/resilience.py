"""Timeout/retry/hedge dispatch on a service-graph edge.

:class:`ResilientDispatcher` wraps one backend and applies a
:class:`~repro.graph.spec.ResiliencePolicy` to every call: a
per-attempt timeout that abandons the attempt and retries (with
backoff) while budget remains, and hedged duplicate attempts launched
when the first response is slow.  The first response to arrive wins;
late responses from abandoned or duplicated attempts drain without
double-counting -- the same contract the fanout-quorum machinery
enforces for stragglers.

Attempts carry *copies* of the root request so concurrent attempts
never race on one mutable record; the winning attempt's timings are
folded back into the root before the caller's completion runs.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.graph.spec import ResiliencePolicy
from repro.server.request import Request


class _CallState:
    """Book-keeping for one root request in flight: the caller's
    ``done_fn`` and context ride here as data until the winning
    response applies them."""

    __slots__ = ("root", "done_fn", "ctx", "completed", "retries_used",
                 "hedges_used", "timeout_event", "hedge_event")

    def __init__(self, root: Request, done_fn: Callable,
                 ctx: Tuple[Any, ...]) -> None:
        self.root = root
        self.done_fn = done_fn
        self.ctx = ctx
        self.completed = False
        self.retries_used = 0
        self.hedges_used = 0
        self.timeout_event = None
        self.hedge_event = None


class ResilientDispatcher:
    """Apply a resilience policy to calls into *backend*.

    Args:
        sim: the simulator.
        backend: the wrapped service (honors the ``submit`` contract).
        policy: the (non-noop) policy to enforce.
        name: label used in metrics and trace spans.
    """

    def __init__(self, sim, backend, policy: ResiliencePolicy,
                 name: str = "edge") -> None:
        self._sim = sim
        self.backend = backend
        self.policy = policy
        self.name = name
        self.calls = 0
        self.roots_completed = 0
        self.retries = 0
        self.hedges = 0
        self.timeouts = 0
        self.attempts_issued = 0
        self.attempts_completed = 0
        # Observability (null-object contract): the tracer is cached
        # once, so untraced timeouts and hedges pay a single None test.
        obs = getattr(sim, "obs", None)
        self._trace = obs.tracer if obs is not None else None
        if obs is not None:
            obs.on_resilience(self)

    def submit(self, request: Request, done_fn: Callable,
               *ctx: Any) -> None:
        sim = self._sim
        if request.server_arrival_us == 0.0:
            request.server_arrival_us = sim.now
        self.calls += 1
        state = _CallState(request, done_fn, ctx)
        self._launch_attempt(state, arm_timeout=True)
        if self.policy.hedges:
            state.hedge_event = sim.schedule(
                self.policy.hedge_after_us, self._hedge, state)

    def _launch_attempt(self, state: _CallState,
                        arm_timeout: bool) -> None:
        self.attempts_issued += 1
        root = state.root
        attempt = Request(
            request_id=root.request_id,
            size_kb=root.size_kb,
            intended_send_us=root.intended_send_us,
            actual_send_us=root.actual_send_us,
        )
        policy = self.policy
        if (arm_timeout and policy.timeout_us
                and state.retries_used < policy.max_retries):
            state.timeout_event = self._sim.schedule(
                policy.timeout_us, self._timed_out, state)
        self.backend.submit(attempt, self._responded, state)

    def _timed_out(self, state: _CallState) -> None:
        if state.completed:
            return
        sim = self._sim
        self.timeouts += 1
        state.retries_used += 1
        self.retries += 1
        state.timeout_event = None
        if self._trace is not None:
            self._trace.span("retry",
                             sim.now - self.policy.timeout_us,
                             sim.now, state.root.request_id,
                             self.name)
        if self.policy.backoff_us:
            sim.post(self.policy.backoff_us, self._retry, state)
        else:
            self._retry(state)

    def _retry(self, state: _CallState) -> None:
        # A straggler response may have landed during the backoff.
        if state.completed:
            return
        self._launch_attempt(state, arm_timeout=True)

    def _hedge(self, state: _CallState) -> None:
        state.hedge_event = None
        if state.completed:
            return
        sim = self._sim
        state.hedges_used += 1
        self.hedges += 1
        if self._trace is not None:
            self._trace.span("hedge",
                             sim.now - self.policy.hedge_after_us,
                             sim.now, state.root.request_id,
                             self.name)
        # Hedged duplicates never arm timeouts: retries govern the
        # primary attempt chain, hedges race it.
        self._launch_attempt(state, arm_timeout=False)
        if state.hedges_used < self.policy.hedges:
            state.hedge_event = sim.schedule(
                self.policy.hedge_after_us, self._hedge, state)

    def _responded(self, attempt: Request,
                   state: _CallState) -> None:
        self.attempts_completed += 1
        if state.completed:
            return  # straggler: drains, never double-counts
        state.completed = True
        if state.timeout_event is not None:
            state.timeout_event.cancel()
            state.timeout_event = None
        if state.hedge_event is not None:
            state.hedge_event.cancel()
            state.hedge_event = None
        root = state.root
        root.service_us += attempt.service_us
        root.queue_wait_us += attempt.queue_wait_us
        root.server_departure_us = self._sim.now
        self.roots_completed += 1
        state.done_fn(root, *state.ctx)

    # ------------------------------------------------------- metrics
    def node_utilizations(self):
        """Per-node utilizations of the wrapped backend, if any."""
        probe = getattr(self.backend, "node_utilizations", None)
        return probe() if probe is not None else []

    def utilization(self) -> float:
        probe = getattr(self.backend, "utilization", None)
        return probe() if probe is not None else 0.0

    def expected_service_us(self) -> float:
        probe = getattr(self.backend, "expected_service_us", None)
        return probe() if probe is not None else 0.0
