"""Closed-loop generator: a finite set of blocking clients.

A closed-loop generator models *connections* that each keep at most one
request outstanding [24]: the next request on a connection is sent a
think-time after the previous response was *observed by the generator*.
Client-side timing error therefore compounds -- a delayed measurement
delays the next send -- which is why the paper singles closed loops out
as doubly sensitive to timing inaccuracy.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.loadgen.base import GeneratorDesign, LoadGenerator
from repro.loadgen.client_machine import ClientMachine
from repro.loadgen.measurement import PointOfMeasurement
from repro.net.link import NetworkLink
from repro.server.request import Request
from repro.sim.engine import Simulator


class ClosedLoopGenerator(LoadGenerator):
    """*connections* blocking clients, round-robin over machines."""

    def __init__(self, sim: Simulator, machines: Sequence[ClientMachine],
                 service, link_to_server: NetworkLink,
                 link_to_client: NetworkLink,
                 connections: int,
                 think_time_us: float,
                 think_rng: Optional[np.random.Generator],
                 time_sensitive: bool,
                 num_requests: int,
                 warmup_fraction: float = 0.1,
                 request_factory: Optional[Callable[[int], Request]] = None,
                 point_of_measurement: PointOfMeasurement
                 = PointOfMeasurement.GENERATOR) -> None:
        if connections <= 0:
            raise ConfigurationError(
                f"connections must be positive, got {connections}"
            )
        if think_time_us < 0:
            raise ConfigurationError(
                f"think_time_us must be >= 0, got {think_time_us}"
            )
        design = GeneratorDesign(
            loop="closed",
            time_sensitive=time_sensitive,
            point_of_measurement=point_of_measurement,
        )
        super().__init__(
            sim, machines, service, link_to_server, link_to_client,
            design, num_requests, warmup_fraction, request_factory)
        self.connections = int(connections)
        self.think_time_us = float(think_time_us)
        self._think_rng = think_rng
        self._next_index = 0

    # ------------------------------------------------------------------
    def _sample_think_us(self) -> float:
        if self.think_time_us == 0.0:
            return 0.0
        if self._think_rng is None:
            return self.think_time_us
        # mean * std_exp == Generator.exponential(mean) bit-for-bit;
        # a Stream think_rng serves it from numpy's C sampler.
        return self.think_time_us * float(
            self._think_rng.standard_exponential())

    def _issue_next(self, machine: ClientMachine, at_us: float) -> None:
        if self._next_index >= self.num_requests:
            return
        index = self._next_index
        self._next_index += 1
        request = self._request_factory(index)
        request.intended_send_us = at_us
        self._sim.post_at(at_us, self._launch, machine, request)

    def start(self) -> None:
        """Arm one in-flight request per connection."""
        now = self._sim.now
        for connection in range(min(self.connections, self.num_requests)):
            machine = self.machines[connection % len(self.machines)]
            # Stagger connection starts by one think time to avoid a
            # synchronized burst at t=0.
            offset = self._sample_think_us()
            self._issue_next(machine, now + offset)

    def _after_completion(self, machine: ClientMachine,
                          request: Request) -> None:
        think = self._sample_think_us()
        self._issue_next(machine, request.measured_complete_us + think)
