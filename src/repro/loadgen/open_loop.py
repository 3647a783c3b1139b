"""Open-loop generator: requests follow an inter-arrival process.

An open-loop generator models an infinite client population [24]: the
next request is sent when the inter-arrival distribution says so,
regardless of whether earlier requests completed.  Client-side timing
error therefore shifts requests in time and deviates the generated
workload from the target distribution -- the first risk of Table III.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.loadgen.base import GeneratorDesign, LoadGenerator
from repro.loadgen.client_machine import ClientMachine
from repro.loadgen.interarrival import InterarrivalProcess
from repro.loadgen.measurement import PointOfMeasurement
from repro.net.link import NetworkLink
from repro.server.request import Request
from repro.sim.engine import Simulator


class OpenLoopGenerator(LoadGenerator):
    """Open-loop load with round-robin placement over client machines."""

    def __init__(self, sim: Simulator, machines: Sequence[ClientMachine],
                 service, link_to_server: NetworkLink,
                 link_to_client: NetworkLink,
                 interarrival: InterarrivalProcess,
                 arrival_rng: Optional[np.random.Generator],
                 time_sensitive: bool,
                 num_requests: int,
                 warmup_fraction: float = 0.1,
                 request_factory: Optional[Callable[[int], Request]] = None,
                 point_of_measurement: PointOfMeasurement
                 = PointOfMeasurement.GENERATOR) -> None:
        design = GeneratorDesign(
            loop="open",
            time_sensitive=time_sensitive,
            point_of_measurement=point_of_measurement,
        )
        super().__init__(
            sim, machines, service, link_to_server, link_to_client,
            design, num_requests, warmup_fraction, request_factory)
        self.interarrival = interarrival
        self._arrival_rng = arrival_rng

    def start(self) -> None:
        """Draw the whole arrival schedule and arm it as one train.

        The gaps for the entire run are pulled as **one vector draw**
        (bit-identical to per-request scalar sampling, see
        :mod:`repro.sim.sampling`) and turned into absolute send times
        by a cumulative sum -- the first gap is rebased onto the
        current clock before summing, so the float accumulation order
        matches the scalar ``send_at += gap`` loop exactly.  The train
        (:meth:`~repro.sim.engine.Simulator.post_train`) builds each
        request when it launches.
        """
        gaps = self.interarrival.sample_train_us(
            self._arrival_rng, self.num_requests)
        gaps[0] += self._sim.now
        send_times = np.cumsum(gaps)
        intended = send_times.tolist()
        factory = self._request_factory
        machines = self.machines
        num_machines = len(machines)

        def make_args(index: int) -> tuple:
            request = factory(index)
            request.intended_send_us = intended[index]
            return (machines[index % num_machines], request)

        self._sim.post_train(send_times, self._launch, make_args)
