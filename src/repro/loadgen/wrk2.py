"""wrk2-like workload generator preset (Social Network experiments).

DeathStarBench ships an extended wrk2: an **open-loop, time-sensitive**
HTTP generator (block-wait event loop) measuring inside the generator.
The paper configures it with 20 connections on one client machine,
exponential inter-arrivals, and read-user-timeline requests only.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config.knobs import HardwareConfig
from repro.loadgen.client_machine import ClientMachine, sample_env_scale
from repro.loadgen.interarrival import ExponentialInterarrival
from repro.loadgen.open_loop import OpenLoopGenerator
from repro.net.link import NetworkLink, link_stream
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: Connections wrk2 keeps open (documentation; load is rate-driven).
WRK2_CONNECTIONS = 20
#: wrk2's default worker-thread count.
WRK2_THREADS = 2

#: Per-event CPU cost: HTTP request formatting / response parsing.
WRK2_SEND_WORK_US = 6.0
WRK2_RECV_WORK_US = 9.0


def build_wrk2(sim: Simulator, streams: RandomStreams,
               client_config: HardwareConfig, service, qps: float,
               num_requests: int,
               request_factory: Optional[Callable[[int], Request]] = None,
               warmup_fraction: float = 0.1,
               params: SkylakeParameters = DEFAULT_PARAMETERS,
               interarrival=None,
               ) -> OpenLoopGenerator:
    """Assemble the wrk2-style client (one machine, 20 connections)."""
    env = sample_env_scale(
        client_config, streams.get("client-env"), params)
    machines = [
        ClientMachine(
            sim, client_config, time_sensitive=True,
            rng=streams.get(f"client-{thread}"),
            params=params,
            send_work_us=WRK2_SEND_WORK_US,
            recv_work_us=WRK2_RECV_WORK_US,
            name=f"wrk2-client.{thread}",
            overhead_scale=env)
        for thread in range(WRK2_THREADS)
    ]
    link_rng = link_stream(streams, "network")
    return OpenLoopGenerator(
        sim, machines, service,
        link_to_server=NetworkLink(params, link_rng),
        link_to_client=NetworkLink(params, link_rng),
        interarrival=(interarrival if interarrival is not None
                      else ExponentialInterarrival(qps)),
        arrival_rng=streams.stream("arrivals"),
        time_sensitive=True,
        num_requests=num_requests,
        warmup_fraction=warmup_fraction,
        request_factory=request_factory,
    )
