"""HDSearch client preset (MicroSuite experiments).

MicroSuite's accompanying client is an **open-loop, time-insensitive**
generator: it draws Poisson inter-arrivals but implements them with a
**busy-wait** loop that actively polls for elapsed time, measuring
inside the generator.  Because the polling core never sleeps, the
client-side C-state/wake machinery is out of the picture; what remains
is the clock frequency at which the client's (substantial) per-request
marshalling work runs -- which is why the LP/HP gap on HDSearch is
present but much smaller than on Memcached (Fig. 4).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config.knobs import HardwareConfig
from repro.loadgen.client_machine import ClientMachine
from repro.loadgen.interarrival import ExponentialInterarrival
from repro.loadgen.open_loop import OpenLoopGenerator
from repro.net.link import NetworkLink, link_stream
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: Per-request client CPU cost at nominal frequency.  HDSearch queries
#: carry a feature vector that the gRPC client serializes (send) and a
#: response image set it deserializes and ranks (receive).  Only the
#: receive-side work sits on the measurement path, so it dominates.
HDSEARCH_SEND_WORK_US = 30.0
HDSEARCH_RECV_WORK_US = 150.0


def build_hdsearch_client(
        sim: Simulator, streams: RandomStreams,
        client_config: HardwareConfig, service, qps: float,
        num_requests: int,
        request_factory: Optional[Callable[[int], Request]] = None,
        warmup_fraction: float = 0.1,
        params: SkylakeParameters = DEFAULT_PARAMETERS,
        interarrival=None,
        ) -> OpenLoopGenerator:
    """Assemble the HDSearch busy-wait client (one machine)."""
    machine = ClientMachine(
        sim, client_config, time_sensitive=False,
        rng=streams.get("client-0"),
        params=params,
        send_work_us=HDSEARCH_SEND_WORK_US,
        recv_work_us=HDSEARCH_RECV_WORK_US,
        name="hdsearch-client")
    link_rng = link_stream(streams, "network")
    return OpenLoopGenerator(
        sim, [machine], service,
        link_to_server=NetworkLink(params, link_rng),
        link_to_client=NetworkLink(params, link_rng),
        interarrival=(interarrival if interarrival is not None
                      else ExponentialInterarrival(qps)),
        arrival_rng=streams.stream("arrivals"),
        time_sensitive=False,
        num_requests=num_requests,
        warmup_fraction=warmup_fraction,
        request_factory=request_factory,
    )
