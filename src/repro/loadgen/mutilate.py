"""Mutilate-like workload generator preset (Memcached experiments).

The paper drives Memcached with an extended Mutilate [26]: an
**open-loop, time-sensitive** generator (block-wait event loop that
sleeps until the next send) with the point of measurement inside the
generator, running on **4 client machines** (plus a master that does
not generate load) with 160 connections total, replaying the Facebook
ETC workload.
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

#: Client machines generating load (paper Section IV-B).
MUTILATE_CLIENT_MACHINES = 4
#: Generator threads per client machine (mutilate -T); connections are
#: partitioned across threads, so per-thread event rates stay modest
#: even at 500K aggregate QPS -- which is why the LP client's C-state
#: and DVFS wake path stays on the measurement path at every load.
MUTILATE_THREADS_PER_MACHINE = 8
#: Total connections across all machines (documentation only; the
#: open-loop schedule is rate-driven, not connection-driven).
MUTILATE_CONNECTIONS = 160

#: Per-event CPU cost of mutilate's epoll loop at nominal frequency.
MUTILATE_SEND_WORK_US = 1.0
MUTILATE_RECV_WORK_US = 1.4


def build_mutilate(sim: Simulator, streams: RandomStreams,
                   client_config: HardwareConfig, service, qps: float,
                   num_requests: int,
                   request_factory: Optional[Callable[[int], Request]] = None,
                   warmup_fraction: float = 0.1,
                   params: SkylakeParameters = DEFAULT_PARAMETERS,
                   interarrival=None,
                   ) -> OpenLoopGenerator:
    """Assemble the Mutilate-style testbed client side.

    Args:
        sim: the run's simulator.
        streams: the run's random streams.
        client_config: hardware configuration of the client machines
            (LP or HP).
        service: the service under test (station or tiered service).
        qps: aggregate offered load in queries per second.
        num_requests: requests in this run.
        request_factory: per-request construction hook (sizes etc.).
        warmup_fraction: leading fraction of samples to discard.
        params: machine timing constants.
        interarrival: optional arrival process overriding the stock
            Poisson (exponential) process at *qps*.

    Returns:
        A started-but-not-run :class:`OpenLoopGenerator`.
    """
    machines = []
    for machine_index in range(MUTILATE_CLIENT_MACHINES):
        env = sample_env_scale(
            client_config, streams.get(f"client-env-{machine_index}"),
            params)
        for thread_index in range(MUTILATE_THREADS_PER_MACHINE):
            machines.append(ClientMachine(
                sim, client_config, time_sensitive=True,
                rng=streams.get(
                    f"client-{machine_index}-{thread_index}"),
                params=params,
                send_work_us=MUTILATE_SEND_WORK_US,
                recv_work_us=MUTILATE_RECV_WORK_US,
                name=f"mutilate-{machine_index}.{thread_index}",
                overhead_scale=env))
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
