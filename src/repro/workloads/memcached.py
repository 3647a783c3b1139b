"""Memcached testbed (paper Section IV-B).

A Memcached instance with 10 worker threads pinned on one socket,
driven by a Mutilate-style open-loop time-sensitive generator on four
client machines, replaying the Facebook ETC workload.  Server-side
processing averages ~10 us [4], [7], which is why this workload is the
paper's most client-sensitive one.
"""

from __future__ import annotations

from typing import List

from repro.config.knobs import HardwareConfig
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.server.service import LognormalService
from repro.server.station import ServiceStation
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.etc import EtcWorkload

#: Worker threads of the Memcached instance (paper Section IV-B).
MEMCACHED_WORKERS = 10
#: Mean application service time at nominal frequency, before the
#: kernel stack; end-to-end server-side processing is ~10 us [4].
#: Calibrated so the 10K-500K sweep covers the paper's 5%-55%
#: utilization range with 10 workers.
MEMCACHED_SERVICE_US = 6.0
MEMCACHED_SERVICE_SIGMA = 0.35
#: Request sizes the request factory draws per refill.
SIZE_BATCH = 256


class EtcServiceModel:
    """ETC-aware Memcached service time: lookup plus value transfer."""

    #: Extra service per KB of value copied out at nominal frequency.
    US_PER_KB = 0.25

    def __init__(self) -> None:
        # The ETC table only shapes request *sizes* (client side);
        # the service model reads the size off the request, so
        # replicated cluster stations need no ETC state of their own.
        self._base = LognormalService(
            MEMCACHED_SERVICE_US, MEMCACHED_SERVICE_SIGMA)

    def sample_service_us(self, rng=None, request: Request = None) -> float:
        size_kb = request.size_kb if request is not None else 0.125
        return (self._base.sample_service_us(rng)
                + size_kb * self.US_PER_KB)

    def mean_service_us(self) -> float:
        return MEMCACHED_SERVICE_US + 0.2 * self.US_PER_KB


def _memcached_service(sim: Simulator, streams: RandomStreams,
                       server_config: HardwareConfig,
                       params: SkylakeParameters = DEFAULT_PARAMETERS,
                       *, env_scale: float = 1.0,
                       name: str = "memcached",
                       stream_prefix: str = "") -> ServiceStation:
    """One Memcached server instance (a cluster-replicable group).

    ``stream_prefix`` namespaces the station's random stream so every
    cluster node draws independently; the empty prefix is the
    single-server testbed's exact historical stream name.
    """
    return ServiceStation(
        sim, server_config, EtcServiceModel(),
        workers=MEMCACHED_WORKERS,
        rng=streams.stream(stream_prefix + "service"),
        params=params,
        name=name,
        env_scale=env_scale,
    )


def _memcached_request_factory(streams: RandomStreams):
    """Request factory drawing ETC value sizes (client side, shared
    across all server nodes of a run).

    Sizes are drawn :data:`SIZE_BATCH` at a time and handed out in
    call order; the generator calls the factory in index order as each
    request launches.  Nothing else reads the ``etc`` stream, so
    neither drawing ahead nor building late changes any request's
    size.
    """
    etc = EtcWorkload(streams.get("etc"))
    pending: List[float] = []

    def request_factory(index: int) -> Request:
        if not pending:
            pending.extend(reversed(etc.sample_messages_kb(SIZE_BATCH)))
        return Request(index, pending.pop())

    return request_factory
