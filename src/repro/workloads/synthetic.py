"""The synthetic tunable-latency workload (paper Section IV-B).

A service whose processing time can be extended by a configurable
busy-wait delay, used for the sensitivity analysis of Fig. 7: as the
added delay grows from 0 to 400 us, the client-configuration gap
(LP/HP) should shrink from ~2.8x toward ~1x.  The added delay is
implemented as busy work -- it occupies the worker (service time, not
sleep time), exactly as the paper specifies.
"""

from __future__ import annotations


from repro.config.knobs import HardwareConfig
from repro.errors import ConfigurationError
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.server.service import LognormalService
from repro.server.station import ServiceStation
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: Worker threads (10, pinned on a single socket -- Section IV-B).
SYNTHETIC_WORKERS = 10
#: Base processing before the tunable delay.
SYNTHETIC_BASE_US = 10.0
SYNTHETIC_SIGMA = 0.30
#: Request/response payload.
SYNTHETIC_MESSAGE_KB = 0.125


class DelayedService:
    """Base service time extended by a fixed busy-wait delay."""

    def __init__(self, added_delay_us: float) -> None:
        if added_delay_us < 0:
            raise ConfigurationError(
                f"added delay must be >= 0, got {added_delay_us}"
            )
        self.added_delay_us = float(added_delay_us)
        self._base = LognormalService(SYNTHETIC_BASE_US, SYNTHETIC_SIGMA)

    def sample_service_us(self, rng=None, request: Request = None) -> float:
        return self._base.sample_service_us(rng) + self.added_delay_us

    def mean_service_us(self) -> float:
        return SYNTHETIC_BASE_US + self.added_delay_us


def _synthetic_service(sim: Simulator, streams: RandomStreams,
                       server_config: HardwareConfig,
                       params: SkylakeParameters = DEFAULT_PARAMETERS,
                       *, env_scale: float = 1.0,
                       name: str = "synthetic",
                       stream_prefix: str = "",
                       added_delay_us: float = 0.0) -> ServiceStation:
    """One synthetic-workload server instance (a replicable group)."""
    return ServiceStation(
        sim, server_config, DelayedService(added_delay_us),
        workers=SYNTHETIC_WORKERS,
        rng=streams.stream(stream_prefix + "service"),
        params=params,
        name=name,
        env_scale=env_scale,
    )


def _synthetic_request_factory(streams: RandomStreams):
    def request_factory(index: int) -> Request:
        return Request(request_id=index, size_kb=SYNTHETIC_MESSAGE_KB)

    return request_factory
