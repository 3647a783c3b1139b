"""A point-to-point network link with a lognormal latency distribution.

The test cluster is a handful of machines on one switch, so we model
the wire+switch path as a lognormal around a ~15 us one-way latency
(typical for the 10 GbE CloudLab fabric) with a small tail.  Per-byte
serialization cost is added for large messages (HDSearch feature
vectors, Social Network timelines).  A link's only draw is a standard
normal, so :func:`link_stream` block-serves the streams links share.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import InvalidValueError
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.sim.random import RandomStreams
from repro.sim.sampling import Stream, as_stream

#: Serialization cost per kilobyte at 10 GbE, in microseconds.
US_PER_KB_10GBE = 0.8


def link_stream(streams: RandomStreams, name: str) -> Stream:
    """The stream for the :class:`NetworkLink` objects drawing *name*.

    A link draws only standard normals, so the stream is block-served
    (``streams.stream(name, only="normal")``): the scalar draws' values
    in their order, at a C iterator step each.  Give it to links only.
    """
    return streams.stream(name, only="normal")


class NetworkLink:
    """One direction of a client<->server network path."""

    def __init__(self, params: SkylakeParameters = DEFAULT_PARAMETERS,
                 rng: Optional[np.random.Generator] = None,
                 mean_latency_us: Optional[float] = None) -> None:
        self._params = params
        self._mean = (params.network_one_way_us
                      if mean_latency_us is None else float(mean_latency_us))
        if not 0.0 < self._mean < math.inf:
            raise InvalidValueError(
                f"mean latency must be finite and positive, got {self._mean}"
            )
        self._sigma = params.network_sigma
        # lognormal(mu, sigma) has mean exp(mu + sigma^2/2).
        self._mu = math.log(self._mean) - 0.5 * self._sigma ** 2
        # Bind the stream's zero-argument standard-normal draw once.
        # A latency is exp(mu + sigma * z), numpy's own lognormal
        # expression, so each message pays one C sampler call.
        self._normal = None if rng is None else as_stream(rng).draw_normal
        #: optional :class:`~repro.obs.core.LinkObserver` (null-object
        #: contract: one None test per message when unobserved).
        self.observer = None

    @property
    def mean_latency_us(self) -> float:
        """Configured mean one-way latency."""
        return self._mean

    def sample_latency_us(self, message_kb: float = 0.0) -> float:
        """Sample the one-way latency of one message.

        Args:
            message_kb: payload size; adds serialization delay.
        """
        normal = self._normal
        base = (self._mean if normal is None
                else math.exp(self._mu + self._sigma * normal()))
        observer = self.observer
        if observer is not None:
            observer.messages += 1
            observer.kb += message_kb
        if message_kb > 0.0:
            return base + message_kb * US_PER_KB_10GBE
        return base
