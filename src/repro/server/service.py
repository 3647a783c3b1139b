"""Service-time models.

A :class:`ServiceModel` samples the CPU time one request needs on a
worker, calibrated at the server's nominal frequency.  Workloads build
their own models (Memcached from ETC value sizes, HDSearch from LSH
candidate counts); the generic shapes live here.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol

import numpy as np

from repro.errors import ConfigurationError


class ServiceModel(Protocol):
    """Protocol: sample per-request service demand in microseconds."""

    def sample_service_us(self, rng: Optional[np.random.Generator],
                          request=None) -> float:
        """Sample one request's service time at nominal frequency."""
        ...

    def mean_service_us(self) -> float:
        """The model's mean service time (for Little's-law sizing)."""
        ...


class FixedService:
    """Deterministic service time."""

    def __init__(self, service_us: float) -> None:
        if service_us < 0:
            raise ConfigurationError(
                f"service time must be >= 0, got {service_us}"
            )
        self._service_us = float(service_us)

    def sample_service_us(self, rng=None, request=None) -> float:
        return self._service_us

    def mean_service_us(self) -> float:
        return self._service_us


class ExponentialService:
    """Exponentially-distributed service time (an M/M/n station)."""

    def __init__(self, mean_us: float) -> None:
        if mean_us <= 0:
            raise ConfigurationError(
                f"mean service time must be positive, got {mean_us}"
            )
        self._mean_us = float(mean_us)

    def sample_service_us(self, rng=None, request=None) -> float:
        if rng is None:
            return self._mean_us
        # mean * std_exp is bit-identical to Generator.exponential(mean)
        # and calls numpy's C sampler when rng is a Stream (see
        # repro.sim.sampling).
        return self._mean_us * float(rng.standard_exponential())

    def mean_service_us(self) -> float:
        return self._mean_us


class LognormalService:
    """Lognormal service time: right-skewed, the common shape for
    request processing (hash lookups mostly fast, occasional slow
    path)."""

    def __init__(self, mean_us: float, sigma: float = 0.35) -> None:
        if mean_us <= 0:
            raise ConfigurationError(
                f"mean service time must be positive, got {mean_us}"
            )
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self._mean_us = float(mean_us)
        self._sigma = float(sigma)
        self._mu = math.log(self._mean_us) - 0.5 * self._sigma ** 2

    def sample_service_us(self, rng=None, request=None) -> float:
        if rng is None or self._sigma == 0:
            return self._mean_us
        # exp(mu + sigma * z) is bit-identical to
        # Generator.lognormal(mu, sigma) (same libm exp in-process),
        # and z is one C sampler call on a Stream.
        return math.exp(self._mu + self._sigma * float(rng.standard_normal()))

    def mean_service_us(self) -> float:
        return self._mean_us


class BimodalService:
    """Two-population service time (e.g. cache hit vs. miss)."""

    def __init__(self, fast_us: float, slow_us: float,
                 slow_fraction: float) -> None:
        if fast_us <= 0 or slow_us <= 0:
            raise ConfigurationError("service times must be positive")
        if not 0.0 <= slow_fraction <= 1.0:
            raise ConfigurationError(
                f"slow_fraction must be in [0, 1], got {slow_fraction}"
            )
        self._fast_us = float(fast_us)
        self._slow_us = float(slow_us)
        self._slow_fraction = float(slow_fraction)

    def sample_service_us(self, rng=None, request=None) -> float:
        if rng is None:
            return self.mean_service_us()
        if rng.random() < self._slow_fraction:
            return self._slow_us
        return self._fast_us

    def mean_service_us(self) -> float:
        return (self._fast_us * (1.0 - self._slow_fraction)
                + self._slow_us * self._slow_fraction)
