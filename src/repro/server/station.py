"""A service station: worker threads with server-side hardware effects.

:class:`ServiceStation` is the simulated counterpart of "a memcached
instance with 10 worker threads pinned on a single socket".  It wraps a
:class:`~repro.sim.resources.ServerPool` and applies, per request:

* the sampled application service time (from a
  :class:`~repro.server.service.ServiceModel`),
* kernel RX/TX stack cost,
* frequency scaling from the server's CPUFreq configuration,
* the SMT knob: constant sharing overhead when enabled, stochastic
  softirq interference when disabled (see :mod:`repro.hardware.smt`),
* the C-states knob: a worker whose core idled long enough to enter a
  sleep state pays its exit latency before serving (the Fig. 3 C1E
  mechanism).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.config.knobs import FrequencyGovernor, HardwareConfig
from repro.config.validate import validate_config
from repro.hardware.cstates import CStateGovernor
from repro.hardware.smt import SmtModel
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.server.service import ServiceModel
from repro.sim.engine import Simulator
from repro.sim.resources import ServerPool
from repro.sim.sampling import as_stream
from repro.units import work_cycles_us


class ServiceStation:
    """One tier of a service: *n* workers draining a shared queue."""

    def __init__(self, sim: Simulator, config: HardwareConfig,
                 service_model: ServiceModel, workers: int,
                 rng: Optional[np.random.Generator] = None,
                 params: SkylakeParameters = DEFAULT_PARAMETERS,
                 name: str = "service",
                 env_scale: float = 1.0) -> None:
        if env_scale <= 0:
            raise ValueError(f"env_scale must be positive, got {env_scale}")
        self._sim = sim
        self.name = str(name)
        self.config = validate_config(config)
        self.service_model = service_model
        self.params = params
        # All of the station's stochastic effects (service times, SMT
        # interference, C-state wake prediction) draw through one
        # Stream over the provided generator: the generator's exact
        # scalar sequence, each draw one call into numpy's C samplers.
        self._rng = as_stream(rng)
        self._env_scale = float(env_scale)
        self._pool = ServerPool(sim, workers)
        self._cstates = CStateGovernor(params, config)
        run_intensity = 1.0
        if self._rng is not None and params.smt_interference_run_sigma > 0:
            run_intensity = float(
                self._rng.lognormal(0.0, params.smt_interference_run_sigma))
        self._smt = SmtModel(params, config.smt,
                             run_intensity=run_intensity)
        self._freq_ghz = self._static_frequency()
        # Per-request constants hoisted off the hot path.
        self._smt_factor = self._smt.service_time_factor()
        self._kernel_stack_us = params.kernel_stack_us
        self._freq_scale = params.nominal_freq_ghz / self._freq_ghz
        # Observability (null-object contract): cache the tracer once
        # so submit() pays a single None test when tracing is off.
        obs = getattr(sim, "obs", None)
        self._trace = obs.tracer if obs is not None else None
        if obs is not None:
            obs.on_station(self)
        # Accelerated-kernel handshake (see repro.sim.kernel).
        adopt = getattr(sim, "adopt_station", None)
        if adopt is not None:
            adopt(self)

    # ------------------------------------------------------------------
    def _static_frequency(self) -> float:
        """Server cores run at a fixed frequency under the baseline.

        The paper's server baseline pins ``performance`` with turbo
        off, so workers run at a constant clock; we evaluate the
        governor once instead of tracking per-worker utilization.
        """
        governor = self.config.frequency_governor
        if governor is FrequencyGovernor.PERFORMANCE:
            return (self.params.turbo_freq_ghz if self.config.turbo
                    else self.params.nominal_freq_ghz)
        return self.params.min_freq_ghz

    @property
    def workers(self) -> int:
        """Number of worker threads."""
        return self._pool.num_servers

    @property
    def frequency_ghz(self) -> float:
        """The static worker frequency in effect."""
        return self._freq_ghz

    def utilization(self) -> float:
        """Time-averaged worker utilization since creation."""
        return self._pool.utilization()

    @property
    def completed(self) -> int:
        """Requests fully served so far."""
        return self._pool.jobs_completed

    # ------------------------------------------------------------------
    def expected_service_us(self) -> float:
        """Mean per-request occupancy (for load/utilization sizing)."""
        base = (self.service_model.mean_service_us()
                + self.params.kernel_stack_us)
        base *= self._smt.service_time_factor()
        return work_cycles_us(
            base, self.params.nominal_freq_ghz, self._freq_ghz)

    def _sample_occupancy_us(self, request: Request,
                             idle_gap_us: float) -> float:
        """Total worker occupancy for one request, including knobs."""
        # busy_servers includes the worker picking this job up; the
        # interference a request suffers comes from the *other* work
        # on the machine.
        rng = self._rng
        pool = self._pool
        utilization = max(0, pool.busy_servers - 1) / pool.num_servers
        base = self.service_model.sample_service_us(rng, request)
        base = (base + self._kernel_stack_us) * self._env_scale
        base *= self._smt_factor
        base += self._smt.interference_us(utilization, rng)
        # Same float expression as work_cycles_us(base, nominal, freq)
        # with the nominal/freq ratio precomputed once: the station's
        # worker frequency is static for the whole run.
        scaled = base * self._freq_scale
        wake, _ = self._cstates.wake_and_state(idle_gap_us, rng)
        return scaled + wake

    def _service_time(self, job: Request, server_index: int,
                      idle_gap_us: float) -> float:
        """Pool callback: sample and account one request's occupancy.

        A bound method rather than a per-submit closure -- one less
        allocation per request on the hot path.
        """
        occupancy = self._sample_occupancy_us(job, idle_gap_us)
        job.service_us += occupancy
        return occupancy

    # ------------------------------------------------------------------
    def submit(self, request: Request,
               done_fn: Callable[..., None], *ctx: Any) -> None:
        """Accept *request* now; call ``done_fn(request, *ctx)`` on
        departure.

        Sets ``server_arrival_us`` (first tier only), accumulates
        ``queue_wait_us``/``service_us`` and stamps
        ``server_departure_us``.  Extra positional context keeps the
        caller's completion callback a stable bound method -- the
        accelerated kernel dispatches on callback identity.
        """
        if request.server_arrival_us == 0.0:
            request.server_arrival_us = self._sim.now

        trace = self._trace
        if trace is None:
            # Untraced hot path: no per-request closure; the pool
            # carries the downstream callback as data.
            self._pool.submit(request, self._service_time,
                              self._pool_done, done_fn, ctx)
            return
        else:
            # Traced variant: derive the queue/service spans from the
            # timestamps the pool already reports.  Submission time is
            # the enqueue time, so [t_submit, t_submit + waited] is
            # the wait and [t_submit + waited, now] the occupancy --
            # no extra events, no random draws.
            t_submit = self._sim.now
            name = self.name

            def pool_done(job: Request, waited_us: float) -> None:
                job.queue_wait_us += waited_us
                now = self._sim.now
                job.server_departure_us = now
                started = t_submit + waited_us
                if waited_us > 0.0:
                    trace.span("queue", t_submit, started,
                               job.request_id, name)
                trace.span("service", started, now,
                           job.request_id, name)
                done_fn(job, *ctx)

        self._pool.submit(request, self._service_time, pool_done)

    def _pool_done(self, job: Request, waited_us: float,
                   done_fn: Callable[..., None], ctx: tuple = ()) -> None:
        """Untraced departure accounting (stable bound method)."""
        job.queue_wait_us += waited_us
        job.server_departure_us = self._sim.now
        done_fn(job, *ctx)
