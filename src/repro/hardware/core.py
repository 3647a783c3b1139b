"""A simulated CPU core that serializes event handling.

:class:`SimCore` is the composition point of the hardware model: it
combines the C-state governor, the frequency model, the uncore model
and the timer model under one core-occupancy timeline.  Workload
generators hand it "handle this event at time *t*, costing *w* us of
work at nominal frequency" and get back when the handling *finished* --
which is exactly the timestamp a point-of-measurement-in-generator
design records.

The finish time includes, in order:

1. queueing behind earlier events still being handled (a busy core),
2. C-state wake latency if the core was asleep,
3. a voltage/frequency ramp if the core woke from a deep state under a
   utilization-driven governor (legacy-DVFS transition, ~30 us [15]),
4. the uncore ramp penalty after long idle,
5. a thread wake / context switch if the event unblocks a thread,
6. a DVFS stall if the governor changed frequency at this boundary,
7. the work itself, scaled by the current core frequency.

A core created with ``polling=True`` models a busy-wait event loop
(the HDSearch client): it never sleeps, pays no wake or context-switch
costs, and its frequency governor sees 100% utilization.

Per-event accounting runs a few times per simulated request, so the
hot path (:meth:`SimCore.handle_event_finish_us`) returns only the
finish timestamp; :meth:`SimCore.handle_event` wraps the same
occupancy body in the full :class:`CoreOccupancy` record for tests
and diagnostics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.knobs import FrequencyGovernor, HardwareConfig
from repro.hardware.cstates import CStateGovernor
from repro.hardware.frequency import FrequencyModel
from repro.hardware.timer import TimerModel
from repro.hardware.uncore import UncoreModel
from repro.parameters import SkylakeParameters

#: Target residency at and beyond which a wake implies a voltage ramp.
_DEEP_SLEEP_RESIDENCY_US = 20.0


class CoreOccupancy:
    """Timeline record of one handled event.

    Attributes:
        arrival_us: when the event (packet, timer) arrived at the core.
        start_us: when the core actually began handling it.
        finish_us: when handling completed (the observable timestamp).
        wake_latency_us: C-state exit latency paid, if any.
        queue_wait_us: time spent waiting behind earlier events.
        work_us: actual execution time after frequency scaling.
        cstate: name of the C-state the core woke from.
        freq_ghz: core frequency during execution.
    """

    __slots__ = ("arrival_us", "start_us", "finish_us", "wake_latency_us",
                 "queue_wait_us", "work_us", "cstate", "freq_ghz")

    def __init__(self, arrival_us: float, start_us: float, finish_us: float,
                 wake_latency_us: float, queue_wait_us: float,
                 work_us: float, cstate: str, freq_ghz: float) -> None:
        self.arrival_us = arrival_us
        self.start_us = start_us
        self.finish_us = finish_us
        self.wake_latency_us = wake_latency_us
        self.queue_wait_us = queue_wait_us
        self.work_us = work_us
        self.cstate = cstate
        self.freq_ghz = freq_ghz

    @property
    def overhead_us(self) -> float:
        """Everything except the event's own work."""
        return (self.finish_us - self.arrival_us) - self.work_us

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoreOccupancy):
            return NotImplemented
        return (self.arrival_us == other.arrival_us
                and self.start_us == other.start_us
                and self.finish_us == other.finish_us
                and self.wake_latency_us == other.wake_latency_us
                and self.queue_wait_us == other.queue_wait_us
                and self.work_us == other.work_us
                and self.cstate == other.cstate
                and self.freq_ghz == other.freq_ghz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CoreOccupancy(arrival_us={self.arrival_us!r}, "
                f"start_us={self.start_us!r}, finish_us={self.finish_us!r}, "
                f"wake_latency_us={self.wake_latency_us!r}, "
                f"queue_wait_us={self.queue_wait_us!r}, "
                f"work_us={self.work_us!r}, cstate={self.cstate!r}, "
                f"freq_ghz={self.freq_ghz!r})")


class SimCore:
    """One core of a client or server machine.

    Events must be submitted in non-decreasing arrival order; the core
    maintains its own availability timeline and queues events that
    arrive while it is busy.

    Args:
        params: calibrated machine constants.
        config: the machine's hardware configuration.
        rng: random stream for governor prediction noise and timer
            slack; ``None`` makes the core fully deterministic.  A
            :class:`~repro.sim.sampling.Stream` is accepted anywhere
            a generator is.
        polling: model a busy-wait loop that never idles.
        overhead_scale: run-level multiplicative factor on all overhead
            components (uncontrolled environment state; sampled once
            per run by the testbed).
        cstate_latency_limit_us: menu-governor latency tolerance; see
            :class:`~repro.hardware.cstates.CStateGovernor`.
    """

    def __init__(self, params: SkylakeParameters, config: HardwareConfig,
                 rng: Optional[np.random.Generator] = None,
                 polling: bool = False,
                 overhead_scale: float = 1.0,
                 cstate_latency_limit_us: Optional[float] = None) -> None:
        if overhead_scale <= 0:
            raise ValueError(
                f"overhead_scale must be positive, got {overhead_scale}"
            )
        self._params = params
        self._config = config
        self._rng = rng
        self.polling = bool(polling)
        self.overhead_scale = float(overhead_scale)
        self.cstates = CStateGovernor(
            params, config, latency_limit_us=cstate_latency_limit_us)
        self.frequency = FrequencyModel(params, config)
        self.uncore = UncoreModel(params, config)
        self.timer = TimerModel(params, config)
        self._available_at = 0.0
        self._last_arrival = 0.0
        self.events_handled = 0
        self.total_busy_us = 0.0
        self.total_wake_us = 0.0
        # Per-event constants hoisted off the hot path.
        self._thread_wake_us = (params.poll_wake_us if config.idle_poll
                                else params.context_switch_us)
        self._nominal_ghz = params.nominal_freq_ghz
        self._wake_dvfs_ramp_us = params.wake_dvfs_ramp_us
        self._governor_ramps = (
            config.frequency_governor is not FrequencyGovernor.PERFORMANCE)

    # ------------------------------------------------------------------
    @property
    def available_at(self) -> float:
        """Simulated time at which the core next becomes free."""
        return self._available_at

    # ------------------------------------------------------------------
    def _occupy(self, arrival_us: float, work_us_nominal: float,
                wakes_thread: bool) -> tuple:
        """Handle one event: the body of :meth:`handle_event` and
        :meth:`handle_event_finish_us`.

        Returns ``(finish, start, queue_wait, wake_latency, work,
        state, freq)``; *state* is the C-state woken from, or None when
        the core polled or was busy.
        """
        if arrival_us < self._last_arrival - 1e-9:
            raise ValueError(
                f"event at {arrival_us} precedes earlier arrival "
                f"{self._last_arrival}"
            )
        self._last_arrival = arrival_us

        gap = self._available_at - arrival_us
        if gap > 0.0:
            queue_wait = gap
            idle_gap = 0.0
        else:
            queue_wait = 0.0
            idle_gap = -gap if gap < 0.0 else 0.0
        start = arrival_us + queue_wait

        wake_latency = 0.0
        dvfs_ramp = 0.0
        uncore_penalty = 0.0
        ctx = 0.0
        state = None

        frequency = self.frequency
        if self.polling:
            # A busy-wait loop burned the gap spinning: no sleep, no
            # wake path, and the governor sees the spin as busy time.
            if idle_gap > 0:
                frequency.account_busy(idle_gap)
        elif queue_wait == 0.0:
            wake_latency, state = self.cstates.wake_and_state(
                idle_gap, self._rng)
            if (wake_latency > 0.0
                    and state.target_residency_us >= _DEEP_SLEEP_RESIDENCY_US
                    and self._governor_ramps):
                dvfs_ramp = self._wake_dvfs_ramp_us
            uncore_penalty = self.uncore.wake_penalty_us(idle_gap)
            if wakes_thread:
                ctx = self._thread_wake_us

        freq, stall = frequency.evaluate_fast(start)
        if self.polling:
            # A busy-wait loop absorbs the transition while spinning;
            # it never lands on an event's observable path.
            stall = 0.0

        overhead = (wake_latency + dvfs_ramp + uncore_penalty + ctx
                    + stall) * self.overhead_scale
        work = work_us_nominal * (self._nominal_ghz / freq)
        finish = start + overhead + work

        busy = finish - start
        frequency.account_busy(busy)
        self.total_busy_us += busy
        self.total_wake_us += wake_latency
        self.events_handled += 1
        self._available_at = finish
        return finish, start, queue_wait, wake_latency, work, state, freq

    def handle_event_finish_us(self, arrival_us: float,
                               work_us_nominal: float,
                               wakes_thread: bool = True) -> float:
        """Handle an event; return only the finish timestamp.

        The request hot path: :meth:`handle_event` without the
        :class:`CoreOccupancy` record.
        """
        return self._occupy(arrival_us, work_us_nominal, wakes_thread)[0]

    def handle_event(self, arrival_us: float, work_us_nominal: float,
                     wakes_thread: bool = True) -> CoreOccupancy:
        """Handle an event arriving at *arrival_us*.

        Args:
            arrival_us: event arrival time; must not precede earlier
                arrivals (events may arrive while the core is busy).
            work_us_nominal: CPU work, calibrated at nominal frequency.
            wakes_thread: whether handling requires scheduling a blocked
                thread in (block-wait designs: yes; busy-wait: no).

        Returns:
            The :class:`CoreOccupancy` record, whose ``finish_us`` is
            the earliest time software could observe the event.
        """
        finish, start, queue_wait, wake, work, state, freq = self._occupy(
            arrival_us, work_us_nominal, wakes_thread)
        return CoreOccupancy(
            arrival_us=arrival_us,
            start_us=start,
            finish_us=finish,
            wake_latency_us=wake,
            queue_wait_us=queue_wait,
            work_us=work,
            cstate="C0" if state is None else state.name,
            freq_ghz=freq,
        )

    # ------------------------------------------------------------------
    def timed_sleep_until(self, target_us: float, now_us: float) -> float:
        """Return when a thread sleeping until *target_us* actually runs.

        Combines timer slack (late expiry) with run-level environment
        scaling.  Used by block-wait generators for their send timing.
        """
        if target_us < now_us:
            target_us = now_us
        overshoot = self.timer.sleep_overshoot_us(self._rng)
        return target_us + overshoot * self.overhead_scale

    def utilization(self, horizon_us: float) -> float:
        """Busy fraction over the first *horizon_us* of simulated time."""
        if horizon_us <= 0:
            return 0.0
        return min(1.0, self.total_busy_us / horizon_us)
