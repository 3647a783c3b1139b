"""C-state selection and wake-up latency (paper Section IV-C, "C-states").

When a core goes idle the cpuidle *menu*-style governor predicts the
idle period and picks the deepest enabled C-state whose target
residency fits the prediction.  Waking from that state costs its exit
latency, which lands directly on the measurement path of a block-wait
workload generator: the response is in the NIC, but the generator
cannot timestamp it until the core is back in C0.

The paper quotes 2 us - 200 us for this transition; our Skylake table
(C1 2 us, C1E 10 us, C6 133 us) sits inside that range.

The selection rule -- the deepest state whose target residency is at
most the predicted idle period, the shallowest when none is -- is one
``bisect_right`` over the ascending residencies, here and in the fused
kernel (:mod:`repro.sim.kernel`) alike.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.config.knobs import HardwareConfig
from repro.errors import ConfigurationError
from repro.parameters import CStateSpec, SkylakeParameters


class IdleDecision:
    """Outcome of one idle period.

    Attributes:
        state: the C-state the core slept in.
        wake_latency_us: exit latency paid on the wake-up path.
        residency_us: how long the core was resident in the state.
    """

    __slots__ = ("state", "wake_latency_us", "residency_us")

    def __init__(self, state: CStateSpec, wake_latency_us: float,
                 residency_us: float) -> None:
        self.state = state
        self.wake_latency_us = wake_latency_us
        self.residency_us = residency_us

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdleDecision):
            return NotImplemented
        return (self.state == other.state
                and self.wake_latency_us == other.wake_latency_us
                and self.residency_us == other.residency_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IdleDecision(state={self.state!r}, "
                f"wake_latency_us={self.wake_latency_us!r}, "
                f"residency_us={self.residency_us!r})")


class CStateGovernor:
    """Menu-governor-like C-state selection for a simulated core.

    The real menu governor predicts idle length from recent history and
    can mispredict.  We model that by perturbing the actual gap with a
    small multiplicative error before the table lookup, which produces
    the occasional too-deep/too-shallow pick that contributes to LP
    run-to-run variability.

    ``latency_limit_us`` models menu's latency-tolerance heuristics
    (the performance multiplier and IO-wait correction, plus PM-QoS
    requests from busy NIC interrupt sources): cores running network
    event loops are effectively kept out of states whose exit latency
    exceeds the tolerance, even during long gaps.
    """

    #: Std-dev of the multiplicative prediction error.
    PREDICTION_NOISE = 0.25

    def __init__(self, params: SkylakeParameters,
                 config: HardwareConfig,
                 latency_limit_us: Optional[float] = None) -> None:
        self._params = params
        self._config = config
        table = [
            spec for spec in params.cstate_table()
            if spec.name in config.enabled_cstates
            and (latency_limit_us is None
                 or spec.exit_latency_us <= latency_limit_us)
        ]
        if not table:
            # The limit excluded everything but C0 must always remain.
            table = [params.cstate_table()[0]]
        residencies = tuple(spec.target_residency_us for spec in table)
        if list(residencies) != sorted(residencies):
            raise ConfigurationError(
                f"C-state table must be ordered by ascending target "
                f"residency (deepest last), got {residencies}")
        self._enabled: Sequence[CStateSpec] = tuple(table)
        self._poll = config.idle_poll
        self._c0 = params.cstate_table()[0]
        #: The enabled states' target residencies, ascending.
        self._residencies: Tuple[float, ...] = residencies
        #: ``_states[bisect_right(_residencies, predicted)]`` is the
        #: chosen state: entry *i* is the deepest of the first *i*
        #: states, and entry 0 repeats the shallowest (a prediction
        #: below every residency).
        self._states: Tuple[CStateSpec, ...] = (table[0],) + tuple(table)
        #: Tick period that bounds sleep depth on non-tickless kernels.
        self._tick_limit_us: Optional[float] = (
            None if config.tickless else 4_000.0)

    @property
    def enabled_states(self) -> Sequence[CStateSpec]:
        """The C-states this governor may select, shallowest first."""
        return self._enabled

    def wake_and_state(self, idle_gap_us: float,
                       rng=None) -> Tuple[float, CStateSpec]:
        """Hot-path form of :meth:`select`: no decision record.

        Returns ``(wake_latency_us, state)`` for an idle period of
        *idle_gap_us*.  Same draw sequence and float arithmetic as
        :meth:`select` -- the two are interchangeable per call.
        """
        if idle_gap_us < 0:
            idle_gap_us = 0.0
        if self._poll:
            return (0.0, self._c0)

        predicted = idle_gap_us
        if rng is not None and idle_gap_us > 0:
            # loc + scale * z matches Generator.normal(loc, scale)
            # bit-for-bit while skipping its kwargs dispatch; rng may
            # be a Generator or a Stream.
            noise = 1.0 + self.PREDICTION_NOISE * rng.standard_normal()
            if noise < 0.0:
                noise = 0.0
            predicted = idle_gap_us * noise
        tick_limit = self._tick_limit_us
        if tick_limit is not None and predicted > tick_limit:
            predicted = tick_limit

        chosen = self._states[bisect_right(self._residencies, predicted)]
        # A core cannot pay more wake latency than it slept: if the gap
        # ends before the entry completes the exit is proportionally
        # cheaper (entry aborted early).
        wake = chosen.exit_latency_us
        if wake > idle_gap_us:
            wake = idle_gap_us
        return (wake, chosen)

    def select(self, idle_gap_us: float,
               rng: Optional[np.random.Generator] = None) -> IdleDecision:
        """Decide the sleep state for an idle period of *idle_gap_us*.

        Args:
            idle_gap_us: the actual length of the idle period.
            rng: optional generator for prediction noise; without it the
                prediction is exact (useful for deterministic tests).

        Returns:
            The :class:`IdleDecision` including the wake latency the
            next event must absorb.
        """
        if idle_gap_us < 0:
            idle_gap_us = 0.0
        wake, chosen = self.wake_and_state(idle_gap_us, rng)
        return IdleDecision(chosen, wake, idle_gap_us)
