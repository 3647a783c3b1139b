"""Calibrated timing constants for the simulated Skylake-class testbed.

The paper runs on CloudLab c220g5 nodes: two Intel Xeon Silver 4114
(Skylake) sockets, 20 physical cores / 40 hardware threads, 0.8 GHz
minimum, 2.2 GHz nominal, 3.0 GHz max turbo.  This module is the single
source of truth for every latency constant the simulation uses, so that
calibration changes happen in exactly one place.

Values come from three sources, in order of preference: numbers quoted
in the paper itself (C-state transition 2--200 us, DVFS ~30 us, context
switch ~25 us), the Linux ``intel_idle`` driver's Skylake table, and
typical datacenter-network figures.  Where the paper quotes a range we
choose a point inside it and record the choice in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class CStateSpec:
    """Static description of one ACPI/intel_idle C-state.

    Attributes:
        name: canonical name, e.g. ``"C1E"``.
        exit_latency_us: time to wake a core back to C0.
        target_residency_us: minimum expected idle period for which the
            cpuidle governor considers entering this state worthwhile.
        power_relative: rough per-core power while resident, relative to
            active C0 power (1.0). Used only by power accounting.
    """

    name: str
    exit_latency_us: float
    target_residency_us: float
    power_relative: float


#: The Skylake server C-state table (mirrors intel_idle's skx_cstates).
SKYLAKE_CSTATES: Tuple[CStateSpec, ...] = (
    CStateSpec("C0", exit_latency_us=0.0, target_residency_us=0.0,
               power_relative=1.00),
    CStateSpec("C1", exit_latency_us=2.0, target_residency_us=2.0,
               power_relative=0.45),
    CStateSpec("C1E", exit_latency_us=10.0, target_residency_us=20.0,
               power_relative=0.30),
    CStateSpec("C6", exit_latency_us=133.0, target_residency_us=600.0,
               power_relative=0.05),
)


@dataclass(frozen=True)
class SkylakeParameters:
    """All calibrated constants for the simulated c220g5-like machine.

    Instances are immutable; experiments that want to explore a
    different machine build a modified copy with
    :func:`dataclasses.replace`.
    """

    # --- frequency domain ------------------------------------------------
    min_freq_ghz: float = 0.8
    nominal_freq_ghz: float = 2.2
    turbo_freq_ghz: float = 3.0
    #: Latency of a legacy DVFS transition (paper cites ~30 us [15]).
    dvfs_transition_us: float = 30.0
    #: Interval at which a utilization-driven governor re-evaluates.
    governor_interval_us: float = 10_000.0
    #: Utilization above which powersave-style governors ramp to max.
    governor_ramp_threshold: float = 0.80

    # --- idle / wake path -------------------------------------------------
    #: Cost of the kernel scheduling a blocked thread back in after an
    #: interrupt (paper quotes ~25 us end to end for the LP path; the
    #: bare context switch is smaller and the rest is wake/ramp, which
    #: we model separately).
    context_switch_us: float = 5.0
    #: Thread wake cost when the idle loop polls (``idle=poll``): the
    #: scheduler notices the wakeup immediately, no IPI/idle-exit path.
    poll_wake_us: float = 1.5
    #: Voltage/frequency ramp stall after waking from a package-level
    #: sleep (C1E or deeper) under a utilization-driven governor.  The
    #: paper attributes ~30 us to this legacy-DVFS transition [15].
    wake_dvfs_ramp_us: float = 30.0
    #: Extra timer slack applied to block-wait sleeps when the machine
    #: is not configured for high-resolution wakeups (non-tickless,
    #: powersave). Uniform in [0, sleep_slack_us].
    sleep_slack_us: float = 12.0

    # --- SMT ---------------------------------------------------------------
    #: Relative per-thread speed when both hyperthreads of a core are busy.
    smt_per_thread_speed: float = 0.65
    #: Constant service-time overhead when SMT is enabled (sharing of
    #: core frontend resources even when the sibling is idle).
    smt_enabled_overhead: float = 0.01
    #: Broad softirq pressure on an SMT-off server: every request pays
    #: ``utilization * run_intensity * smt_broad_us`` of extra service
    #: (network RX/TX processing stealing worker cycles).
    smt_broad_us: float = 2.0
    #: Probability *scale* that a request on an SMT-off server suffers
    #: a full preemption episode (multiplied by utilization).
    smt_off_interference_scale: float = 0.06
    #: Mean duration of one preemption episode.
    smt_interference_us: float = 8.0
    #: Run-level spread (lognormal sigma) of the interference intensity:
    #: how much softirq/OS pressure a given run happens to see.
    smt_interference_run_sigma: float = 0.4

    # --- uncore ------------------------------------------------------------
    #: Extra per-event memory/IO latency when uncore frequency scaling
    #: is dynamic and the uncore has clocked down during idle.
    uncore_dynamic_penalty_us: float = 1.5

    # --- network -----------------------------------------------------------
    #: One-way network latency between client and server machines.
    network_one_way_us: float = 15.0
    #: Lognormal sigma of the network latency distribution.
    network_sigma: float = 0.08

    # --- kernel/net stack --------------------------------------------------
    #: Kernel RX/TX stack cost per message at nominal frequency.
    kernel_stack_us: float = 2.0

    # --- uncontrolled run-to-run environment -------------------------------
    #: Run-level multiplicative spread (lognormal sigma) of client-side
    #: overheads on an *untuned* machine (governor/thermal/placement
    #: state the experimenter did not reset deterministically).
    env_sigma_untuned: float = 0.16
    #: The same spread on a tuned (HP-like) machine.
    env_sigma_tuned: float = 0.02
    #: Run-level spread of server-side service times.
    env_sigma_server: float = 0.012

    def cstate_table(self) -> Tuple[CStateSpec, ...]:
        """Return the machine's C-state table, ordered by ascending
        target residency (deepest last), as
        :class:`~repro.hardware.cstates.CStateGovernor` requires."""
        return SKYLAKE_CSTATES

    def freq_bounds(self) -> Tuple[float, float]:
        """Return (min, max-with-turbo) frequency in GHz."""
        return (self.min_freq_ghz, self.turbo_freq_ghz)


#: Default parameter set used by all presets unless overridden.
DEFAULT_PARAMETERS = SkylakeParameters()


def cstates_by_name() -> Dict[str, CStateSpec]:
    """Return a name -> spec mapping of the Skylake C-state table."""
    return {spec.name: spec for spec in SKYLAKE_CSTATES}
