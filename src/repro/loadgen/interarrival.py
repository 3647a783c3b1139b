"""Inter-arrival time processes for open-loop generators.

The *load intensity* of a workload generator is its inter-arrival
distribution (Section II).  Mutilate and wrk2 default to exponential
inter-arrivals (a Poisson process); deterministic and lognormal
processes are provided for the generator-design ablations.

Arrival schedules are drawn as whole vectors (:meth:`sample_train_us`):
one block draw replaces tens of thousands of scalar generator calls
when an open-loop train is constructed, and numpy block draws are
bit-identical to the equivalent scalar sequence (see
:mod:`repro.sim.sampling`).  :meth:`sample_us` remains as the
single-draw path for closed-loop think-time-style consumers and tests.

Time-varying load is modelled by **nonhomogeneous** Poisson processes
(:class:`DiurnalInterarrival`, :class:`FlashCrowdInterarrival`) drawn
via Lewis-Shedler thinning, and by :class:`TraceReplayInterarrival`,
which replays a recorded timestamp trace.  The thinning draw protocol
is chunked so the vector path stays bit-identical to a scalar
reference: each round draws the *remaining-needed* candidate gaps and
acceptance uniforms as two whole vectors, then accepts the round's
candidates with array arithmetic that equals a per-candidate scan --
the number of draws per round depends only on how many arrivals were
still missing at round start, which is itself deterministic.

:class:`ArrivalSpec` is the plan-level description of an arrival
shape: frozen, validated data with an exact round-trip, carried by
:class:`~repro.api.specs.LoadSpec` (and omitted from the serialized
form when it names the default Poisson process, so every pre-existing
plan hash and store key is unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Protocol

import numpy as np

from repro.errors import ConfigurationError, SpecValidationError
from repro.units import qps_to_interarrival_us


class InterarrivalProcess(Protocol):
    """Protocol: sample gaps to upcoming requests, in microseconds."""

    def sample_us(self, rng: Optional[np.random.Generator]) -> float:
        """Sample one inter-arrival gap."""
        ...

    def sample_train_us(self, rng: Optional[np.random.Generator],
                        size: int) -> np.ndarray:
        """Sample *size* consecutive gaps as one vector."""
        ...

    def mean_us(self) -> float:
        """Mean gap (i.e. 1e6 / QPS)."""
        ...


class _RateBased:
    """Shared QPS plumbing for concrete processes."""

    def __init__(self, qps: float) -> None:
        self._mean_us = qps_to_interarrival_us(qps)
        self._qps = float(qps)

    @property
    def qps(self) -> float:
        """The configured request rate."""
        return self._qps

    def mean_us(self) -> float:
        return self._mean_us


class ExponentialInterarrival(_RateBased):
    """Poisson arrivals: exponential gaps with mean ``1e6/qps``."""

    def sample_us(self, rng=None) -> float:
        if rng is None:
            return self._mean_us
        return self._mean_us * float(rng.standard_exponential())

    def sample_train_us(self, rng=None, size: int = 1) -> np.ndarray:
        if rng is None:
            return np.full(size, self._mean_us)
        # scale * standard_exponential(size) is bit-identical to size
        # scalar Generator.exponential(scale) calls.
        return rng.standard_exponential(size) * self._mean_us


class DeterministicInterarrival(_RateBased):
    """Perfectly paced arrivals (a rate limiter with no jitter)."""

    def sample_us(self, rng=None) -> float:
        return self._mean_us

    def sample_train_us(self, rng=None, size: int = 1) -> np.ndarray:
        return np.full(size, self._mean_us)


class LognormalInterarrival(_RateBased):
    """Bursty arrivals: lognormal gaps with configurable sigma."""

    def __init__(self, qps: float, sigma: float = 1.0) -> None:
        super().__init__(qps)
        if not 0.0 <= sigma < math.inf:
            raise ConfigurationError(
                f"sigma must be finite and >= 0, got {sigma}")
        self._sigma = float(sigma)
        self._mu = math.log(self._mean_us) - 0.5 * self._sigma ** 2

    def sample_us(self, rng=None) -> float:
        if rng is None or self._sigma == 0:
            return self._mean_us
        return float(rng.lognormal(self._mu, self._sigma))

    def sample_train_us(self, rng=None, size: int = 1) -> np.ndarray:
        if rng is None or self._sigma == 0:
            return np.full(size, self._mean_us)
        return np.asarray(rng.lognormal(self._mu, self._sigma, size))


# --------------------------------------------------- nonhomogeneous load
class _ThinnedInterarrival(_RateBased):
    """Nonhomogeneous Poisson arrivals via Lewis-Shedler thinning.

    Candidate arrivals are drawn from a homogeneous process at the
    peak rate and accepted with probability ``rate(t) / peak_rate``.
    The draw protocol is chunked (see the module docstring): every
    round consumes exactly ``remaining`` candidate gaps and
    ``remaining`` acceptance uniforms, so the vector path and a
    scalar-draw reference consume the same underlying stream
    bit-for-bit.

    :meth:`sample_train_us` synthesises a round at a time: the
    candidate clock is one sequential ``np.cumsum`` (the running
    ``t += gap`` of a per-candidate loop, addition for addition), the
    rates one :meth:`_rates` array, and acceptance one array
    comparison.  Only ``+``, ``-``, ``*`` and comparisons run as
    numpy array arithmetic, which IEEE-754 rounds exactly as scalar
    floats; the rate function's transcendentals are always scalar
    :mod:`math` calls -- never a numpy array ufunc, whose SIMD loops
    may differ from the scalar libm by an ULP.
    """

    def __init__(self, qps: float, peak_qps: float) -> None:
        super().__init__(qps)
        self._peak_qps = float(peak_qps)
        self._peak_mean_us = qps_to_interarrival_us(peak_qps)
        #: absolute clock of the scalar :meth:`sample_us` path only;
        #: :meth:`sample_train_us` always starts its train at t=0.
        self._clock_us = 0.0

    def _rate_qps(self, t_us: float) -> float:
        """Instantaneous rate at absolute train time *t_us*."""
        raise NotImplementedError

    def _rates(self, clock_us: np.ndarray) -> np.ndarray:
        """:meth:`_rate_qps` at every time of *clock_us*, value for
        value."""
        raise NotImplementedError

    def sample_train_us(self, rng=None, size: int = 1) -> np.ndarray:
        if rng is None:
            return np.full(size, self._mean_us)
        gaps = np.empty(size)
        peak = self._peak_qps
        peak_mean = self._peak_mean_us
        t = 0.0
        last = 0.0
        count = 0
        while count < size:
            need = size - count
            # [t, gap_0, gap_1, ...] summed in order: the clock after
            # each candidate, as a per-candidate loop advances it.
            steps = np.empty(need + 1)
            steps[0] = t
            np.multiply(rng.standard_exponential(need), peak_mean,
                        out=steps[1:])
            clock = np.cumsum(steps)[1:]
            accepted = clock[rng.random(need) * peak <= self._rates(clock)]
            if len(accepted):
                gaps[count:count + len(accepted)] = np.diff(
                    accepted, prepend=last)
                last = accepted[-1]
                count += len(accepted)
            t = clock[-1]
        return gaps

    def sample_us(self, rng=None) -> float:
        if rng is None:
            return self._mean_us
        t = self._clock_us
        while True:
            t += self._peak_mean_us * float(rng.standard_exponential())
            if float(rng.random()) * self._peak_qps <= self._rate_qps(t):
                gap = t - self._clock_us
                self._clock_us = t
                return gap


class DiurnalInterarrival(_ThinnedInterarrival):
    """Sinusoidal-rate arrivals: the day/night load cycle.

    ``rate(t) = qps * (1 + amplitude * sin(2*pi*(t + phase)/period))``
    -- the time-averaged rate equals the configured ``qps``, the peak
    is ``qps * (1 + amplitude)``.
    """

    def __init__(self, qps: float, period_us: float,
                 amplitude: float = 0.5, phase_us: float = 0.0) -> None:
        if not 0.0 < period_us < math.inf:
            raise ConfigurationError(
                f"diurnal period_us must be finite and > 0, "
                f"got {period_us}")
        if not 0.0 <= amplitude <= 1.0:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0, 1], got {amplitude}")
        if not -math.inf < phase_us < math.inf:
            raise ConfigurationError(
                f"diurnal phase_us must be finite, got {phase_us}")
        super().__init__(qps, qps * (1.0 + float(amplitude)))
        self._period_us = float(period_us)
        self._amplitude = float(amplitude)
        self._phase_us = float(phase_us)
        self._omega = 2.0 * math.pi / self._period_us

    def _rate_qps(self, t_us: float) -> float:
        return self._qps * (1.0 + self._amplitude * math.sin(
            self._omega * (t_us + self._phase_us)))

    def _rates(self, clock_us: np.ndarray) -> np.ndarray:
        # _rate_qps term by term; only sin is mapped, as libm's.
        phases = (self._omega * (clock_us + self._phase_us)).tolist()
        return self._qps * (1.0 + self._amplitude * np.array(
            list(map(math.sin, phases))))


class FlashCrowdInterarrival(_ThinnedInterarrival):
    """Piecewise-constant spike: base rate with one flash crowd.

    The rate is ``qps * spike_factor`` inside
    ``[spike_start_us, spike_start_us + spike_duration_us)`` and
    ``qps`` everywhere else.  ``mean_us()`` reports the off-spike
    (base) gap.
    """

    def __init__(self, qps: float, spike_start_us: float,
                 spike_duration_us: float,
                 spike_factor: float = 4.0) -> None:
        if not 0.0 <= spike_start_us < math.inf:
            raise ConfigurationError(
                f"spike_start_us must be finite and >= 0, "
                f"got {spike_start_us}")
        if not 0.0 < spike_duration_us < math.inf:
            raise ConfigurationError(
                f"spike_duration_us must be finite and > 0, "
                f"got {spike_duration_us}")
        if not 1.0 <= spike_factor < math.inf:
            raise ConfigurationError(
                f"spike_factor must be finite and >= 1, "
                f"got {spike_factor}")
        super().__init__(qps, qps * float(spike_factor))
        self._spike_start_us = float(spike_start_us)
        self._spike_end_us = float(spike_start_us) + float(
            spike_duration_us)
        self._spike_factor = float(spike_factor)

    def _rate_qps(self, t_us: float) -> float:
        if self._spike_start_us <= t_us < self._spike_end_us:
            return self._qps * self._spike_factor
        return self._qps

    def _rates(self, clock_us: np.ndarray) -> np.ndarray:
        spike = ((self._spike_start_us <= clock_us)
                 & (clock_us < self._spike_end_us))
        return np.where(spike, self._qps * self._spike_factor, self._qps)


class TraceReplayInterarrival:
    """Deterministic replay of a recorded arrival-timestamp trace.

    Args:
        timestamps_us: non-decreasing absolute arrival times in
            microseconds; the first gap is the first timestamp (the
            trace starts at t=0).
        qps: optional target rate; when given, all gaps are rescaled
            so the trace's mean rate matches it (the way a plan's
            ``qps`` stays meaningful under trace replay).
    """

    def __init__(self, timestamps_us: Iterable[float],
                 qps: Optional[float] = None) -> None:
        times = np.asarray([float(t) for t in timestamps_us])
        if times.size == 0:
            raise ConfigurationError("arrival trace is empty")
        if not np.isfinite(times).all():
            raise ConfigurationError(
                "trace timestamps must be finite, got "
                f"{times[~np.isfinite(times)][0]}")
        if times[0] < 0:
            raise ConfigurationError(
                f"trace timestamps must be >= 0, got {times[0]}")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ConfigurationError(
                "trace timestamps must be non-decreasing")
        gaps = np.diff(times, prepend=0.0)
        if qps is not None:
            if not 0.0 < qps < math.inf:
                raise ConfigurationError(
                    f"qps must be finite and > 0, got {qps}")
            mean_gap = float(gaps.mean())
            if mean_gap <= 0:
                raise ConfigurationError(
                    "trace spans zero time; cannot rescale to a "
                    "target qps")
            gaps = gaps * (qps_to_interarrival_us(qps) / mean_gap)
        self._gaps = gaps
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str,
                  qps: Optional[float] = None
                  ) -> "TraceReplayInterarrival":
        """Parse one timestamp (microseconds) per line; ``#``
        comments and blank lines are skipped."""
        timestamps = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    timestamps.append(float(text))
                except ValueError:
                    raise ConfigurationError(
                        f"{path}:{lineno}: not a timestamp: "
                        f"{text!r}") from None
        if not timestamps:
            raise ConfigurationError(
                f"{path}: no timestamps found")
        return cls(timestamps, qps=qps)

    def __len__(self) -> int:
        return int(self._gaps.size)

    def mean_us(self) -> float:
        return float(self._gaps.mean())

    @property
    def qps(self) -> float:
        """The trace's mean request rate."""
        return 1e6 / self.mean_us()

    def sample_us(self, rng=None) -> float:
        if self._cursor >= self._gaps.size:
            raise ConfigurationError(
                f"arrival trace exhausted after {self._gaps.size} "
                f"arrivals")
        gap = float(self._gaps[self._cursor])
        self._cursor += 1
        return gap

    def sample_train_us(self, rng=None, size: int = 1) -> np.ndarray:
        if size > self._gaps.size:
            raise ConfigurationError(
                f"arrival trace holds {self._gaps.size} arrivals; "
                f"{size} requested")
        return self._gaps[:size].copy()


# ------------------------------------------------------------ ArrivalSpec
ARRIVAL_POISSON = "poisson"
ARRIVAL_DIURNAL = "diurnal"
ARRIVAL_FLASH_CROWD = "flash-crowd"
ARRIVAL_TRACE = "trace"

ARRIVAL_SHAPES = (ARRIVAL_POISSON, ARRIVAL_DIURNAL,
                  ARRIVAL_FLASH_CROWD, ARRIVAL_TRACE)

_ARRIVAL_FIELDS = ("shape", "period_us", "amplitude", "phase_us",
                   "spike_start_us", "spike_duration_us",
                   "spike_factor", "path")


@dataclass(frozen=True)
class ArrivalSpec:
    """The arrival-shape half of a load spec, as frozen data.

    Every field beyond ``shape`` belongs to exactly one shape and
    must be left at its default for the others, so a spec's dict form
    (which omits defaults) is canonical and two specs describing the
    same process always hash identically.

    Attributes:
        shape: one of :data:`ARRIVAL_SHAPES`.
        period_us: diurnal cycle length.
        amplitude: diurnal rate swing, in [0, 1].
        phase_us: diurnal phase offset.
        spike_start_us: flash-crowd onset.
        spike_duration_us: flash-crowd length.
        spike_factor: flash-crowd rate multiplier (>= 1).
        path: trace-replay timestamp file.
    """

    shape: str = ARRIVAL_POISSON
    period_us: float = 0.0
    amplitude: float = 0.0
    phase_us: float = 0.0
    spike_start_us: float = 0.0
    spike_duration_us: float = 0.0
    spike_factor: float = 0.0
    path: str = ""

    def __post_init__(self) -> None:
        shape = str(self.shape)
        if shape not in ARRIVAL_SHAPES:
            import difflib
            close = difflib.get_close_matches(
                shape, list(ARRIVAL_SHAPES), n=1)
            hint = f" -- did you mean {close[0]!r}?" if close else ""
            raise SpecValidationError(
                f"unknown arrival shape {shape!r}; valid shapes: "
                f"{', '.join(ARRIVAL_SHAPES)}{hint}")
        object.__setattr__(self, "shape", shape)
        for name in ("period_us", "amplitude", "phase_us",
                     "spike_start_us", "spike_duration_us",
                     "spike_factor"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "path", str(self.path))
        self._require(shape == ARRIVAL_DIURNAL,
                      ("period_us", "amplitude", "phase_us"))
        self._require(shape == ARRIVAL_FLASH_CROWD,
                      ("spike_start_us", "spike_duration_us",
                       "spike_factor"))
        self._require(shape == ARRIVAL_TRACE, ("path",))
        if shape == ARRIVAL_DIURNAL:
            if not 0.0 < self.period_us < math.inf:
                raise SpecValidationError(
                    f"diurnal arrivals need a finite period_us > 0, "
                    f"got {self.period_us}")
            if not 0.0 <= self.amplitude <= 1.0:
                raise SpecValidationError(
                    f"diurnal amplitude must be in [0, 1], "
                    f"got {self.amplitude}")
            if not math.isfinite(self.phase_us):
                raise SpecValidationError(
                    f"diurnal phase_us must be finite, "
                    f"got {self.phase_us}")
        elif shape == ARRIVAL_FLASH_CROWD:
            if not 0.0 < self.spike_duration_us < math.inf:
                raise SpecValidationError(
                    f"flash-crowd arrivals need a finite "
                    f"spike_duration_us > 0, "
                    f"got {self.spike_duration_us}")
            if not 1.0 <= self.spike_factor < math.inf:
                raise SpecValidationError(
                    f"flash-crowd spike_factor must be finite and "
                    f">= 1, got {self.spike_factor}")
            if not 0.0 <= self.spike_start_us < math.inf:
                raise SpecValidationError(
                    f"spike_start_us must be finite and >= 0, "
                    f"got {self.spike_start_us}")
        elif shape == ARRIVAL_TRACE and not self.path:
            raise SpecValidationError(
                "trace arrivals need a timestamp file path")

    def _require(self, owned: bool, names: tuple) -> None:
        """Fields owned by another shape must stay at their default."""
        if owned:
            return
        for name in names:
            value = getattr(self, name)
            if value not in (0.0, ""):
                raise SpecValidationError(
                    f"arrival field {name!r} only applies to "
                    f"another shape, not {self.shape!r} "
                    f"(got {value!r})")

    # ------------------------------------------------------------------
    @property
    def is_poisson(self) -> bool:
        """True for the default (homogeneous Poisson) shape."""
        return self.shape == ARRIVAL_POISSON

    def make_process(self, qps: float) -> InterarrivalProcess:
        """The runtime process driving *qps* with this shape."""
        if self.shape == ARRIVAL_DIURNAL:
            return DiurnalInterarrival(
                qps, period_us=self.period_us,
                amplitude=self.amplitude, phase_us=self.phase_us)
        if self.shape == ARRIVAL_FLASH_CROWD:
            return FlashCrowdInterarrival(
                qps, spike_start_us=self.spike_start_us,
                spike_duration_us=self.spike_duration_us,
                spike_factor=self.spike_factor)
        if self.shape == ARRIVAL_TRACE:
            return TraceReplayInterarrival.from_file(
                self.path, qps=qps)
        return ExponentialInterarrival(qps)

    def describe(self) -> str:
        """One-line summary for listings and ``repro plan``."""
        if self.shape == ARRIVAL_DIURNAL:
            extra = (f" +{self.phase_us:g}us phase"
                     if self.phase_us else "")
            return (f"diurnal (period {self.period_us:g}us, "
                    f"amplitude {self.amplitude:g}{extra})")
        if self.shape == ARRIVAL_FLASH_CROWD:
            return (f"flash-crowd ({self.spike_factor:g}x at "
                    f"{self.spike_start_us:g}us for "
                    f"{self.spike_duration_us:g}us)")
        if self.shape == ARRIVAL_TRACE:
            return f"trace replay ({self.path})"
        return "poisson"

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; fields at their default are omitted."""
        data: Dict[str, Any] = {"shape": self.shape}
        for name in _ARRIVAL_FIELDS[1:]:
            value = getattr(self, name)
            if value not in (0.0, ""):
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrivalSpec":
        """Rebuild (and re-validate) a spec from its dict form."""
        unknown = sorted(set(map(str, data)) - set(_ARRIVAL_FIELDS))
        if unknown:
            raise SpecValidationError(
                f"unknown key(s) {', '.join(map(repr, unknown))} in "
                f"arrival spec; valid keys: "
                f"{', '.join(_ARRIVAL_FIELDS)}")
        return cls(**{name: data[name] for name in _ARRIVAL_FIELDS
                      if name in data})

    def with_fields(self, **changes: Any) -> "ArrivalSpec":
        """Copy with some fields replaced (re-validated)."""
        return replace(self, **changes)


def as_arrival_spec(value: Any) -> Optional[ArrivalSpec]:
    """Coerce to an :class:`ArrivalSpec`, canonicalized.

    ``None`` and the default Poisson spec both mean "the workload's
    stock exponential process" and normalize to ``None``, so a plan
    naming the default explicitly hashes identically to one that
    omits it.
    """
    if value is None:
        return None
    if isinstance(value, str):
        value = ArrivalSpec(shape=value)
    elif isinstance(value, Mapping):
        value = ArrivalSpec.from_dict(value)
    if not isinstance(value, ArrivalSpec):
        raise SpecValidationError(
            f"arrival must be an ArrivalSpec, shape name or dict, "
            f"got {type(value).__name__}")
    return None if value.is_poisson else value


def arrival_process(arrival: Any,
                    qps: float) -> Optional[InterarrivalProcess]:
    """The runtime process for an optional arrival spec.

    The helper the testbed assembly uses to thread a plan's
    ``arrival`` through to its generator: ``None`` (or the default
    Poisson spec) returns ``None``, which keeps the generator's stock
    exponential process.
    """
    spec = as_arrival_spec(arrival)
    return None if spec is None else spec.make_process(qps)
