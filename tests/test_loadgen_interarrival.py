"""Tests for inter-arrival processes."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SpecValidationError
from repro.loadgen.interarrival import (
    ArrivalSpec,
    DeterministicInterarrival,
    DiurnalInterarrival,
    ExponentialInterarrival,
    FlashCrowdInterarrival,
    LognormalInterarrival,
    TraceReplayInterarrival,
    arrival_process,
    as_arrival_spec,
)


class TestExponential:
    def test_mean_matches_rate(self, rng):
        process = ExponentialInterarrival(qps=100_000)
        draws = [process.sample_us(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(10.0, rel=0.05)

    def test_deterministic_without_rng(self):
        assert ExponentialInterarrival(1_000_000).sample_us(None) == 1.0

    def test_qps_exposed(self):
        assert ExponentialInterarrival(5000).qps == 5000

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ExponentialInterarrival(0)


class TestDeterministic:
    def test_constant_gaps(self, rng):
        process = DeterministicInterarrival(qps=10_000)
        draws = {process.sample_us(rng) for _ in range(10)}
        assert draws == {100.0}


class TestLognormal:
    def test_mean_preserved(self, rng):
        process = LognormalInterarrival(qps=10_000, sigma=1.0)
        draws = [process.sample_us(rng) for _ in range(50_000)]
        assert np.mean(draws) == pytest.approx(100.0, rel=0.1)

    def test_burstier_than_exponential(self, rng):
        exp_process = ExponentialInterarrival(10_000)
        log_process = LognormalInterarrival(10_000, sigma=1.5)
        exp_draws = [exp_process.sample_us(rng) for _ in range(20_000)]
        log_draws = [log_process.sample_us(rng) for _ in range(20_000)]
        assert np.std(log_draws) > np.std(exp_draws)

    def test_zero_sigma_deterministic(self, rng):
        process = LognormalInterarrival(10_000, sigma=0.0)
        assert process.sample_us(rng) == pytest.approx(100.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            LognormalInterarrival(10_000, sigma=-1.0)


class TestDiurnal:
    def test_mean_rate_preserved_over_full_cycles(self, rng):
        process = DiurnalInterarrival(10_000, period_us=1_000.0,
                                      amplitude=0.8)
        train = process.sample_train_us(rng, 50_000)
        # Averaged over many cycles the rate integrates back to qps.
        assert np.mean(train) == pytest.approx(100.0, rel=0.1)

    def test_rate_oscillates(self):
        process = DiurnalInterarrival(1_000, period_us=4_000.0,
                                      amplitude=0.5)
        assert process._rate_qps(1_000.0) == pytest.approx(1_500.0)
        assert process._rate_qps(3_000.0) == pytest.approx(500.0)

    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalInterarrival(1_000, period_us=0.0)

    def test_invalid_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalInterarrival(1_000, period_us=100.0, amplitude=1.5)

    def test_scalar_path_advances_internal_clock(self, rng):
        process = DiurnalInterarrival(1_000, period_us=5_000.0)
        first = process.sample_us(rng)
        second = process.sample_us(rng)
        assert first > 0 and second > 0
        assert process._clock_us == pytest.approx(first + second)

    def test_no_rng_degenerates_to_mean(self):
        process = DiurnalInterarrival(10_000, period_us=1_000.0)
        assert process.sample_us(None) == 100.0
        assert np.all(process.sample_train_us(None, 4) == 100.0)


class TestFlashCrowd:
    def test_spike_compresses_gaps(self, rng):
        process = FlashCrowdInterarrival(
            1_000, spike_start_us=0.0, spike_duration_us=1e9,
            spike_factor=10.0)
        train = process.sample_train_us(rng, 20_000)
        # Inside an (effectively infinite) spike the rate is 10x.
        assert np.mean(train) == pytest.approx(100.0, rel=0.1)

    def test_piecewise_rate(self):
        process = FlashCrowdInterarrival(
            1_000, spike_start_us=500.0, spike_duration_us=100.0,
            spike_factor=4.0)
        assert process._rate_qps(499.0) == 1_000.0
        assert process._rate_qps(550.0) == 4_000.0
        assert process._rate_qps(600.0) == 1_000.0

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            FlashCrowdInterarrival(1_000, spike_start_us=0.0,
                                   spike_duration_us=10.0,
                                   spike_factor=0.5)


def _per_candidate_train(process, rng, size):
    """Thinning one candidate at a time: the reference loop the
    round-at-a-time :meth:`sample_train_us` must equal, draw for
    draw."""
    gaps = np.empty(size)
    t = last = 0.0
    count = 0
    while count < size:
        need = size - count
        candidates = rng.standard_exponential(need) * process._peak_mean_us
        accepts = rng.random(need)
        for gap, u in zip(candidates.tolist(), accepts.tolist()):
            t += gap
            if u * process._peak_qps <= process._rate_qps(t):
                gaps[count] = t - last
                last = t
                count += 1
    return gaps


class _RoundLog:
    """A generator wrapper logging each thinning round's size."""

    def __init__(self, rng):
        self._rng = rng
        self.rounds = []

    def standard_exponential(self, size):
        self.rounds.append(size)
        return self._rng.standard_exponential(size)

    def random(self, size):
        return self._rng.random(size)


THINNED = {
    "diurnal": lambda: DiurnalInterarrival(
        50_000, period_us=20_000.0, amplitude=0.5),
    "diurnal-phase": lambda: DiurnalInterarrival(
        3_000, period_us=700.0, amplitude=0.9, phase_us=123.4),
    "diurnal-flat": lambda: DiurnalInterarrival(
        10_000, period_us=1_000.0, amplitude=0.0),
    "flash-crowd": lambda: FlashCrowdInterarrival(
        10_000, spike_start_us=2_000.0, spike_duration_us=3_000.0,
        spike_factor=6.0),
    "flash-crowd-at-0": lambda: FlashCrowdInterarrival(
        1_000, spike_start_us=0.0, spike_duration_us=50.0),
}


class TestRoundAtATimeThinning:
    @pytest.mark.parametrize("seed", [0, 1, 29])
    @pytest.mark.parametrize("size", [1, 7, 256, 3_000])
    @pytest.mark.parametrize("shape", sorted(THINNED))
    def test_equals_the_per_candidate_loop(self, shape, size, seed):
        """Gaps bit for bit, and the generator left where the loop
        leaves it."""
        process = THINNED[shape]()
        rng = np.random.default_rng(seed)
        mirror = np.random.default_rng(seed)
        got = process.sample_train_us(rng, size)
        want = _per_candidate_train(process, mirror, size)
        assert got.tolist() == want.tolist()
        assert rng.bit_generator.state == mirror.bit_generator.state

    def test_a_round_that_accepts_nothing(self):
        """A far-off 1000x spike keeps the acceptance odds at 1/1000,
        so whole rounds pass without an arrival and the next round
        draws as many candidates again."""
        process = FlashCrowdInterarrival(
            1_000, spike_start_us=1e12, spike_duration_us=1.0,
            spike_factor=1_000.0)
        log = _RoundLog(np.random.default_rng(5))
        got = process.sample_train_us(log, 3)
        assert len(log.rounds) > len(set(log.rounds))
        want = _per_candidate_train(process, np.random.default_rng(5), 3)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("shape", sorted(THINNED))
    def test_size_zero_train_draws_nothing(self, shape):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        train = THINNED[shape]().sample_train_us(rng, 0)
        assert train.shape == (0,)
        assert rng.bit_generator.state == state


NAN, INF = math.nan, math.inf


class TestNonFiniteParameters:
    """Non-finite arrival parameters fail at construction; a NaN rate
    used to leave thinning spinning forever, accepting nothing."""

    @pytest.mark.parametrize("qps", [NAN, INF])
    def test_diurnal_qps(self, qps):
        with pytest.raises(ValueError, match="qps"):
            DiurnalInterarrival(qps, period_us=1_000.0)

    @pytest.mark.parametrize("period_us", [NAN, INF])
    def test_diurnal_period(self, period_us):
        with pytest.raises(ConfigurationError, match="period_us"):
            DiurnalInterarrival(1_000, period_us=period_us)

    @pytest.mark.parametrize("phase_us", [NAN, INF, -INF])
    def test_diurnal_phase(self, phase_us):
        with pytest.raises(ConfigurationError, match="phase_us"):
            DiurnalInterarrival(1_000, period_us=1_000.0,
                                phase_us=phase_us)

    def test_diurnal_amplitude(self):
        with pytest.raises(ConfigurationError, match="amplitude"):
            DiurnalInterarrival(1_000, period_us=1_000.0, amplitude=NAN)

    @pytest.mark.parametrize("start_us", [NAN, INF])
    def test_flash_crowd_start(self, start_us):
        with pytest.raises(ConfigurationError, match="spike_start_us"):
            FlashCrowdInterarrival(1_000, spike_start_us=start_us,
                                   spike_duration_us=10.0)

    @pytest.mark.parametrize("duration_us", [NAN, INF])
    def test_flash_crowd_duration(self, duration_us):
        with pytest.raises(ConfigurationError, match="spike_duration_us"):
            FlashCrowdInterarrival(1_000, spike_start_us=0.0,
                                   spike_duration_us=duration_us)

    @pytest.mark.parametrize("factor", [NAN, INF])
    def test_flash_crowd_factor(self, factor):
        with pytest.raises(ConfigurationError, match="spike_factor"):
            FlashCrowdInterarrival(1_000, spike_start_us=0.0,
                                   spike_duration_us=10.0,
                                   spike_factor=factor)

    @pytest.mark.parametrize("qps", [NAN, INF])
    def test_exponential_qps(self, qps):
        with pytest.raises(ValueError, match="qps"):
            ExponentialInterarrival(qps)

    @pytest.mark.parametrize("sigma", [NAN, INF])
    def test_lognormal_sigma(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma"):
            LognormalInterarrival(1_000, sigma=sigma)

    @pytest.mark.parametrize("stamp", [NAN, INF])
    def test_trace_timestamps(self, stamp):
        with pytest.raises(ConfigurationError, match="finite"):
            TraceReplayInterarrival([0.0, stamp, 30.0])

    @pytest.mark.parametrize("qps", [NAN, INF])
    def test_trace_qps(self, qps):
        with pytest.raises(ConfigurationError, match="qps"):
            TraceReplayInterarrival([0.0, 10.0], qps=qps)


class TestTraceReplay:
    def test_replays_gaps_from_timestamps(self):
        process = TraceReplayInterarrival([0.0, 10.0, 25.0, 45.0])
        gaps = [process.sample_us(None) for _ in range(4)]
        assert gaps == [0.0, 10.0, 15.0, 20.0]

    def test_exhaustion_raises(self):
        process = TraceReplayInterarrival([0.0, 5.0])
        process.sample_us(None)
        process.sample_us(None)
        with pytest.raises(ConfigurationError):
            process.sample_us(None)

    def test_train_matches_scalar_replay(self):
        timestamps = [0.0, 3.0, 9.0, 10.0, 30.0]
        vector = TraceReplayInterarrival(timestamps)
        scalar = TraceReplayInterarrival(timestamps)
        train = vector.sample_train_us(None, 5)
        gaps = [scalar.sample_us(None) for _ in range(5)]
        assert np.array_equal(train, np.array(gaps))

    def test_from_file_skips_comments(self, tmp_path):
        path = tmp_path / "arrivals.txt"
        path.write_text("# header\n0.0\n\n10.0\n20.0\n")
        process = TraceReplayInterarrival.from_file(path)
        assert len(process) == 3


class TestArrivalSpec:
    def test_default_poisson_canonicalizes_to_none(self):
        assert as_arrival_spec(None) is None
        assert as_arrival_spec(ArrivalSpec()) is None
        assert as_arrival_spec("poisson") is None

    def test_unknown_shape_did_you_mean(self):
        with pytest.raises(SpecValidationError, match="diurnal"):
            ArrivalSpec(shape="diurnl")

    def test_foreign_shape_fields_rejected(self):
        with pytest.raises(SpecValidationError):
            ArrivalSpec(shape="diurnal", period_us=100.0,
                        spike_factor=4.0)

    def test_round_trip_omits_defaults(self):
        spec = ArrivalSpec(shape="diurnal", period_us=20_000.0,
                           amplitude=0.5)
        payload = spec.to_dict()
        assert payload == {"shape": "diurnal",
                           "period_us": 20_000.0, "amplitude": 0.5}
        assert ArrivalSpec.from_dict(payload) == spec

    def test_make_process_builds_the_right_class(self):
        diurnal = ArrivalSpec(shape="diurnal", period_us=100.0)
        flash = ArrivalSpec(shape="flash-crowd",
                            spike_start_us=0.0,
                            spike_duration_us=10.0,
                            spike_factor=2.0)
        assert isinstance(diurnal.make_process(1_000),
                          DiurnalInterarrival)
        assert isinstance(flash.make_process(1_000),
                          FlashCrowdInterarrival)
        assert arrival_process(None, 1_000) is None
        assert isinstance(arrival_process(diurnal, 1_000),
                          DiurnalInterarrival)
