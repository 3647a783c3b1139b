"""Property tests (hypothesis) for service-graph invariants.

The graph subsystem's four laws:

* request conservation -- every request injected into an arbitrary
  composition of cache tiers, resilient edges and fanout joins
  completes exactly once, with stragglers draining and nothing
  double-counted across hit/miss, retry and hedge paths;
* the empirical cache hit rate converges to the configured ratio;
* hedged completion time equals the min of the launched attempts;
* nonhomogeneous arrival trains are bit-identical to their
  scalar-thinning reference (same chunked draw protocol, scalar
  draws).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FanoutService
from repro.graph import CacheTier, ResilientDispatcher
from repro.graph.spec import ResiliencePolicy
from repro.graph.testbed import GraphStage
from repro.loadgen.interarrival import (
    DiurnalInterarrival,
    FlashCrowdInterarrival,
)
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class CountingBackend:
    """Fixed-delay service that counts attempts and completions."""

    def __init__(self, sim, delay_us):
        self._sim = sim
        self.delay_us = delay_us
        self.served = 0

    def submit(self, request, done_fn, *ctx):
        self.served += 1

        def finish(job):
            job.service_us += self.delay_us
            job.server_departure_us = self._sim.now
            done_fn(job, *ctx)

        self._sim.post(self.delay_us, finish, request)

    def utilization(self):
        return 0.0

    def expected_service_us(self):
        return self.delay_us


#: strategy: one tier blueprint -- (kind, parameters)
tier_blueprints = st.one_of(
    st.tuples(st.just("plain"),
              st.floats(min_value=1.0, max_value=50.0)),
    st.tuples(st.just("cache"),
              st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("retry"),
              st.floats(min_value=5.0, max_value=40.0)),
    st.tuples(st.just("hedge"),
              st.floats(min_value=5.0, max_value=40.0)),
    st.tuples(st.just("fanout"),
              st.integers(min_value=2, max_value=4)),
)


def build_random_dag(sim, blueprints, seed):
    """Stack the drawn tier blueprints into one DAG front-to-back."""
    streams = RandomStreams(seed)
    service = CountingBackend(sim, 10.0)
    for index, (kind, param) in enumerate(reversed(blueprints)):
        if kind == "plain":
            service = GraphStage(
                CountingBackend(sim, param), service,
                name=f"t{index}")
        elif kind == "cache":
            service = CacheTier(
                sim, service, hit_ratio=param, hit_service_us=2.0,
                fill_penalty_us=3.0,
                rng=(streams.stream(f"cache{index}")
                     if 0.0 < param < 1.0 else None),
                name=f"cache{index}")
        elif kind == "retry":
            service = ResilientDispatcher(
                sim, service,
                ResiliencePolicy(timeout_us=param, max_retries=2,
                                 backoff_us=1.0),
                name=f"retry{index}")
        elif kind == "hedge":
            service = ResilientDispatcher(
                sim, service,
                ResiliencePolicy(hedge_after_us=param, hedges=1),
                name=f"hedge{index}")
        else:  # fanout
            shards = [CountingBackend(sim, 5.0 + 3.0 * i)
                      for i in range(param)]
            fan = FanoutService(sim, shards)
            service = GraphStage(fan, service, name=f"fan{index}")
    return service


class TestRequestConservation:
    @given(st.lists(tier_blueprints, min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2 ** 16),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_every_request_completes_exactly_once(
            self, blueprints, seed, ctx_len):
        """Each submit carries its own ``ctx`` of *ctx_len* values;
        every completion must hand back exactly that context."""
        sim = Simulator()
        entry = build_random_dag(sim, blueprints, seed)
        done = []

        def completed(request, *ctx):
            done.append((request, ctx))

        count = 25
        contexts = [tuple(f"r{i}.{k}" for k in range(ctx_len))
                    for i in range(count)]
        for i in range(count):
            request = Request(request_id=i, size_kb=2.0)
            sim.post(float(i), entry.submit, request, completed,
                     *contexts[i])
        sim.run()
        assert len(done) == count
        assert sorted(r.request_id for r, _ in done) == list(range(count))
        for request, ctx in done:
            assert ctx == contexts[request.request_id]
        # Conservation holds *after* the event queue fully drains:
        # straggler attempts landed without re-completing anyone.
        assert sim.live_pending_events == 0


class TestCacheConvergence:
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_empirical_hit_rate_converges(self, ratio, seed):
        sim = Simulator()
        cache = CacheTier(
            sim, CountingBackend(sim, 5.0), hit_ratio=ratio,
            rng=RandomStreams(seed).stream("cache"))
        trials = 600
        for i in range(trials):
            cache.submit(Request(request_id=i, size_kb=1.0),
                         lambda _req: None)
            sim.run()
        assert cache.lookups == trials
        # 5-sigma binomial envelope: false-failure odds ~ 1e-6.
        tolerance = 5.0 * math.sqrt(ratio * (1 - ratio) / trials)
        assert abs(cache.hit_rate - ratio) <= tolerance


class TestHedgeCompletion:
    @given(st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_completion_is_min_of_launched_attempts(
            self, primary_us, hedge_us, hedge_after_us):
        sim = Simulator()
        delays = iter([primary_us, hedge_us])

        class Scheduled(CountingBackend):
            def submit(self, request, done_fn, *ctx):
                self.delay_us = next(delays)
                CountingBackend.submit(self, request, done_fn, *ctx)

        backend = Scheduled(sim, primary_us)
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(hedge_after_us=hedge_after_us, hedges=1))
        done = []
        root = Request(request_id=0, size_kb=1.0)
        edge.submit(root, done.append)
        sim.run()
        assert len(done) == 1
        if primary_us <= hedge_after_us:
            expected = primary_us
            assert edge.hedges == 0
        else:
            expected = min(primary_us, hedge_after_us + hedge_us)
            assert edge.hedges == 1
        assert root.server_departure_us == pytest.approx(expected)


def scalar_thinning_reference(process, rng, size):
    """Independent scalar-draw thinning under the chunked protocol:
    each round draws ``remaining`` candidate gaps one by one, then
    ``remaining`` acceptance uniforms one by one, and scans in order
    -- the documented draw discipline of ``sample_train_us``."""
    gaps = []
    t = last = 0.0
    peak = process._peak_qps
    peak_mean = process._peak_mean_us
    while len(gaps) < size:
        need = size - len(gaps)
        candidates = [float(rng.standard_exponential()) * peak_mean
                      for _ in range(need)]
        accepts = [float(rng.random()) for _ in range(need)]
        for gap, u in zip(candidates, accepts):
            t += gap
            if u * peak <= process._rate_qps(t):
                gaps.append(t - last)
                last = t
    return np.array(gaps)


class TestThinningBitIdentity:
    @given(st.floats(min_value=100.0, max_value=50_000.0),
           st.floats(min_value=500.0, max_value=100_000.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_diurnal_train_matches_scalar_reference(
            self, qps, period_us, amplitude, seed):
        make = lambda: DiurnalInterarrival(
            qps, period_us=period_us, amplitude=amplitude)
        train = make().sample_train_us(
            RandomStreams(seed).stream("arrival"), 64)
        reference = scalar_thinning_reference(
            make(), RandomStreams(seed).stream("arrival"), 64)
        assert np.array_equal(train, reference)
        assert np.all(train > 0)

    @given(st.floats(min_value=100.0, max_value=50_000.0),
           st.floats(min_value=0.0, max_value=50_000.0),
           st.floats(min_value=100.0, max_value=50_000.0),
           st.floats(min_value=1.0, max_value=10.0),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_flash_crowd_train_matches_scalar_reference(
            self, qps, start_us, duration_us, factor, seed):
        make = lambda: FlashCrowdInterarrival(
            qps, spike_start_us=start_us,
            spike_duration_us=duration_us, spike_factor=factor)
        train = make().sample_train_us(
            RandomStreams(seed).stream("arrival"), 64)
        reference = scalar_thinning_reference(
            make(), RandomStreams(seed).stream("arrival"), 64)
        assert np.array_equal(train, reference)
        assert np.all(train > 0)
