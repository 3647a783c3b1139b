"""Service-graph runtime: cache tiers, resilient edges, testbeds.

Unit-level semantics of :class:`~repro.graph.cache.CacheTier` and
:class:`~repro.graph.resilience.ResilientDispatcher` against stub
backends (hit/miss costs, bounded retry, hedged duplicates, the
straggler drain contract), plus the graph branch of the one testbed
assembly (``WorkloadDefinition.build_testbed(graph=...)``) end to end:
per-tier counters harvested into ``RunMetrics.obs_metrics``, trace
spans, and campaign execution over a graph condition.
"""

import pytest

from repro.api import experiment
from repro.errors import ConfigurationError
from repro.graph import CacheTier, ResilientDispatcher
from repro.graph.spec import ResiliencePolicy
from repro.server.request import Request
from repro.sim.random import RandomStreams


class StubBackend:
    """Serves each attempt with the next delay from a schedule."""

    def __init__(self, sim, delays):
        self._sim = sim
        self.delays = list(delays)
        self.served = 0

    def submit(self, request, done_fn, *ctx):
        delay = self.delays[min(self.served, len(self.delays) - 1)]
        self.served += 1

        def finish(job):
            job.service_us += delay
            job.server_departure_us = self._sim.now
            done_fn(job, *ctx)

        self._sim.post(delay, finish, request)


def run_one(sim, service, request_id=0):
    done = []
    root = Request(request_id=request_id, size_kb=2.0)
    service.submit(root, done.append)
    sim.run()
    return root, done


class TestCacheTier:
    def test_sure_hit_short_circuits_downstream(self, sim):
        backend = StubBackend(sim, [100.0])
        cache = CacheTier(sim, backend, hit_ratio=1.0,
                          hit_service_us=4.0)
        root, done = run_one(sim, cache)
        assert len(done) == 1
        assert backend.served == 0
        assert cache.hits == 1 and cache.misses == 0
        assert root.service_us == 4.0
        assert root.server_departure_us == 4.0

    def test_sure_miss_traverses_then_fills(self, sim):
        backend = StubBackend(sim, [100.0])
        cache = CacheTier(sim, backend, hit_ratio=0.0,
                          hit_service_us=4.0, fill_penalty_us=6.0)
        root, done = run_one(sim, cache)
        assert len(done) == 1
        assert backend.served == 1
        assert cache.misses == 1 and cache.hits == 0
        assert root.service_us == 106.0
        assert root.server_departure_us == 106.0

    def test_fractional_ratio_requires_rng(self, sim):
        with pytest.raises(ConfigurationError, match="rng"):
            CacheTier(sim, StubBackend(sim, [1.0]), hit_ratio=0.5)

    def test_hit_ratio_bounds(self, sim):
        with pytest.raises(ConfigurationError, match="hit_ratio"):
            CacheTier(sim, StubBackend(sim, [1.0]), hit_ratio=1.5)

    @pytest.mark.parametrize("cost", ["hit_service_us",
                                      "fill_penalty_us"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_service_costs_must_be_finite(self, sim, cost, value):
        with pytest.raises(ConfigurationError, match=cost):
            CacheTier(sim, StubBackend(sim, [1.0]), hit_ratio=1.0,
                      **{cost: value})

    def test_empirical_rate_tracks_configured_ratio(self, sim):
        rng = RandomStreams(7).stream("cache")
        backend = StubBackend(sim, [10.0])
        cache = CacheTier(sim, backend, hit_ratio=0.8, rng=rng)
        for i in range(500):
            run_one(sim, cache, request_id=i)
        assert cache.lookups == 500
        assert cache.hit_rate == pytest.approx(0.8, abs=0.06)
        assert backend.served == cache.misses

    def test_degenerate_ratios_consume_no_draws(self, sim):
        rng = RandomStreams(7).stream("cache")
        before = rng.next_uniform()
        cache = CacheTier(sim, StubBackend(sim, [1.0]),
                          hit_ratio=1.0, rng=rng)
        run_one(sim, cache)
        # The stream advanced by exactly the one draw we took above.
        replay = RandomStreams(7).stream("cache")
        assert replay.next_uniform() == before
        assert rng.next_uniform() != before


class TestResilientDispatcher:
    def test_fast_response_uses_no_resilience(self, sim):
        backend = StubBackend(sim, [10.0])
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(timeout_us=100.0, max_retries=2))
        root, done = run_one(sim, edge)
        assert len(done) == 1
        assert edge.retries == 0 and edge.timeouts == 0
        assert edge.attempts_issued == 1
        assert root.service_us == 10.0

    def test_timeout_retries_and_straggler_drains(self, sim):
        backend = StubBackend(sim, [100.0, 10.0])
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(timeout_us=50.0, max_retries=1))
        root, done = run_one(sim, edge)
        # Retry launched at t=50, finishes at t=60; the original
        # attempt lands at t=100 and must drain without a second
        # completion or double-counted timings.
        assert len(done) == 1
        assert root.server_departure_us == 60.0
        assert root.service_us == 10.0
        assert edge.timeouts == 1 and edge.retries == 1
        assert edge.attempts_issued == 2
        assert edge.attempts_completed == 2
        assert edge.roots_completed == 1

    def test_backoff_delays_the_retry(self, sim):
        backend = StubBackend(sim, [100.0, 10.0])
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(timeout_us=50.0, max_retries=1,
                             backoff_us=25.0))
        root, _ = run_one(sim, edge)
        assert root.server_departure_us == 85.0

    def test_retry_budget_is_bounded(self, sim):
        backend = StubBackend(sim, [100.0])
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(timeout_us=30.0, max_retries=2))
        root, done = run_one(sim, edge)
        # Two retries fire (t=30, t=60); the third attempt arms no
        # timeout, so the first landing attempt (t=100) wins.
        assert len(done) == 1
        assert edge.retries == 2
        assert edge.attempts_issued == 3
        assert root.server_departure_us == 100.0

    def test_hedge_completion_is_min_of_attempts(self, sim):
        backend = StubBackend(sim, [100.0, 10.0])
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(hedge_after_us=20.0, hedges=1))
        root, done = run_one(sim, edge)
        # Hedge launches at t=20 and lands at t=30, beating the
        # primary (t=100): completion is the min of the attempts.
        assert len(done) == 1
        assert root.server_departure_us == 30.0
        assert edge.hedges == 1
        assert edge.attempts_completed == 2

    def test_fast_primary_cancels_the_hedge(self, sim):
        backend = StubBackend(sim, [10.0])
        edge = ResilientDispatcher(
            sim, backend,
            ResiliencePolicy(hedge_after_us=20.0, hedges=1))
        _, done = run_one(sim, edge)
        assert len(done) == 1
        assert edge.hedges == 0
        assert edge.attempts_issued == 1


class TestGraphTestbedEndToEnd:
    def plan(self, **policy):
        return (experiment("memcached")
                .client("LP")
                .graph("memcached-cached")
                .load(qps=50_000, num_requests=200)
                .policy(runs=1, base_seed=3, **policy)
                .build())

    def test_counters_surface_in_obs_metrics(self):
        result = self.plan(metrics=True).run()
        metrics = dict(result.runs[0].obs_metrics)
        assert metrics["cache.cache.hits"] > 0
        assert metrics["cache.cache.misses"] > 0
        assert 0.0 < metrics["cache.cache.hit_rate"] < 1.0
        assert metrics["cache.cache.hit_rate"] == pytest.approx(
            0.8, abs=0.1)
        # Stragglers drain: every attempt issued eventually lands.
        assert (metrics["resilience.leaf.attempts_completed"]
                == metrics["resilience.leaf.attempts_issued"])
        assert (metrics["resilience.leaf.calls"]
                == metrics["cache.cache.misses"])

    def test_trace_spans_cover_cache_and_hedge(self):
        plan = self.plan(trace=True)
        testbed = plan.testbed(3)
        testbed.run()
        tracer = testbed.sim.obs.tracer
        assert tracer.spans_named("cache.hit")
        assert tracer.spans_named("cache.miss")
        # Hedges are load-dependent; the span taxonomy must at least
        # be registered for them when any fired.
        edge_spans = tracer.spans_named("hedge")
        assert isinstance(edge_spans, list)

    def test_unobserved_run_matches_observed(self):
        plain = self.plan().run()
        observed = self.plan(metrics=True).run()
        assert plain.runs[0].avg_us == observed.runs[0].avg_us
        assert plain.runs[0].p99_us == observed.runs[0].p99_us

    def test_campaign_executes_graph_condition(self):
        from repro.campaign.executor import execute_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.config.presets import LP_CLIENT, SERVER_BASELINE
        from repro.graph.presets import graph_preset

        spec = CampaignSpec(
            name="graph-exec", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(50_000.0,), clients={"LP": LP_CLIENT},
            runs=1, num_requests=60,
            graph=graph_preset("memcached-cached"))
        outcome = execute_campaign(spec, max_workers=1,
                                   fail_fast=True)
        assert outcome.ok
        statuses = [o.status for o in outcome.outcomes]
        assert statuses == ["done"]
        assert outcome.outcomes[0].result.runs[0].avg_us > 0
