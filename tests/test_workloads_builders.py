"""Tests for the four workload testbed builders."""

import numpy as np
import pytest

from repro.api import experiment
from repro.config.presets import HP_CLIENT, LP_CLIENT
from repro.errors import ConfigurationError, ExperimentError
from repro.units import MS
from repro.workloads.socialnetwork import (
    social_graph,
    timeline_length_distribution,
)
from repro.workloads.synthetic import DelayedService


def plan_testbed(workload, seed, client_config, qps, num_requests,
                 **params):
    """One testbed of *workload*, built through its plan."""
    return (experiment(workload, **params).client(client_config)
            .load(qps=qps, num_requests=num_requests)
            .build().testbed(seed))


class TestMemcachedTestbed:
    def test_run_produces_metrics(self):
        testbed = plan_testbed(
            "memcached", seed=1, client_config=HP_CLIENT,
            qps=50_000, num_requests=200)
        metrics = testbed.run()
        assert metrics.requests == 180  # 10% warmup trimmed
        assert metrics.avg_us > 0
        assert metrics.p99_us >= metrics.avg_us
        assert metrics.avg_us >= metrics.true_avg_us

    def test_identical_seeds_identical_results(self):
        a = plan_testbed(
            "memcached", seed=9, client_config=LP_CLIENT,
            qps=50_000, num_requests=150).run()
        b = plan_testbed(
            "memcached", seed=9, client_config=LP_CLIENT,
            qps=50_000, num_requests=150).run()
        assert a.avg_us == b.avg_us
        assert a.p99_us == b.p99_us

    def test_different_seeds_differ(self):
        a = plan_testbed(
            "memcached", seed=1, client_config=LP_CLIENT,
            qps=50_000, num_requests=150).run()
        b = plan_testbed(
            "memcached", seed=2, client_config=LP_CLIENT,
            qps=50_000, num_requests=150).run()
        assert a.avg_us != b.avg_us

    def test_testbed_is_single_use(self):
        testbed = plan_testbed(
            "memcached", seed=1, client_config=HP_CLIENT,
            qps=50_000, num_requests=100)
        testbed.run()
        with pytest.raises(ExperimentError):
            testbed.run()

    def test_latency_scale_is_tens_of_microseconds(self):
        metrics = plan_testbed(
            "memcached", seed=3, client_config=HP_CLIENT,
            qps=50_000, num_requests=300).run()
        assert 20.0 < metrics.avg_us < 200.0

    def test_utilization_grows_with_load(self):
        low = plan_testbed(
            "memcached", seed=4, client_config=HP_CLIENT,
            qps=10_000, num_requests=300).run()
        high = plan_testbed(
            "memcached", seed=4, client_config=HP_CLIENT,
            qps=500_000, num_requests=300).run()
        assert high.server_utilization > low.server_utilization


class TestHdsearchTestbed:
    def test_latency_is_sub_millisecond_scale(self):
        metrics = plan_testbed(
            "hdsearch", seed=1, client_config=HP_CLIENT,
            qps=1_000, num_requests=200).run()
        assert 0.2 * MS < metrics.avg_us < 3 * MS

    def test_much_slower_than_memcached(self):
        hdsearch = plan_testbed(
            "hdsearch", seed=1, client_config=HP_CLIENT,
            qps=1_000, num_requests=150).run()
        memcached = plan_testbed(
            "memcached", seed=1, client_config=HP_CLIENT,
            qps=100_000, num_requests=150).run()
        assert hdsearch.avg_us > 5 * memcached.avg_us

    def test_deterministic(self):
        a = plan_testbed("hdsearch", seed=5, client_config=LP_CLIENT,
                         qps=1_000, num_requests=100).run()
        b = plan_testbed("hdsearch", seed=5, client_config=LP_CLIENT,
                         qps=1_000, num_requests=100).run()
        assert a.avg_us == b.avg_us


class TestSocialNetworkTestbed:
    def test_graph_is_reed98_scale(self):
        graph = social_graph()
        assert graph.number_of_nodes() == 962
        assert graph.number_of_edges() > 5_000

    def test_timeline_lengths_bounded_by_page(self):
        lengths = timeline_length_distribution()
        assert max(lengths) <= 40
        assert min(lengths) >= 0
        assert np.mean(lengths) > 1

    def test_latency_is_millisecond_scale(self):
        metrics = plan_testbed(
            "socialnetwork", seed=1, client_config=HP_CLIENT,
            qps=300, num_requests=150).run()
        assert 1 * MS < metrics.avg_us < 10 * MS
        assert metrics.p99_us > 2 * MS

    def test_p99_heavy_tail(self):
        metrics = plan_testbed(
            "socialnetwork", seed=2, client_config=HP_CLIENT,
            qps=300, num_requests=200).run()
        assert metrics.p99_us > 2 * metrics.avg_us


class TestSyntheticTestbed:
    def test_delay_extends_latency_linearly_at_low_load(self):
        """Paper: 'the response time increases linearly with the
        increase of the added delay' (validation of the workload)."""
        points = []
        for delay in (0.0, 100.0, 200.0, 400.0):
            metrics = plan_testbed(
                "synthetic", seed=1, client_config=HP_CLIENT, qps=5_000,
                added_delay_us=delay, num_requests=200).run()
            points.append((delay, metrics.avg_us))
        base = points[0][1]
        for delay, avg in points[1:]:
            assert avg == pytest.approx(base + delay, rel=0.15)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayedService(-1.0)

    def test_delayed_service_mean(self):
        assert DelayedService(100.0).mean_service_us() == pytest.approx(
            110.0)
