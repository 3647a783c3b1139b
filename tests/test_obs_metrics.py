"""Tests for the repro.obs metrics registry and run-level harvest."""

import sys
from dataclasses import replace

import pytest

from repro.api import experiment
from repro.campaign.serialize import (
    run_metrics_from_dict,
    run_metrics_to_dict,
)
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim import sampling
from repro.sim.kernel import ENGINES


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("events")
        assert counter.value == 0.0
        counter.add()
        counter.add(41)
        assert counter.value == 42.0

    def test_rejects_negative_increments(self):
        counter = Counter("events")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.add(-1)


class TestGauge:
    def test_last_write_wins_either_direction(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.set(3.5)
        assert gauge.value == 3.5


class TestHistogram:
    def test_observe_tracks_count_total_extremes(self):
        hist = Histogram("service")
        for value in (1.0, 10.0, 100.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 111.0
        assert hist.min == 1.0
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(37.0)

    def test_bucketing_is_inclusive_with_overflow(self):
        hist = Histogram("h", bounds=(10.0, 100.0))
        hist.observe(10.0)   # inclusive upper bound -> first bucket
        hist.observe(50.0)
        hist.observe(1e9)    # past the last bound -> overflow bucket
        assert hist.counts == [1, 1, 1]

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(10.0, 10.0))


class TestMetricsRegistry:
    def test_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")

    def test_flatten_is_sorted_scalars(self):
        reg = MetricsRegistry()
        reg.counter("z.count").add(2)
        reg.gauge("a.depth").set(5)
        hist = reg.histogram("m.latency")
        hist.observe(10.0)
        pairs = reg.flatten()
        assert pairs == (
            ("a.depth", 5.0),
            ("m.latency.count", 1.0),
            ("m.latency.mean", 10.0),
            ("z.count", 2.0),
        )

    def test_snapshot_histogram_summary(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(10.0,)).observe(3.0)
        snap = reg.snapshot()
        assert snap["h"]["count"] == 1
        assert snap["h"]["counts"] == [1, 0]


class TestRunHarvest:
    @pytest.fixture(scope="class")
    def traced_metrics(self):
        plan = (experiment("memcached").client("LP")
                .load(qps=50_000, num_requests=300)
                .policy(runs=1, base_seed=11, trace=True)
                .build())
        testbed = plan.testbed(11)
        return testbed.run()

    def test_obs_metrics_surface_engine_counters(self, traced_metrics):
        names = dict(traced_metrics.obs_metrics)
        assert names["engine.events_dispatched"] > 0
        assert names["sink.recorded"] == 300.0
        assert names["trace.spans"] > 0
        assert "station.memcached.completed" in names
        assert "net.client->server.messages" in names

    def test_obs_metrics_round_trip_serialization(self, traced_metrics):
        restored = run_metrics_from_dict(
            run_metrics_to_dict(traced_metrics))
        assert restored.obs_metrics == traced_metrics.obs_metrics
        assert restored == traced_metrics

    @staticmethod
    def _sampler_gauge_runs():
        """One ``metrics=True`` plan on each engine: the
        ``sampling.c_samplers`` gauges, and the metrics without it."""
        gauges, runs = [], []
        for engine in ENGINES:
            plan = (experiment("memcached").client("LP")
                    .load(qps=50_000, num_requests=300)
                    .policy(runs=1, base_seed=11, engine=engine,
                            metrics=True)
                    .build())
            metrics = plan.testbed(11).run()
            pairs = dict(metrics.obs_metrics)
            gauges.append(pairs.pop("sampling.c_samplers"))
            runs.append(replace(metrics, obs_metrics=tuple(pairs.items())))
        return gauges, runs

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the C samplers must load on Linux; "
                               "elsewhere the fallback may serve")
    def test_c_samplers_gauge_reads_one_on_a_stock_plan(self):
        gauges, _ = self._sampler_gauge_runs()
        assert gauges == [1.0] * len(ENGINES)

    def test_c_samplers_gauge_reads_zero_on_the_fallback(self):
        """A failed sampler self-check shows in the gauge, on both
        engines, and the fallback serves the same draws."""
        _, served_by_c = self._sampler_gauge_runs()
        sampling._c_samplers.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampling, "_agrees", lambda api: False)
                gauges, runs = self._sampler_gauge_runs()
        finally:
            sampling._c_samplers.cache_clear()
        assert gauges == [0.0] * len(ENGINES)
        assert runs == served_by_c

    def test_unobserved_run_has_empty_obs_metrics(self):
        plan = (experiment("memcached").client("LP")
                .load(qps=50_000, num_requests=300)
                .policy(runs=1, base_seed=11)
                .build())
        metrics = plan.testbed(11).run()
        assert metrics.obs_metrics == ()
        payload = run_metrics_to_dict(metrics)
        assert "obs_metrics" not in payload
