"""FanoutService: shard selection, quorum completion, conservation."""

import pytest

from repro.cluster import FanoutService
from repro.errors import ConfigurationError
from repro.net.link import NetworkLink
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class StubShard:
    """A shard with a fixed service delay and full accounting."""

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
        return 0.25

    def expected_service_us(self):
        return self.delay_us


def make_fanout(sim, delays, fanout=0, quorum=0, seed=0):
    shards = [StubShard(sim, delay) for delay in delays]
    rng = RandomStreams(seed).stream("fanout")
    service = FanoutService(sim, shards, fanout=fanout,
                            quorum=quorum, rng=rng)
    return service, shards


def run_one(sim, service):
    done = []
    root = Request(request_id=0, size_kb=2.0)
    service.submit(root, done.append)
    sim.run()
    return root, done


class TestConstruction:
    def test_needs_shards(self, sim):
        with pytest.raises(ConfigurationError, match="shard"):
            FanoutService(sim, [])

    def test_fanout_bounds(self, sim):
        with pytest.raises(ConfigurationError, match="fanout"):
            FanoutService(sim, [StubShard(sim, 1.0)], fanout=2)

    def test_quorum_bounds(self, sim):
        shards = [StubShard(sim, 1.0) for _ in range(4)]
        with pytest.raises(ConfigurationError, match="quorum"):
            FanoutService(sim, shards, fanout=2, quorum=3)

    def test_link_count_must_match(self, sim):
        with pytest.raises(ConfigurationError, match="links"):
            FanoutService(sim, [StubShard(sim, 1.0)], links=[None, None])

    def test_partial_fanout_needs_rng(self, sim):
        shards = [StubShard(sim, 1.0) for _ in range(4)]
        with pytest.raises(ConfigurationError, match="rng"):
            FanoutService(sim, shards, fanout=2)


class TestCompletionSemantics:
    def test_all_shard_barrier_completes_on_slowest(self, sim):
        service, _ = make_fanout(sim, [10.0, 50.0, 30.0])
        root, done = run_one(sim, service)
        assert len(done) == 1
        assert root.server_departure_us == 50.0
        assert root.service_us == 50.0

    def test_quorum_completes_at_qth_order_statistic(self, sim):
        service, _ = make_fanout(sim, [40.0, 10.0, 30.0, 20.0],
                                 quorum=2)
        root, done = run_one(sim, service)
        assert len(done) == 1
        # 2nd-fastest shard: sorted latencies [10, 20, 30, 40][1].
        assert root.server_departure_us == 20.0
        assert root.service_us == 20.0

    def test_stragglers_drain_without_double_completion(self, sim):
        service, shards = make_fanout(sim, [5.0, 100.0, 200.0],
                                      quorum=1)
        root, done = run_one(sim, service)
        # sim.run() drained everything: stragglers finished serving
        # but the root completed exactly once, at the fastest shard.
        assert len(done) == 1
        assert service.roots_completed == 1
        assert service.subs_completed == 3
        assert all(shard.served == 1 for shard in shards)
        assert root.server_departure_us == 5.0

    def test_aggregates_max_over_counted_responses_only(self, sim):
        service, _ = make_fanout(sim, [10.0, 20.0, 1_000.0], quorum=2)
        root, _ = run_one(sim, service)
        # The 1000us straggler arrives after the quorum and must not
        # inflate the root's service accounting.
        assert root.service_us == 20.0

    def test_per_shard_links_delay_both_directions(self, sim):
        shards = [StubShard(sim, 10.0)]
        link = NetworkLink(rng=None, mean_latency_us=7.0)
        service = FanoutService(sim, shards, links=[link])
        root, done = run_one(sim, service)
        # rng=None => deterministic mean latency each way, plus the
        # 2.0 KB payload's serialization cost (0.8 us/KB at 10 GbE).
        assert len(done) == 1
        assert root.server_departure_us == pytest.approx(
            10.0 + 2 * (7.0 + 2.0 * 0.8))

    def test_sub_requests_split_payload(self, sim):
        service, shards = make_fanout(sim, [1.0, 1.0, 1.0, 1.0])
        sizes = []
        original = StubShard.submit

        def spy(self, request, done_fn, *ctx):
            sizes.append(request.size_kb)
            original(self, request, done_fn, *ctx)

        StubShard.submit = spy
        try:
            run_one(sim, service)
        finally:
            StubShard.submit = original
        assert sizes == [0.5, 0.5, 0.5, 0.5]


class TestShardSelection:
    def test_full_fanout_touches_every_shard_in_order(self, sim):
        service, _ = make_fanout(sim, [1.0] * 5)
        assert service.select_shards() == [0, 1, 2, 3, 4]

    def test_partial_fanout_is_distinct_and_in_range(self, sim):
        service, _ = make_fanout(sim, [1.0] * 8, fanout=3, seed=5)
        for _ in range(50):
            chosen = service.select_shards()
            assert len(chosen) == 3
            assert len(set(chosen)) == 3
            assert all(0 <= index < 8 for index in chosen)

    def test_selection_is_seed_deterministic(self):
        first = make_fanout(Simulator(), [1.0] * 8, fanout=4,
                            seed=9)[0]
        second = make_fanout(Simulator(), [1.0] * 8, fanout=4,
                             seed=9)[0]
        assert ([first.select_shards() for _ in range(20)]
                == [second.select_shards() for _ in range(20)])

    def test_dispatch_counters_conserve_subrequests(self, sim):
        service, shards = make_fanout(sim, [1.0] * 6, fanout=2,
                                      quorum=1, seed=2)
        done = []
        for index in range(30):
            service.submit(Request(request_id=index), done.append)
        sim.run()
        assert len(done) == 30
        assert service.roots_completed == 30
        assert service.subs_issued == 60
        assert service.subs_completed == 60
        assert sum(service.shard_dispatched) == 60
        assert sum(shard.served for shard in shards) == 60


class TestMetrics:
    def test_node_utilizations_per_shard(self, sim):
        service, _ = make_fanout(sim, [1.0, 2.0, 3.0])
        assert service.node_utilizations() == (0.25, 0.25, 0.25)
        assert service.utilization() == pytest.approx(0.25)

    def test_expected_service_us(self, sim):
        service, _ = make_fanout(sim, [10.0, 30.0])
        assert service.expected_service_us() == pytest.approx(20.0)
