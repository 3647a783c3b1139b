"""Property tests (hypothesis) for cluster invariants.

The ISSUE's three load-balancer laws, plus structural properties of
the shard-subset draw:

* request conservation -- every injected request completes exactly
  once, with no sub-request lost or duplicated across shards;
* least-outstanding never picks a strictly busier node;
* quorum completion time equals the Q-th order statistic of the
  shard latencies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterSpec,
    FanoutService,
    LB_POLICIES,
)
from repro.cluster.balancer import (
    least_outstanding_choice,
    power_of_two_choice,
)
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.registry import workload_by_name

outstanding_lists = st.lists(
    st.integers(min_value=0, max_value=1_000), min_size=1,
    max_size=32)


class TestChoiceFunctions:
    @given(outstanding_lists)
    @settings(max_examples=200, deadline=None)
    def test_least_outstanding_is_argmin(self, outstanding):
        chosen = least_outstanding_choice(outstanding)
        minimum = min(outstanding)
        assert outstanding[chosen] == minimum
        # Ties break to the lowest index, deterministically.
        assert chosen == outstanding.index(minimum)

    @given(outstanding_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_never_picks_the_busier_of_the_pair(
            self, outstanding, data):
        count = len(outstanding)
        first = data.draw(st.integers(0, count - 1))
        second = data.draw(st.integers(0, count - 1))
        chosen = power_of_two_choice(outstanding, first, second)
        assert chosen in (first, second)
        assert outstanding[chosen] <= max(
            outstanding[first], outstanding[second])
        assert outstanding[chosen] == min(
            outstanding[first], outstanding[second])


class TestShardSubsetProperties:
    @given(shards=st.integers(2, 16), seed=st.integers(0, 2**20),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_subset_is_distinct_in_range_and_right_sized(
            self, shards, seed, data):
        fanout = data.draw(st.integers(1, shards))
        sim = Simulator()
        service = FanoutService(
            sim, [object()] * shards, fanout=fanout, quorum=1,
            rng=RandomStreams(seed).stream("fanout"))
        chosen = service.select_shards()
        assert len(chosen) == fanout
        assert len(set(chosen)) == fanout
        assert all(0 <= index < shards for index in chosen)


class _DelayShard:
    def __init__(self, sim, delay_us):
        self._sim = sim
        self._delay = delay_us

    def submit(self, request, done_fn, *ctx):
        def finish(job):
            job.service_us += self._delay
            done_fn(job, *ctx)
        self._sim.post(self._delay, finish, request)


class TestQuorumOrderStatistic:
    @given(
        delays=st.lists(
            st.floats(min_value=0.5, max_value=10_000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_completion_time_is_qth_order_statistic(self, delays,
                                                    data):
        quorum = data.draw(st.integers(1, len(delays)))
        sim = Simulator()
        service = FanoutService(
            sim, [_DelayShard(sim, d) for d in delays],
            quorum=quorum)
        completions = []
        service.submit(Request(request_id=0),
                       lambda r: completions.append(sim.now))
        sim.run()
        assert completions == [sorted(delays)[quorum - 1]]


def _small_cluster_metrics(nodes, shards, fanout, quorum, policy,
                           seed):
    testbed = workload_by_name("synthetic").build_testbed(
        seed=seed, client_config=LP_CLIENT,
        server_config=SERVER_BASELINE, qps=20_000.0,
        num_requests=40,
        cluster=ClusterSpec(nodes=nodes, shards=shards,
                            fanout=fanout, quorum=quorum,
                            lb_policy=policy))
    metrics = testbed.run()
    return testbed, metrics


class TestEndToEndConservation:
    @given(
        policy=st.sampled_from(LB_POLICIES),
        nodes=st.integers(2, 4),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_load_balanced_requests_conserve(self, policy, nodes,
                                             seed):
        testbed, metrics = _small_cluster_metrics(
            nodes, 1, 0, 0, policy, seed)
        balancer = testbed.service
        assert testbed.generator.completed == 40
        assert balancer.completed == 40
        assert sum(balancer.dispatched) == 40
        assert balancer.outstanding == [0] * nodes
        assert metrics.requests == 36  # post-warmup samples
        assert len(metrics.node_utilizations) == nodes

    @given(
        shards=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_fanout_requests_conserve_without_duplicates(
            self, shards, seed, data):
        fanout = data.draw(st.integers(1, shards))
        quorum = data.draw(st.integers(1, fanout))
        testbed, metrics = _small_cluster_metrics(
            1, shards, fanout, quorum, "round-robin", seed)
        service = testbed.service
        assert testbed.generator.completed == 40
        assert service.roots_completed == 40
        assert service.subs_issued == 40 * fanout
        assert service.subs_completed == service.subs_issued
        assert sum(service.shard_dispatched) == service.subs_issued
        assert metrics.requests == 36

    def test_replication_only_group_is_a_plain_replica_balancer(self):
        """Replication without sharding must not pay the fan-out
        lifecycle (sub-requests, shard links): the group is just a
        balancer over the replicas, like the nodes= layout."""
        from repro.cluster import LoadBalancer

        testbed = workload_by_name("synthetic").build_testbed(
            seed=1, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE, qps=20_000.0,
            num_requests=40,
            cluster=ClusterSpec(replication=2,
                                lb_policy="least-outstanding"))
        balancer = testbed.service
        assert isinstance(balancer, LoadBalancer)
        assert balancer.num_backends == 2
        metrics = testbed.run()
        assert metrics.requests == 36
        assert sum(balancer.dispatched) == 40
        assert len(metrics.node_utilizations) == 2

    def test_least_outstanding_invariant_holds_in_real_run(self):
        testbed, _ = _small_cluster_metrics(
            3, 1, 0, 0, "least-outstanding", seed=5)
        # Re-run a fresh testbed with the dispatch hook armed.
        testbed = workload_by_name("synthetic").build_testbed(
            seed=5, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE, qps=40_000.0,
            num_requests=120,
            cluster=ClusterSpec(nodes=3,
                                lb_policy="least-outstanding"))
        violations = []

        def check(chosen, outstanding):
            if outstanding[chosen] != min(outstanding):
                violations.append((chosen, outstanding))

        testbed.service.on_dispatch = check
        testbed.run()
        assert violations == []
        assert sum(testbed.service.dispatched) == 120
