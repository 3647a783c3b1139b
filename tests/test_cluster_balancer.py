"""LoadBalancer policies, accounting, and station-interface parity."""

import pytest

from repro.cluster import LoadBalancer
from repro.cluster.balancer import (
    least_outstanding_choice,
    power_of_two_choice,
)
from repro.errors import ConfigurationError
from repro.server.request import Request
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class StubBackend:
    """A fixed-delay server group with the station submit interface."""

    def __init__(self, sim, delay_us=10.0, util=0.5):
        self._sim = sim
        self.delay_us = delay_us
        self._util = util
        self.served = 0

    def submit(self, request, done_fn, *ctx):
        self.served += 1
        self._sim.post(self.delay_us, done_fn, request, *ctx)

    def utilization(self):
        return self._util

    def expected_service_us(self):
        return self.delay_us


def make_lb(sim, count=4, policy="round-robin", seed=0, delays=None):
    streams = RandomStreams(seed)
    backends = [
        StubBackend(sim, delay_us=(delays[i] if delays else 10.0),
                    util=0.1 * (i + 1))
        for i in range(count)
    ]
    return LoadBalancer(sim, backends, policy=policy,
                        rng=streams.stream("lb")), backends


def drive(sim, lb, count):
    done = []
    for index in range(count):
        lb.submit(Request(request_id=index), done.append)
    sim.run()
    return done


class TestConstruction:
    def test_needs_backends(self, sim):
        with pytest.raises(ConfigurationError, match="backend"):
            LoadBalancer(sim, [])

    def test_unknown_policy(self, sim):
        with pytest.raises(ConfigurationError, match="policy"):
            LoadBalancer(sim, [StubBackend(sim)], policy="best")

    @pytest.mark.parametrize("policy", ["random", "power-of-two"])
    def test_stochastic_policies_need_rng(self, sim, policy):
        with pytest.raises(ConfigurationError, match="rng"):
            LoadBalancer(sim, [StubBackend(sim)], policy=policy)

    def test_deterministic_policies_allow_no_rng(self, sim):
        for policy in ("round-robin", "least-outstanding"):
            LoadBalancer(sim, [StubBackend(sim)], policy=policy)


class TestRoundRobin:
    def test_cycles_in_order(self, sim):
        lb, _ = make_lb(sim, count=3)
        assert [lb.choose() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_dispatch_counts_balanced(self, sim):
        lb, backends = make_lb(sim, count=4)
        done = drive(sim, lb, 40)
        assert len(done) == 40
        assert lb.dispatched == [10, 10, 10, 10]
        assert [b.served for b in backends] == [10, 10, 10, 10]


class TestRandom:
    def test_choices_in_range_and_deterministic(self, sim):
        lb, _ = make_lb(sim, count=4, policy="random", seed=3)
        first = [lb.choose() for _ in range(50)]
        assert all(0 <= index < 4 for index in first)
        lb2, _ = make_lb(Simulator(), count=4, policy="random", seed=3)
        assert [lb2.choose() for _ in range(50)] == first

    def test_different_seeds_differ(self, sim):
        lb, _ = make_lb(sim, count=8, policy="random", seed=1)
        lb2, _ = make_lb(sim, count=8, policy="random", seed=2)
        assert ([lb.choose() for _ in range(40)]
                != [lb2.choose() for _ in range(40)])


class TestLeastOutstanding:
    def test_choice_function_argmin_lowest_index(self):
        assert least_outstanding_choice([3, 1, 1, 2]) == 1
        assert least_outstanding_choice([0]) == 0
        assert least_outstanding_choice([5, 5, 5]) == 0

    def test_never_picks_strictly_busier_node(self, sim):
        lb, _ = make_lb(sim, count=3, policy="least-outstanding",
                        delays=[5.0, 50.0, 500.0])
        violations = []

        def check(chosen, outstanding):
            if outstanding[chosen] != min(outstanding):
                violations.append((chosen, outstanding))

        lb.on_dispatch = check
        drive(sim, lb, 60)
        assert violations == []
        assert lb.completed == 60

    def test_skews_away_from_slow_backends(self, sim):
        lb, _ = make_lb(sim, count=2, policy="least-outstanding",
                        delays=[1.0, 10_000.0])
        for index in range(20):
            lb.submit(Request(request_id=index), lambda r: None)
            sim.run_until(sim.now + 5.0)
        assert lb.dispatched[0] > lb.dispatched[1]


class TestPowerOfTwo:
    def test_choice_function_prefers_less_loaded(self):
        assert power_of_two_choice([4, 1], 0, 1) == 1
        assert power_of_two_choice([1, 4], 0, 1) == 0
        # Tie: the first draw wins (no extra randomness consumed).
        assert power_of_two_choice([2, 2], 1, 0) == 1

    def test_dispatches_are_conserved(self, sim):
        lb, backends = make_lb(sim, count=4, policy="power-of-two",
                               seed=11)
        done = drive(sim, lb, 100)
        assert len(done) == 100
        assert sum(lb.dispatched) == 100
        assert sum(b.served for b in backends) == 100
        assert lb.outstanding == [0, 0, 0, 0]

    def test_candidate_pair_is_distinct(self, sim):
        """The classic p2c formulation compares two *different*
        backends; sampling with replacement would degenerate to a
        blind random pick whenever the pair collides."""
        lb, _ = make_lb(sim, count=2, policy="power-of-two", seed=1)
        # Load one backend heavily; a genuine pairwise comparison on
        # 2 nodes must now always pick the idle one.
        lb.outstanding[0] = 100
        assert all(lb.choose() == 1 for _ in range(50))

    def test_single_backend_needs_no_draws(self, sim):
        streams = RandomStreams(0)
        lb = LoadBalancer(sim, [StubBackend(sim)],
                          policy="power-of-two",
                          rng=streams.stream("lb"))
        assert [lb.choose() for _ in range(5)] == [0] * 5


class TestAccounting:
    def test_outstanding_tracks_in_flight(self, sim):
        lb, _ = make_lb(sim, count=2, delays=[100.0, 100.0])
        lb.submit(Request(request_id=0), lambda r: None)
        lb.submit(Request(request_id=1), lambda r: None)
        assert lb.outstanding == [1, 1]
        sim.run()
        assert lb.outstanding == [0, 0]
        assert lb.completed == 2

    def test_node_utilizations_and_mean(self, sim):
        lb, _ = make_lb(sim, count=4)
        assert lb.node_utilizations() == pytest.approx(
            (0.1, 0.2, 0.3, 0.4))
        assert lb.utilization() == pytest.approx(0.25)

    def test_expected_service_us_averages_backends(self, sim):
        lb, _ = make_lb(sim, count=2, delays=[10.0, 30.0])
        assert lb.expected_service_us() == pytest.approx(20.0)

    def test_on_dispatch_sees_pre_dispatch_outstanding(self, sim):
        lb, _ = make_lb(sim, count=2, delays=[100.0, 100.0])
        seen = []
        lb.on_dispatch = lambda chosen, outstanding: seen.append(
            (chosen, outstanding))
        lb.submit(Request(request_id=0), lambda r: None)
        lb.submit(Request(request_id=1), lambda r: None)
        assert seen == [(0, [0, 0]), (1, [1, 0])]
