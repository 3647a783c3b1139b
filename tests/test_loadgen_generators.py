"""Tests for client machines and open/closed-loop generators."""

import pytest

from repro.config.presets import HP_CLIENT, LP_CLIENT, SERVER_BASELINE
from repro.errors import ConfigurationError
from repro.loadgen.base import GeneratorDesign
from repro.loadgen.client_machine import ClientMachine
from repro.loadgen.closed_loop import ClosedLoopGenerator
from repro.loadgen.interarrival import ExponentialInterarrival
from repro.loadgen.open_loop import OpenLoopGenerator
from repro.net.link import NetworkLink
from repro.parameters import DEFAULT_PARAMETERS
from repro.server.service import FixedService
from repro.server.station import ServiceStation


def make_setup(sim, streams, client_config=HP_CLIENT,
               time_sensitive=True, machines=1):
    station = ServiceStation(
        sim, SERVER_BASELINE, FixedService(10.0), workers=4,
        rng=streams.get("service"))
    clients = [
        ClientMachine(sim, client_config, time_sensitive=time_sensitive,
                      rng=streams.get(f"client-{index}"),
                      name=f"client-{index}")
        for index in range(machines)
    ]
    link = NetworkLink(DEFAULT_PARAMETERS, streams.get("network"))
    return station, clients, link


class TestGeneratorDesign:
    def test_describe_matches_paper_wording(self):
        design = GeneratorDesign(loop="open", time_sensitive=True)
        assert design.describe() == "open-loop time-sensitive"
        assert design.interarrival_impl == "block-wait"

    def test_busy_wait_wording(self):
        design = GeneratorDesign(loop="open", time_sensitive=False)
        assert design.describe() == "open-loop time-insensitive"
        assert design.interarrival_impl == "busy-wait"

    def test_invalid_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneratorDesign(loop="weird", time_sensitive=True)


class TestOpenLoop:
    def test_all_requests_complete(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        generator = OpenLoopGenerator(
            sim, clients, station, link, link,
            ExponentialInterarrival(10_000), streams.get("arrivals"),
            time_sensitive=True, num_requests=50)
        generator.start()
        sim.run()
        assert generator.completed == 50
        assert len(generator.samples) == 50

    def test_timestamps_monotone_per_request(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        generator = OpenLoopGenerator(
            sim, clients, station, link, link,
            ExponentialInterarrival(10_000), streams.get("arrivals"),
            time_sensitive=True, num_requests=30)
        generator.start()
        sim.run()
        for request in generator.samples.measured_requests():
            request.validate()

    def test_measured_latency_exceeds_true_latency(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        generator = OpenLoopGenerator(
            sim, clients, station, link, link,
            ExponentialInterarrival(10_000), streams.get("arrivals"),
            time_sensitive=True, num_requests=30)
        generator.start()
        sim.run()
        overheads = generator.samples.client_overheads_us()
        assert (overheads >= 0).all()
        assert overheads.mean() > 0

    def test_round_robin_over_machines(self, sim, streams):
        station, clients, link = make_setup(sim, streams, machines=3)
        generator = OpenLoopGenerator(
            sim, clients, station, link, link,
            ExponentialInterarrival(10_000), streams.get("arrivals"),
            time_sensitive=True, num_requests=30)
        generator.start()
        sim.run()
        assert all(c.requests_sent == 10 for c in clients)

    def test_design_mismatch_rejected(self, sim, streams):
        station, clients, link = make_setup(sim, streams,
                                            time_sensitive=True)
        with pytest.raises(ConfigurationError):
            OpenLoopGenerator(
                sim, clients, station, link, link,
                ExponentialInterarrival(10_000), streams.get("arrivals"),
                time_sensitive=False, num_requests=10)

    def test_zero_requests_rejected(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        with pytest.raises(ConfigurationError):
            OpenLoopGenerator(
                sim, clients, station, link, link,
                ExponentialInterarrival(10_000), streams.get("arrivals"),
                time_sensitive=True, num_requests=0)

    def test_busy_wait_sends_exactly_on_time(self, sim, streams):
        """A time-insensitive generator's sends track the schedule
        modulo only the (deterministic-rate) send processing."""
        station, clients, link = make_setup(
            sim, streams, time_sensitive=False)
        generator = OpenLoopGenerator(
            sim, clients, station, link, link,
            ExponentialInterarrival(5_000), streams.get("arrivals"),
            time_sensitive=False, num_requests=20)
        generator.start()
        sim.run()
        errors = generator.samples.send_errors_us()
        # Only the send-path work itself (a few us at most).
        assert errors.max() < 5.0

    def test_block_wait_sends_late(self, sim, streams):
        station, clients, link = make_setup(
            sim, streams, client_config=LP_CLIENT, time_sensitive=True)
        generator = OpenLoopGenerator(
            sim, clients, station, link, link,
            ExponentialInterarrival(5_000), streams.get("arrivals"),
            time_sensitive=True, num_requests=20)
        generator.start()
        sim.run()
        errors = generator.samples.send_errors_us()
        assert errors.mean() > 5.0  # slack + wake + slow work


class TestClosedLoop:
    def test_all_requests_complete(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        generator = ClosedLoopGenerator(
            sim, clients, station, link, link,
            connections=4, think_time_us=100.0,
            think_rng=streams.get("think"),
            time_sensitive=True, num_requests=40)
        generator.start()
        sim.run()
        assert generator.completed == 40

    def test_outstanding_bounded_by_connections(self, sim, streams):
        """With 1 connection, requests are strictly sequential."""
        station, clients, link = make_setup(sim, streams)
        generator = ClosedLoopGenerator(
            sim, clients, station, link, link,
            connections=1, think_time_us=0.0, think_rng=None,
            time_sensitive=True, num_requests=10)
        generator.start()
        sim.run()
        requests = sorted(generator.samples.measured_requests(),
                          key=lambda r: r.intended_send_us)
        for earlier, later in zip(requests, requests[1:]):
            assert (later.actual_send_us
                    >= earlier.measured_complete_us - 1e-9)

    def test_invalid_connections_rejected(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        with pytest.raises(ConfigurationError):
            ClosedLoopGenerator(
                sim, clients, station, link, link,
                connections=0, think_time_us=0.0, think_rng=None,
                time_sensitive=True, num_requests=10)

    def test_negative_think_time_rejected(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        with pytest.raises(ConfigurationError):
            ClosedLoopGenerator(
                sim, clients, station, link, link,
                connections=1, think_time_us=-1.0, think_rng=None,
                time_sensitive=True, num_requests=10)

    def test_design_is_closed_loop(self, sim, streams):
        station, clients, link = make_setup(sim, streams)
        generator = ClosedLoopGenerator(
            sim, clients, station, link, link,
            connections=2, think_time_us=0.0, think_rng=None,
            time_sensitive=True, num_requests=4)
        assert generator.design.loop == "closed"
