"""Tests for the network link and the request record."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.net.link import US_PER_KB_10GBE, NetworkLink
from repro.server.request import Request


class TestNetworkLink:
    def test_deterministic_without_rng(self, params):
        link = NetworkLink(params)
        assert link.sample_latency_us() == pytest.approx(
            params.network_one_way_us)

    def test_mean_matches_configuration(self, params, rng):
        link = NetworkLink(params, rng)
        draws = np.array([link.sample_latency_us() for _ in range(5000)])
        assert draws.mean() == pytest.approx(
            params.network_one_way_us, rel=0.05)

    def test_all_samples_positive(self, params, rng):
        link = NetworkLink(params, rng)
        assert all(link.sample_latency_us() > 0 for _ in range(500))

    def test_payload_adds_serialization(self, params):
        link = NetworkLink(params)
        plain = link.sample_latency_us(0.0)
        heavy = link.sample_latency_us(10.0)
        assert heavy - plain == pytest.approx(10.0 * US_PER_KB_10GBE)

    def test_custom_mean(self, params):
        link = NetworkLink(params, mean_latency_us=50.0)
        assert link.mean_latency_us == 50.0
        assert link.sample_latency_us() == pytest.approx(50.0)

    def test_invalid_mean_rejected(self, params):
        with pytest.raises(ValueError):
            NetworkLink(params, mean_latency_us=0.0)
        with pytest.raises(ReproError):
            NetworkLink(params, mean_latency_us=0.0)

    @pytest.mark.parametrize("mean_us", [float("nan"), float("inf")])
    def test_non_finite_mean_rejected(self, params, mean_us):
        with pytest.raises(ValueError, match="finite"):
            NetworkLink(params, mean_latency_us=mean_us)
        with pytest.raises(ReproError, match="finite"):
            NetworkLink(params, mean_latency_us=mean_us)

    def test_negative_payload_ignored(self, params):
        link = NetworkLink(params)
        assert link.sample_latency_us(-5.0) == pytest.approx(
            params.network_one_way_us)


class TestRequest:
    def make_request(self):
        return Request(
            request_id=1, size_kb=0.5,
            intended_send_us=100.0, actual_send_us=110.0,
            server_arrival_us=125.0, server_departure_us=140.0,
            client_nic_us=155.0, measured_complete_us=200.0)

    def test_send_error(self):
        assert self.make_request().send_error_us == pytest.approx(10.0)

    def test_true_latency_is_nic_minus_send(self):
        assert self.make_request().true_latency_us == pytest.approx(45.0)

    def test_measured_latency_is_generator_minus_send(self):
        assert self.make_request().measured_latency_us == pytest.approx(
            90.0)

    def test_client_overhead_is_the_difference(self):
        request = self.make_request()
        assert request.client_overhead_us == pytest.approx(
            request.measured_latency_us - request.true_latency_us)

    def test_validate_accepts_monotone_timeline(self):
        self.make_request().validate()

    def test_validate_rejects_time_travel(self):
        request = self.make_request()
        request.client_nic_us = 130.0  # before server departure
        with pytest.raises(ValueError):
            request.validate()
