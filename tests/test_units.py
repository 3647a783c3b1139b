"""Tests for repro.units."""


import pytest

from repro import units
from repro.errors import ConfigurationError, ReproError


class TestTimeHelpers:
    def test_us_is_identity(self):
        assert units.us(3.5) == 3.5

    def test_ms_scales_by_thousand(self):
        assert units.ms(2) == 2000.0

    def test_seconds_scale(self):
        assert units.seconds(1) == 1_000_000.0

    def test_to_ms_roundtrip(self):
        assert units.to_ms(units.ms(7.25)) == pytest.approx(7.25)

    def test_to_seconds_roundtrip(self):
        assert units.to_seconds(units.seconds(0.5)) == pytest.approx(0.5)


class TestRates:
    def test_qps_to_interarrival(self):
        assert units.qps_to_interarrival_us(1_000_000) == pytest.approx(1.0)

    def test_interarrival_to_qps(self):
        assert units.interarrival_us_to_qps(10.0) == pytest.approx(100_000)

    def test_roundtrip(self):
        qps = 123_456.0
        assert units.interarrival_us_to_qps(
            units.qps_to_interarrival_us(qps)) == pytest.approx(qps)

    def test_zero_qps_rejected(self):
        with pytest.raises(ValueError):
            units.qps_to_interarrival_us(0)
        with pytest.raises(ReproError):
            units.qps_to_interarrival_us(0)

    @pytest.mark.parametrize("qps", [float("nan"), float("inf")])
    def test_non_finite_qps_rejected(self, qps):
        # NaN used to come back as a NaN gap, infinity as 0.0.
        with pytest.raises(ValueError, match="finite"):
            units.qps_to_interarrival_us(qps)
        with pytest.raises(ConfigurationError, match="finite"):
            units.qps_to_interarrival_us(qps)

    def test_negative_interarrival_rejected(self):
        with pytest.raises(ValueError):
            units.interarrival_us_to_qps(-1.0)
        with pytest.raises(ReproError):
            units.interarrival_us_to_qps(-1.0)


class TestWorkScaling:
    def test_same_frequency_is_identity(self):
        assert units.work_cycles_us(10.0, 2.2, 2.2) == pytest.approx(10.0)

    def test_lower_frequency_takes_longer(self):
        slow = units.work_cycles_us(10.0, 2.2, 0.8)
        assert slow == pytest.approx(27.5)

    def test_higher_frequency_is_faster(self):
        fast = units.work_cycles_us(10.0, 2.2, 3.0)
        assert fast < 10.0

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            units.work_cycles_us(10.0, 2.2, 0.0)
        with pytest.raises(ReproError):
            units.work_cycles_us(10.0, 0.0, 2.2)

    def test_work_scales_linearly(self):
        one = units.work_cycles_us(1.0, 2.2, 1.1)
        ten = units.work_cycles_us(10.0, 2.2, 1.1)
        assert ten == pytest.approx(10 * one)
