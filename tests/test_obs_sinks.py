"""Tests for telemetry sinks: streaming accuracy vs the exact path."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import experiment
from repro.errors import SpecValidationError
from repro.loadgen.measurement import PointOfMeasurement, RunSamples
from repro.obs import (
    P2Quantile,
    StreamingSink,
    describe_sink,
    make_sink,
    sink_names,
    validate_sink_name,
)
from repro.obs.sinks import DEFAULT_QUANTILES, _RunningMoments
from repro.parallel.runner import run_shard
from repro.parallel.shard import shard_layout


class TestRegistry:
    def test_known_names(self):
        assert sink_names() == ("columnar", "streaming")
        assert "exact" in describe_sink("columnar")
        assert "O(1)" in describe_sink("streaming")

    def test_did_you_mean_suggestion(self):
        with pytest.raises(SpecValidationError,
                           match="did you mean 'streaming'"):
            validate_sink_name("streamin")

    def test_unknown_name_lists_registry(self):
        with pytest.raises(SpecValidationError,
                           match="columnar, streaming"):
            validate_sink_name("parquet")

    def test_make_sink_constructs_both(self):
        assert isinstance(make_sink("columnar", 100), RunSamples)
        assert isinstance(make_sink("streaming", 100), StreamingSink)


class TestRunningMomentsProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=1e6),
                    min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_mean_and_variance_match_numpy(self, values):
        moments = _RunningMoments()
        for value in values:
            moments.observe(value)
        array = np.asarray(values)
        assert moments.mean == pytest.approx(
            float(np.mean(array)), rel=1e-9)
        assert moments.variance() == pytest.approx(
            float(np.var(array)), rel=1e-7, abs=1e-9)
        assert moments.min == float(np.min(array))
        assert moments.max == float(np.max(array))


class TestP2QuantileProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_tracks_numpy_quantile_on_lognormal(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(mean=4.0, sigma=0.5, size=5_000)
        p50 = P2Quantile(0.5)
        p99 = P2Quantile(0.99)
        for x in data:
            p50.observe(float(x))
            p99.observe(float(x))
        assert p50.value() == pytest.approx(
            float(np.percentile(data, 50)), rel=0.05)
        # The P2 tail estimate on heavy-tailed data is much looser
        # than the median: across the whole seed range above the
        # worst p99 error is ~20% (e.g. seeds 53, 1183, 7739).
        assert p99.value() == pytest.approx(
            float(np.percentile(data, 99)), rel=0.25)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                    min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_estimate_stays_within_observed_range(self, values):
        estimator = P2Quantile(0.9)
        for value in values:
            estimator.observe(value)
        assert min(values) <= estimator.value() <= max(values)

    def test_small_samples_interpolate_exactly(self):
        estimator = P2Quantile(0.5)
        for value in (3.0, 1.0, 2.0):
            estimator.observe(value)
        assert estimator.value() == 2.0

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(1.0)
        with pytest.raises(ValueError):
            P2Quantile(0.0)


def _reference_estimator(p):
    """A P2 estimator for the oracle below, its marker positions
    integers as in the textbook, whatever representation
    :meth:`P2Quantile.observe_many` keeps them in."""
    estimator = P2Quantile(p)
    estimator._n = [0, 1, 2, 3, 4]
    return estimator


def _reference_observe(estimator, x):
    """The per-value P2 update, one marker list access at a time: the
    oracle :meth:`P2Quantile.observe_many` must reproduce exactly."""
    estimator.count += 1
    q = estimator._q
    if estimator.count <= 5:
        q.append(x)
        if estimator.count == 5:
            q.sort()
        return
    n = estimator._n
    if x < q[0]:
        q[0] = x
        k = 0
    elif x >= q[4]:
        q[4] = x
        k = 3
    else:
        k = 0
        while x >= q[k + 1]:
            k += 1
    for i in range(k + 1, 5):
        n[i] += 1
    desired = estimator._desired
    for i in range(5):
        desired[i] += estimator._rate[i]
    for i in (1, 2, 3):
        d = desired[i] - n[i]
        if ((d >= 1.0 and n[i + 1] - n[i] > 1)
                or (d <= -1.0 and n[i - 1] - n[i] < -1)):
            step = 1 if d >= 1.0 else -1
            candidate = q[i] + step / (n[i + 1] - n[i - 1]) * (
                (n[i] - n[i - 1] + step) * (q[i + 1] - q[i])
                / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1])
                / (n[i] - n[i - 1]))
            if q[i - 1] < candidate < q[i + 1]:
                q[i] = candidate
            else:
                q[i] = q[i] + step * (q[i + step] - q[i]) / (
                    n[i + step] - n[i])
            n[i] += step


def _marker_bits(estimator):
    """Estimator state: heights and desired positions by bit pattern
    (NaN and -0.0 count), positions as numbers."""
    return (estimator.count,
            [float(v).hex() for v in estimator._q],
            list(estimator._n),
            [v.hex() for v in estimator._desired])


def _assert_exports_int_positions(estimator):
    positions = estimator.marker_state()["positions"]
    assert all(type(n) is int for n in positions), positions


#: Streams of constant runs: ties, long plateaus, any float, and
#: lengths from empty up through the five-value marker seeding.
_RUN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1.0, max_value=1e4),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e3]))
_STREAMS = st.lists(
    st.tuples(_RUN_VALUES, st.integers(min_value=1, max_value=12)),
    max_size=80).map(
        lambda runs: [value for value, length in runs
                      for _ in range(length)])


class TestP2ChunkedIngestMatchesPerValue:
    """``observe_many`` keeps the markers in locals and unrolls the
    cell search and the three marker adjustments; any chunking must
    leave bit-for-bit the state of the per-value reference update."""

    @staticmethod
    def _assert_matches_reference(values):
        for pct in DEFAULT_QUANTILES:
            expected = _reference_estimator(pct / 100.0)
            for value in values:
                _reference_observe(expected, value)
            for chunk in (1, 7, 256):
                estimator = P2Quantile(pct / 100.0)
                for start in range(0, len(values), chunk):
                    estimator.observe_many(values[start:start + chunk])
                assert _marker_bits(estimator) == _marker_bits(expected), (
                    pct, chunk)
                _assert_exports_int_positions(estimator)
                assert (estimator.marker_state()
                        == expected.marker_state()), (pct, chunk)

    @given(_STREAMS)
    @settings(max_examples=150, deadline=None)
    def test_any_stream_any_chunking(self, values):
        self._assert_matches_reference(values)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lognormal_stream(self, seed):
        # Long enough that all three interior markers move on the same
        # observation many times, so their update order is exercised.
        rng = np.random.default_rng(seed)
        self._assert_matches_reference(
            rng.lognormal(mean=4.0, sigma=0.5, size=3_000).tolist())

    def test_single_value_observe_is_the_same_body(self):
        values = np.random.default_rng(2).exponential(size=500).tolist()
        expected = _reference_estimator(0.99)
        estimator = P2Quantile(0.99)
        for value in values:
            _reference_observe(expected, value)
            estimator.observe(value)
        assert _marker_bits(estimator) == _marker_bits(expected)
        _assert_exports_int_positions(estimator)

    def test_sharded_export_state_is_pinned(self):
        """A sharded streaming run's exported state, integer marker
        positions included, is pinned byte for byte (digests of its
        sorted-key JSON, one per shard)."""
        plan = (experiment("memcached").client("LP")
                .graph("memcached-cached")
                .load(qps=200_000, num_requests=3_000)
                .policy(runs=1, base_seed=3, sink="streaming", workers=2)
                .build())
        digests = []
        for shard in shard_layout(plan.load.num_requests,
                                  plan.policy.workers):
            text = json.dumps(run_shard(plan, 3, shard)["state"],
                              sort_keys=True)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        assert digests == [
            "9f86bd1d2b8b16ef21b6fde5af0f3619"
            "297d2b614c18362c27af58750e580f59",
            "032bcf1936ac12d63c17964aaa8dba8f"
            "abcae053373847e984f6622f3e98eb99",
        ]


class TestStreamingSinkUnit:
    def test_validates_constructor_arguments(self):
        with pytest.raises(ValueError):
            StreamingSink(0)
        with pytest.raises(ValueError):
            StreamingSink(100, warmup_fraction=1.0)
        with pytest.raises(ValueError):
            StreamingSink(100, quantiles=(0.0,))
        with pytest.raises(ValueError):
            StreamingSink(100, target_windows=0)

    def test_untracked_percentile_raises(self):
        sink = StreamingSink(100, quantiles=(99.0,))
        with pytest.raises(ValueError, match="not tracked"):
            sink.percentile_latency_us(75.0)


class TestStreamingVsExact:
    """The documented accuracy contract, on real testbed runs."""

    @pytest.fixture(scope="class")
    def pair(self):
        def run(sink):
            plan = (experiment("memcached").client("LP")
                    .load(qps=300_000, num_requests=100_000)
                    .policy(runs=1, base_seed=7, sink=sink)
                    .build())
            testbed = plan.testbed(7)
            metrics = testbed.run()
            return metrics, testbed.generator.samples

        exact_metrics, exact_samples = run("columnar")
        stream_metrics, stream_samples = run("streaming")
        return (exact_metrics, exact_samples,
                stream_metrics, stream_samples)

    def test_sample_counts_match(self, pair):
        exact_metrics, exact_samples, stream_metrics, stream = pair
        assert isinstance(stream, StreamingSink)
        assert len(stream) == len(exact_samples)
        assert stream.measured_count == exact_samples.measured_count
        assert stream_metrics.requests == exact_metrics.requests

    def test_mean_exact_up_to_float_order(self, pair):
        exact_metrics, _, stream_metrics, _ = pair
        assert stream_metrics.avg_us == pytest.approx(
            exact_metrics.avg_us, rel=1e-9)
        assert stream_metrics.true_avg_us == pytest.approx(
            exact_metrics.true_avg_us, rel=1e-9)

    def test_quantiles_within_documented_tolerance(self, pair):
        exact_metrics, exact_samples, stream_metrics, stream = pair
        assert stream_metrics.p99_us == pytest.approx(
            exact_metrics.p99_us, rel=0.02)
        assert stream_metrics.true_p99_us == pytest.approx(
            exact_metrics.true_p99_us, rel=0.02)
        assert stream.percentile_latency_us(50.0) == pytest.approx(
            exact_samples.percentile_latency_us(50.0), rel=0.02)

    def test_variance_matches_exact_path(self, pair):
        _, exact_samples, _, stream = pair
        latencies = exact_samples.latencies_us(
            PointOfMeasurement.GENERATOR)
        assert stream.variance_us2() == pytest.approx(
            float(np.var(latencies)), rel=1e-7)

    def test_kernel_point_is_constant_shift_of_nic(self, pair):
        _, exact_samples, _, stream = pair
        assert stream.average_latency_us(
            PointOfMeasurement.KERNEL) == pytest.approx(
            exact_samples.average_latency_us(
                PointOfMeasurement.KERNEL), rel=1e-9)

    def test_windowed_series_is_bounded_and_covers_run(self, pair):
        _, _, _, stream = pair
        assert 0 < len(stream.windows) <= 2 * 128
        covered = sum(window[2] for window in stream.windows)
        # Flushed windows cover all but the (unflushed) tail.
        assert covered >= stream.measured_count - stream._window_requests
        for start, end, count, mean, peak in stream.windows:
            assert end >= start and count > 0
            assert peak >= mean > 0


class TestGoldenObsOff:
    """Observability off must leave the exact path byte-for-byte alone."""

    def test_default_plan_uses_columnar_and_no_obs(self):
        plan = (experiment("memcached").client("LP")
                .load(qps=50_000, num_requests=200)
                .policy(runs=1, base_seed=3)
                .build())
        assert plan.policy.sink == "columnar"
        assert plan.policy.trace is False
        assert plan.policy.observed is False
        assert plan.policy.observability() is None
        testbed = plan.testbed(3)
        assert testbed.sim.obs is None
        assert isinstance(testbed.generator.samples, RunSamples)
        metrics = testbed.run()
        assert metrics.obs_metrics == ()
