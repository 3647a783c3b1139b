"""Tests for points of measurement and run-sample collection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientSamplesError
from repro.loadgen.measurement import (
    RECORD_CHUNK,
    PointOfMeasurement,
    RunSamples,
    latency_at_point,
)
from repro.parameters import DEFAULT_PARAMETERS
from repro.server.request import Request
from repro.telemetry.columns import COLUMN_FIELDS, SampleColumns


def make_request(index, send=0.0, nic=50.0, measured=80.0):
    return Request(
        request_id=index,
        intended_send_us=send, actual_send_us=send,
        client_nic_us=nic, measured_complete_us=measured)


class TestLatencyAtPoint:
    def test_nic_point_is_true_latency(self):
        request = make_request(0)
        assert latency_at_point(
            request, PointOfMeasurement.NIC) == pytest.approx(50.0)

    def test_kernel_point_adds_rx_stack(self):
        request = make_request(0)
        assert latency_at_point(
            request, PointOfMeasurement.KERNEL) == pytest.approx(
            50.0 + DEFAULT_PARAMETERS.kernel_stack_us)

    def test_generator_point_is_measured(self):
        request = make_request(0)
        assert latency_at_point(
            request, PointOfMeasurement.GENERATOR) == pytest.approx(80.0)

    def test_ordering_nic_kernel_generator(self):
        request = make_request(0)
        nic = latency_at_point(request, PointOfMeasurement.NIC)
        kernel = latency_at_point(request, PointOfMeasurement.KERNEL)
        generator = latency_at_point(
            request, PointOfMeasurement.GENERATOR)
        assert nic < kernel < generator


class TestRunSamples:
    def test_warmup_trims_leading_fraction(self):
        samples = RunSamples(warmup_fraction=0.2)
        for index in range(10):
            samples.record(make_request(index, send=float(index)))
        assert samples.warmup_count == 2
        assert len(samples.measured_requests()) == 8

    def test_measured_requests_sorted_by_send(self):
        samples = RunSamples(warmup_fraction=0.0)
        samples.record(make_request(1, send=10.0))
        samples.record(make_request(0, send=5.0))
        sends = [r.intended_send_us for r in samples.measured_requests()]
        assert sends == [5.0, 10.0]

    def test_average_and_percentile(self):
        samples = RunSamples(warmup_fraction=0.0)
        for index in range(100):
            samples.record(make_request(
                index, send=float(index),
                measured=float(index) + 10.0 + index * 0.0))
        assert samples.average_latency_us() == pytest.approx(10.0)
        assert samples.percentile_latency_us(99.0) == pytest.approx(10.0)

    def test_percentile_validation(self):
        samples = RunSamples(warmup_fraction=0.0)
        samples.record(make_request(0))
        with pytest.raises(ValueError):
            samples.percentile_latency_us(0.0)

    def test_empty_samples_raise(self):
        with pytest.raises(InsufficientSamplesError):
            RunSamples().latencies_us()

    def test_invalid_warmup_fraction(self):
        with pytest.raises(ValueError):
            RunSamples(warmup_fraction=1.0)

    def test_send_errors_and_overheads(self):
        samples = RunSamples(warmup_fraction=0.0)
        request = Request(
            request_id=0, intended_send_us=0.0, actual_send_us=5.0,
            client_nic_us=50.0, measured_complete_us=80.0)
        samples.record(request)
        assert samples.send_errors_us()[0] == pytest.approx(5.0)
        # overhead = measured (80-5=75) - true (50-5=45) = 30.
        assert samples.client_overheads_us()[0] == pytest.approx(30.0)


class TestColumnarSamples:
    """The struct-of-arrays backing of RunSamples."""

    def test_requests_are_not_retained(self):
        samples = RunSamples(warmup_fraction=0.0)
        request = make_request(0)
        samples.record(request)
        rebuilt = samples.measured_requests()[0]
        assert rebuilt is not request
        assert rebuilt.measured_complete_us == request.measured_complete_us

    def test_measured_count_matches_measured_requests(self):
        samples = RunSamples(warmup_fraction=0.2)
        for index in range(10):
            samples.record(make_request(index, send=float(index)))
        assert samples.measured_count == 8
        assert samples.measured_count == len(samples.measured_requests())

    def test_columns_expose_raw_timestamps(self):
        samples = RunSamples(warmup_fraction=0.0)
        samples.record(make_request(0, send=5.0))
        assert samples.columns.column("intended_send_us")[0] == 5.0

    def test_latency_arrays_are_cached(self):
        samples = RunSamples(warmup_fraction=0.0)
        for index in range(4):
            samples.record(make_request(index, send=float(index)))
        assert samples.latencies_us() is samples.latencies_us()
        assert samples.send_errors_us() is samples.send_errors_us()

    def test_record_invalidates_caches(self):
        samples = RunSamples(warmup_fraction=0.0)
        samples.record(make_request(0, send=0.0, measured=80.0))
        first = samples.latencies_us()
        samples.record(make_request(1, send=1.0, measured=90.0))
        second = samples.latencies_us()
        assert first is not second
        assert len(second) == 2

    def test_cached_arrays_are_read_only(self):
        samples = RunSamples(warmup_fraction=0.0)
        samples.record(make_request(0))
        array = samples.latencies_us()
        with pytest.raises(ValueError):
            array[0] = 0.0

    def test_kernel_point_is_vectorized_identically(self):
        samples = RunSamples(warmup_fraction=0.0)
        for index in range(3):
            samples.record(make_request(index, send=float(index)))
        kernel = samples.latencies_us(PointOfMeasurement.KERNEL)
        nic = samples.latencies_us(PointOfMeasurement.NIC)
        expected = nic + DEFAULT_PARAMETERS.kernel_stack_us
        assert np.array_equal(kernel, expected)

    def test_sort_order_matches_object_path(self):
        """Ties on intended send keep insertion order (stable sort),
        exactly like the seed's sorted(key=...)."""
        samples = RunSamples(warmup_fraction=0.0)
        samples.record(make_request(0, send=10.0))
        samples.record(make_request(1, send=5.0))
        samples.record(make_request(2, send=5.0))
        ids = [r.request_id for r in samples.measured_requests()]
        assert ids == [1, 2, 0]


#: Every RunSamples reader, each returning a plain comparable value.
READERS = {
    "len": len,
    "columns": lambda samples: [
        samples.columns.column(name).tolist() for name in COLUMN_FIELDS],
    "warmup_count": lambda samples: samples.warmup_count,
    "measured_count": lambda samples: samples.measured_count,
    "measured_order": lambda samples: samples.measured_order().tolist(),
    "measured_requests": lambda samples: [
        [getattr(request, name) for name in COLUMN_FIELDS]
        for request in samples.measured_requests()],
    **{f"latencies_{point.value}":
       (lambda samples, point=point: samples.latencies_us(point).tolist())
       for point in PointOfMeasurement},
    "send_errors": lambda samples: samples.send_errors_us().tolist(),
    "client_overheads": (
        lambda samples: samples.client_overheads_us().tolist()),
}


def _read(samples, reader):
    try:
        return READERS[reader](samples)
    except InsufficientSamplesError:
        return "insufficient samples"


def _random_request(rng, index):
    # A coarse send grid makes ties, which the stable sort must keep
    # in record order.
    send = float(rng.integers(0, 40)) * 2.5
    actual = send + float(rng.random())
    nic = actual + 20.0 + 30.0 * float(rng.random())
    return Request(
        request_id=index, size_kb=float(rng.random()),
        intended_send_us=send, actual_send_us=actual,
        server_arrival_us=actual + 10.0,
        queue_wait_us=float(rng.random()),
        service_us=5.0 + float(rng.random()),
        server_departure_us=nic - 10.0, client_nic_us=nic,
        measured_complete_us=nic + 5.0 * float(rng.random()))


class TestBatchedRecording:
    """The fused kernel records through record_batch: completions
    buffer, go in RECORD_CHUNK at a time, and the buffer is flushed
    before anything reads the samples.  Every reader must then see
    exactly what one SampleColumns.append per completion produces."""

    @pytest.mark.parametrize("count", [
        1, RECORD_CHUNK - 1, RECORD_CHUNK, RECORD_CHUNK + 1,
        3 * RECORD_CHUNK + 17])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           warmup=st.sampled_from([0.0, 0.1, 0.5]),
           reads=st.lists(
               st.tuples(st.integers(0, 3 * RECORD_CHUNK + 17),
                         st.sampled_from(sorted(READERS))),
               max_size=12))
    def test_batches_interleaved_with_reads_match_appends(
            self, count, seed, warmup, reads):
        rng = np.random.default_rng(seed)
        samples = RunSamples(warmup_fraction=warmup)
        appended = SampleColumns()
        pending = []
        schedule = sorted((position % (count + 1), reader)
                          for position, reader in reads)
        # Every reader once more after the last record.
        schedule += [(count, reader) for reader in sorted(READERS)]
        recorded = 0
        for position, reader in schedule:
            while recorded < position:
                request = _random_request(rng, recorded)
                pending.append(request)
                appended.append(request)
                recorded += 1
                if len(pending) == RECORD_CHUNK:
                    samples.record_batch(pending)
                    pending = []
            samples.record_batch(pending)
            pending = []
            # A fresh wrapper: its derived-array caches start empty.
            expected = _read(
                RunSamples.from_columns(appended, warmup), reader)
            assert _read(samples, reader) == expected, (
                f"{reader} after {recorded} records")
