"""Tests for the ETC workload model and the LSH index substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams
from repro.workloads.etc import ETC_GET_FRACTION, EtcWorkload
from repro.workloads.hdsearch_lsh import (
    LshConfig,
    LshIndex,
    default_candidate_counts,
    default_index,
)


class TestEtcWorkload:
    def test_key_sizes_in_published_range(self, rng):
        etc = EtcWorkload(rng)
        sizes = [etc.sample_key_size_b() for _ in range(2000)]
        assert all(16 <= s <= 250 for s in sizes)

    def test_value_sizes_heavy_tailed(self, rng):
        etc = EtcWorkload(rng)
        sizes = np.array([etc.sample_value_size_b()
                          for _ in range(5000)])
        assert np.median(sizes) < 1000      # body is small
        assert sizes.max() > 5000           # tail exists
        assert (sizes >= 1).all()

    def test_get_fraction_matches_mix(self, rng):
        etc = EtcWorkload(rng)
        gets = sum(etc.sample_is_get() for _ in range(20_000))
        assert gets / 20_000 == pytest.approx(ETC_GET_FRACTION, abs=0.01)

    def test_message_size_positive(self, rng):
        etc = EtcWorkload(rng)
        assert all(etc.sample_message_kb() > 0 for _ in range(100))

    def test_deterministic_without_rng(self):
        etc = EtcWorkload(None)
        assert etc.sample_key_size_b() == 31
        assert etc.sample_value_size_b() == 125
        assert etc.sample_is_get()

    def test_batch_without_rng_is_deterministic(self):
        etc = EtcWorkload(None)
        assert etc.sample_messages_kb(3) == [etc.sample_message_kb()] * 3

    @pytest.mark.parametrize("count", [1, 255, 256, 257])
    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_equals_per_call_reference(self, count, seed):
        batched = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        sizes = EtcWorkload(batched).sample_messages_kb(count)
        reference = EtcWorkload(scalar)
        assert sizes == [reference.sample_message_kb()
                         for _ in range(count)]
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_memcached_factory_matches_per_call_reference(self):
        from repro.workloads.memcached import (
            SIZE_BATCH,
            _memcached_request_factory,
        )

        factory = _memcached_request_factory(RandomStreams(11))
        count = 2 * SIZE_BATCH + 3
        requests = [factory(index) for index in range(count)]
        reference = EtcWorkload(RandomStreams(11).get("etc"))
        assert [r.request_id for r in requests] == list(range(count))
        assert [r.size_kb for r in requests] \
            == [reference.sample_message_kb() for _ in range(count)]


class _ScriptedGenerator:
    """A stand-in generator whose draws pop scripted values, one queue
    per kind.  :func:`~repro.sim.sampling.scalar_samplers` hands a
    non-``Generator`` its own methods, so the batch path and the
    per-call reference see the same values."""

    def __init__(self, uniforms, normals, exponentials):
        self.queues = {"u": list(uniforms), "n": list(normals),
                       "e": list(exponentials)}

    def random(self):
        return self.queues["u"].pop(0)

    def standard_normal(self):
        return self.queues["n"].pop(0)

    def standard_exponential(self):
        return self.queues["e"].pop(0)


#: ``((key z, branch u, body z or tail e), key bytes, value bytes)``
#: per size: draws random seeds never reach, and the sizes they give.
ETC_EXTREMES = {
    "key-clamps-at-250": ((6.5, 0.5, 0.0), 250, 121),
    "body-0-clamps-to-1": ((0.0, 0.5, -5.0), 45, 1),
    "tail-clamps-at-1e6": ((0.0, 0.99, 12.0), 45, 1_000_000),
    "tail-past-int64": ((0.0, 0.99, 80.0), 45, 1_000_000),
    "branch-at-0.95-is-tail": ((0.0, 0.95, 1.0), 45, 1947),
    "branch-below-0.95-is-body": ((0.0, np.nextafter(0.95, 0.0), 1.0),
                                  45, 330),
}


def _scripted(sizes):
    uniforms = [u for _, u, _ in sizes]
    normals, exponentials = [], []
    for z, u, third in sizes:
        normals.append(z)
        (normals if u < 0.95 else exponentials).append(third)
    return _ScriptedGenerator(uniforms, normals, exponentials)


class TestEtcExtremes:
    """The batch path's array transforms and clamps equal the per-call
    reference at the extremes, where a cast before the clamp would
    wrap and a ``<=`` branch would draw the wrong kind."""

    @pytest.mark.parametrize("case", sorted(ETC_EXTREMES))
    def test_batch_equals_per_call_reference(self, case):
        self._check([ETC_EXTREMES[case]])

    def test_all_extremes_in_one_batch(self):
        self._check(list(ETC_EXTREMES.values()) * 2)

    @staticmethod
    def _check(cases):
        sizes = [draws for draws, _, _ in cases]
        batched, scalar = _scripted(sizes), _scripted(sizes)
        got = EtcWorkload(batched).sample_messages_kb(len(sizes))
        reference = EtcWorkload(scalar)
        assert got == [reference.sample_message_kb() for _ in sizes]
        assert got == [(key + value + 48) / 1024.0
                       for _, key, value in cases]
        assert batched.queues == scalar.queues == {
            "u": [], "n": [], "e": []}


class TestLshIndex:
    def test_candidates_returned_for_dataset_point(self):
        index = default_index()
        query = index.points[17]
        candidates = index.candidates(query)
        assert 17 in candidates  # a point always hashes to itself

    def test_query_ranks_by_distance(self):
        index = default_index()
        query = index.points[5]
        results = index.query(query, k=5)
        assert results[0][0] == 5
        assert results[0][1] == pytest.approx(0.0)
        distances = [d for _, d in results]
        assert distances == sorted(distances)

    def test_query_shape_validated(self):
        index = default_index()
        with pytest.raises(ConfigurationError):
            index.candidates(np.zeros(3))

    def test_recall_on_noisy_queries(self):
        """LSH must usually find the perturbed source point."""
        index = default_index()
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(50):
            source = int(rng.integers(0, index.config.num_points))
            query = index.points[source] + rng.normal(
                scale=0.05, size=index.config.dim)
            results = index.query(query, k=5)
            if any(point == source for point, _ in results):
                hits += 1
        assert hits >= 40

    def test_candidate_counts_reasonable(self):
        counts = np.array(default_candidate_counts())
        assert counts.min() >= 0
        assert counts.max() <= 4000
        assert counts.mean() > 10  # buckets are not empty

    def test_deterministic_given_seed(self):
        a = LshIndex(LshConfig(num_points=200, dim=16,
                               num_tables=2, num_bits=6), seed=5)
        b = LshIndex(LshConfig(num_points=200, dim=16,
                               num_tables=2, num_bits=6), seed=5)
        assert (a.points == b.points).all()
        query = a.points[3]
        assert a.candidates(query) == b.candidates(query)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            LshConfig(num_points=0)
        with pytest.raises(ConfigurationError):
            LshConfig(num_bits=40)

    def test_more_tables_more_candidates(self):
        few = LshIndex(LshConfig(num_points=500, dim=16,
                                 num_tables=1, num_bits=8), seed=3)
        many = LshIndex(LshConfig(num_points=500, dim=16,
                                  num_tables=6, num_bits=8), seed=3)
        rng = np.random.default_rng(4)
        query = few.points[0] + rng.normal(scale=0.1, size=16)
        assert (len(many.candidates(query))
                >= len(few.candidates(query)))
