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
