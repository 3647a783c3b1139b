"""Batched-vs-scalar bit-identity for the draw-ahead sampling layer.

Every distribution used anywhere in the tree must come out of a
:class:`~repro.sim.sampling.BatchedStream` with the *exact* float
sequence the raw scalar ``numpy.random.Generator`` calls would have
produced -- across refill boundaries, across primitive switches
(reconciliation), and for degenerate block sizes.
"""

import gc
import math
import sys
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.hardware.core import SimCore
from repro.parameters import DEFAULT_PARAMETERS
from repro.server.service import (
    BimodalService,
    ExponentialService,
    LognormalService,
)
from repro.sim import sampling
from repro.sim.random import RandomStreams
from repro.sim.sampling import BatchedStream, as_stream, scalar_samplers

SEED = 20240917
#: Enough draws to cross an 8192 block boundary.
LONG = 20_000


def fresh():
    return np.random.default_rng(SEED)


def stream(block_size=8192, promote_after=1):
    return BatchedStream(fresh(), block_size=block_size,
                         promote_after=promote_after)


# --------------------------------------------------------------------------
# Per-distribution identity, every block size, across refill boundaries.
@pytest.mark.parametrize("block_size", [1, 2, 8192])
@pytest.mark.parametrize("method,args", [
    ("random", ()),
    ("standard_normal", ()),
    ("standard_exponential", ()),
    ("exponential", (7.25,)),
    ("lognormal", (1.7917594692280558, 0.35)),
    ("normal", (1.0, 0.25)),
    ("uniform", (0.0, 30.0)),
    ("pareto", (1.5,)),
])
def test_distribution_bit_identity(block_size, method, args):
    count = 3 * 8192 + 17 if block_size == 8192 else 300
    scalar_gen = fresh()
    batched = stream(block_size=block_size)
    scalar = [float(getattr(scalar_gen, method)(*args))
              for _ in range(count)]
    served = [getattr(batched, method)(*args) for _ in range(count)]
    assert scalar == served
    # The draws really were served from blocks, not forwarded.
    assert batched.batched_served > 0
    # (the first draw of a run is a scalar forward by design)
    assert batched.blocks_drawn >= count // block_size - 1


def test_bimodal_mixture_bit_identity():
    """The bimodal service model's uniform mixture selector."""
    model = BimodalService(fast_us=4.0, slow_us=40.0, slow_fraction=0.1)
    scalar_gen = fresh()
    batched = stream()
    scalar = [model.sample_service_us(scalar_gen) for _ in range(LONG)]
    served = [model.sample_service_us(batched) for _ in range(LONG)]
    assert scalar == served
    assert batched.batched_served > 0


@pytest.mark.parametrize("model", [
    ExponentialService(6.0),
    LognormalService(6.0, 0.35),
])
def test_service_models_bit_identity(model):
    scalar_gen = fresh()
    batched = stream()
    scalar = [model.sample_service_us(scalar_gen) for _ in range(LONG)]
    served = [model.sample_service_us(batched) for _ in range(LONG)]
    assert scalar == served


# --------------------------------------------------------------------------
# Primitive switches: reconciliation must leave the bit stream exactly
# where scalar consumption would have.
@pytest.mark.parametrize("block_size,promote_after", [
    (1, 1), (2, 1), (16, 1), (8192, 2), (8192, 64),
])
def test_interleaved_primitives_reconcile(block_size, promote_after):
    ops = [
        ("lognormal", (1.5, 0.3)),
        ("random", ()),
        ("exponential", (9.0,)),
        ("normal", (1.0, 0.25)),
        ("pareto", (1.5,)),
        ("uniform", (0.0, 12.0)),
    ]
    # A deterministic but irregular interleaving with runs of every
    # length: op index = floor(i / (1 + i % 7)) % len(ops).
    schedule = [ops[(i * (1 + i % 7)) % len(ops)] for i in range(4_000)]
    scalar_gen = fresh()
    batched = BatchedStream(fresh(), block_size=block_size,
                            promote_after=promote_after)
    scalar = [float(getattr(scalar_gen, m)(*args)) for m, args in schedule]
    served = [getattr(batched, m)(*args) for m, args in schedule]
    assert scalar == served


def test_reconcile_backs_off_on_mixed_streams():
    """A thrashing stream stops promoting after a few reconciles."""
    batched = BatchedStream(fresh(), block_size=8192, promote_after=1)
    for _ in range(5_000):
        batched.standard_normal()
        batched.random()
    assert batched.reconciles <= 12
    # Long after backoff, draws are plain scalar forwards.
    before = batched.scalar_served
    batched.standard_normal()
    batched.random()
    assert batched.scalar_served == before + 2


# --------------------------------------------------------------------------
# Vector trains and the draws_remaining / refill API.
def test_exponential_train_bit_identity():
    scalar_gen = fresh()
    batched = stream(promote_after=1)
    scalar = [float(scalar_gen.exponential(5.0)) for _ in range(100)]
    scalar += list(scalar_gen.standard_exponential(5_000) * 5.0)
    scalar += [float(scalar_gen.exponential(5.0)) for _ in range(100)]
    served = [batched.exponential(5.0) for _ in range(100)]
    served += list(batched.exponential_train(5.0, 5_000))
    served += [batched.exponential(5.0) for _ in range(100)]
    assert scalar == served


def test_lognormal_train_bit_identity():
    scalar_gen = fresh()
    batched = stream(promote_after=1)
    scalar = list(scalar_gen.lognormal(2.0, 0.4, 1_000))
    scalar += [float(scalar_gen.lognormal(2.0, 0.4)) for _ in range(10)]
    served = list(batched.lognormal_train(2.0, 0.4, 1_000))
    served += [batched.lognormal(2.0, 0.4) for _ in range(10)]
    assert scalar == served


def test_draws_remaining_and_refill():
    batched = stream(block_size=64, promote_after=1)
    assert batched.draws_remaining == 0
    available = batched.refill("exponential")
    assert available == 64
    assert batched.draws_remaining == 64
    # refill is idempotent and consumes nothing.
    assert batched.refill("exponential") == 64
    scalar_gen = fresh()
    scalar = [float(scalar_gen.exponential(3.0)) for _ in range(64)]
    served = [batched.next_exponential(3.0) for _ in range(64)]
    assert scalar == served
    assert batched.draws_remaining == 0
    with pytest.raises(ValueError):
        batched.refill("weibull")


def test_next_aliases_match_generator():
    scalar_gen = fresh()
    batched = stream()
    scalar = []
    for _ in range(500):
        scalar.append(float(scalar_gen.exponential(11.0)))
    served = [batched.next_exponential(11.0) for _ in range(500)]
    assert scalar == served
    scalar_gen, batched = fresh(), stream()
    scalar = [float(scalar_gen.lognormal(0.5, 0.2)) for _ in range(500)]
    served = [batched.next_lognormal(0.5, 0.2) for _ in range(500)]
    assert scalar == served
    scalar_gen, batched = fresh(), stream()
    scalar = [float(scalar_gen.random()) for _ in range(500)]
    served = [batched.next_uniform() for _ in range(500)]
    assert scalar == served
    scalar_gen, batched = fresh(), stream()
    scalar = [float(scalar_gen.normal(1.0, 0.25)) for _ in range(500)]
    served = [batched.next_normal(1.0, 0.25) for _ in range(500)]
    assert scalar == served


# --------------------------------------------------------------------------
# Escape hatches.
def test_delegation_flushes_and_stays_in_sync():
    scalar_gen = fresh()
    batched = stream(promote_after=1)
    scalar = [float(scalar_gen.lognormal(1.0, 0.2)) for _ in range(10)]
    scalar.append(float(scalar_gen.integers(0, 1000)))
    scalar += [float(scalar_gen.lognormal(1.0, 0.2)) for _ in range(10)]
    served = [batched.lognormal(1.0, 0.2) for _ in range(10)]
    served.append(float(batched.integers(0, 1000)))
    served += [batched.lognormal(1.0, 0.2) for _ in range(10)]
    assert scalar == served


def test_flush_repositions_the_raw_generator():
    batched = stream(promote_after=1)
    mirror = fresh()
    first = [batched.standard_normal() for _ in range(7)]
    assert first == [float(mirror.standard_normal()) for _ in range(7)]
    batched.flush()
    # After a flush the *raw* generator continues the scalar sequence.
    assert float(batched.generator.standard_normal()) \
        == float(mirror.standard_normal())


def test_as_stream_passthrough():
    assert as_stream(None) is None
    wrapped = as_stream(fresh())
    assert isinstance(wrapped, BatchedStream)
    assert as_stream(wrapped) is wrapped


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BatchedStream(fresh(), block_size=0)
    with pytest.raises(ValueError):
        BatchedStream(fresh(), promote_after=0)


def test_random_streams_stream_facade_shares_generator():
    streams = RandomStreams(SEED)
    facade = streams.stream("network")
    assert streams.stream("network") is facade
    assert facade.generator is streams.get("network")
    mirror = RandomStreams(SEED).get("network")
    draws = [facade.lognormal(2.7, 0.25) for _ in range(200)]
    assert draws == [float(mirror.lognormal(2.7, 0.25))
                     for _ in range(200)]


# --------------------------------------------------------------------------
# The hot-path twins must stay in lockstep.
def test_handle_event_twins_identical():
    def drive(use_fast):
        core = SimCore(DEFAULT_PARAMETERS, LP_CLIENT,
                       rng=np.random.default_rng(SEED))
        finishes = []
        at = 0.0
        for index in range(300):
            at += 23.0 + (index % 7) * 11.0
            if use_fast:
                finishes.append(core.handle_event_finish_us(
                    at, 1.2, wakes_thread=bool(index % 2)))
            else:
                finishes.append(core.handle_event(
                    at, 1.2, wakes_thread=bool(index % 2)).finish_us)
        return finishes, core.total_busy_us, core.total_wake_us

    assert drive(True) == drive(False)


def test_handle_event_twins_identical_polling():
    def drive(use_fast):
        core = SimCore(DEFAULT_PARAMETERS, SERVER_BASELINE,
                       rng=np.random.default_rng(SEED), polling=True)
        at, finishes = 0.0, []
        for index in range(200):
            at += 5.0 + (index % 11) * 40.0
            if use_fast:
                finishes.append(core.handle_event_finish_us(at, 2.0))
            else:
                finishes.append(core.handle_event(at, 2.0).finish_us)
        return finishes, core.total_busy_us

    assert drive(True) == drive(False)


# --------------------------------------------------------------------------
# Lognormal math.exp equivalence is platform-critical; pin it directly.
def test_lognormal_exp_matches_libm():
    gen_a, gen_b = fresh(), fresh()
    for _ in range(100_000):
        mu, sigma = 1.7917594692280558, 0.35
        assert float(gen_a.lognormal(mu, sigma)) \
            == math.exp(mu + sigma * float(gen_b.standard_normal()))


def test_batched_stats_accessor():
    streams = RandomStreams(SEED)
    facade = streams.stream("network")
    for _ in range(200):
        facade.lognormal(2.7, 0.25)
    stats = streams.batched_stats()
    assert set(stats) == {"network"}
    counters = stats["network"]
    assert counters["batched_served"] + counters["scalar_served"] == 200
    assert counters["blocks_drawn"] >= 1


def test_core_occupancy_value_equality():
    def occupancy():
        core = SimCore(DEFAULT_PARAMETERS, LP_CLIENT,
                       rng=np.random.default_rng(SEED))
        return core.handle_event(10.0, 1.2)

    assert occupancy() == occupancy()
    assert occupancy() != object()


class TestNextIndex:
    """The cluster layer's bounded-index draw (LB picks, shard
    shuffles): one uniform per draw, block-served, exact scalar
    replay."""

    def test_matches_scalar_uniform_formula(self):
        import numpy as np
        from repro.sim.sampling import BatchedStream

        batched = BatchedStream(np.random.default_rng(SEED))
        scalar = np.random.default_rng(SEED)
        for n in (2, 3, 7, 1000):
            for _ in range(50):
                expected = min(int(scalar.random() * n), n - 1)
                assert batched.next_index(n) == expected

    def test_in_range_and_full_coverage(self):
        import numpy as np
        from repro.sim.sampling import BatchedStream

        stream = BatchedStream(np.random.default_rng(SEED))
        seen = {stream.next_index(4) for _ in range(300)}
        assert seen == {0, 1, 2, 3}

    def test_degenerate_sizes_consume_no_draw(self):
        import numpy as np
        from repro.sim.sampling import BatchedStream

        stream = BatchedStream(np.random.default_rng(SEED))
        assert stream.next_index(1) == 0
        assert stream.next_index(0) == 0
        assert stream.batched_served + stream.scalar_served == 0


# --------------------------------------------------------------------------
# The scalar forward: numpy's C samplers, bit for bit the methods.
KIND_METHODS = ("random", "standard_normal", "standard_exponential")
#: Runs of (kind, length): long same-kind runs, every switch, and the
#: empty schedule.
RUNS = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 150)),
                max_size=8)


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["c-samplers", "fallback"])
@given(seed=st.integers(0, 2**64 - 1), runs=RUNS)
@settings(max_examples=40, deadline=None)
def test_scalar_samplers_match_generator_methods(fallback, seed, runs):
    with pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.setattr(sampling, "_c_samplers", lambda: None)
        through = np.random.default_rng(seed)
        draws = scalar_samplers(through)
    if fallback:
        assert draws == (through.random, through.standard_normal,
                         through.standard_exponential)
    methods = np.random.default_rng(seed)
    kinds = [kind for kind, length in runs for _ in range(length)]
    got = [draws[kind]() for kind in kinds]
    want = [getattr(methods, KIND_METHODS[kind])() for kind in kinds]
    assert got == want
    assert all(type(value) is float for value in got)
    assert through.bit_generator.state == methods.bit_generator.state


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the C samplers must load on Linux; "
                           "elsewhere the fallback may serve")
def test_c_samplers_engage_for_a_stock_generator():
    draws = scalar_samplers(fresh())
    assert all(isinstance(draw, partial) for draw in draws)
    assert all(isinstance(draw, partial)
               for draw in BatchedStream(fresh())._scalar_fns)


def test_non_generator_gets_its_own_methods():
    facade = BatchedStream(fresh())
    assert scalar_samplers(facade) == (
        facade.random, facade.standard_normal,
        facade.standard_exponential)


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["c-samplers", "fallback"])
def test_mixed_facade_stream_equals_raw_generator(fallback, monkeypatch):
    """Promotion, reconcile and flush on a mixed-kind stream whose
    scalar forward is the C path (or, forced, the methods)."""
    if fallback:
        monkeypatch.setattr(sampling, "_c_samplers", lambda: None)
    generator = fresh()
    batched = BatchedStream(generator, block_size=16, promote_after=4)
    methods = (generator.random, generator.standard_normal,
               generator.standard_exponential)
    assert (batched._scalar_fns == methods) \
        == (sampling._c_samplers() is None)
    mirror = fresh()
    schedule = (["standard_normal"] * 30 + ["random"]
                + ["standard_exponential"] * 3 + ["random"] * 40
                + ["standard_normal", "standard_exponential"] * 10
                + ["random"] * 7)
    served = [getattr(batched, m)() for m in schedule]
    assert served == [getattr(mirror, m)() for m in schedule]
    assert batched.blocks_drawn > 0
    assert batched.reconciles > 0
    assert batched.scalar_served > 0
    batched.flush()
    assert (batched.generator.bit_generator.state
            == mirror.bit_generator.state)
    assert batched.generator.random() == mirror.random()


class _WeakablePCG64(np.random.PCG64):
    """PCG64 that takes weak references (numpy's own types do not)."""


def test_samplers_keep_their_generator_alive():
    bit_generator = _WeakablePCG64(SEED)
    draws = scalar_samplers(np.random.Generator(bit_generator))
    alive = weakref.ref(bit_generator)
    del bit_generator
    gc.collect()
    assert alive() is not None
    mirror = fresh()
    assert [draws[1]() for _ in range(5)] \
        == [mirror.standard_normal() for _ in range(5)]
    assert draws[0]() == mirror.random()
    del draws
    gc.collect()
    assert alive() is None
