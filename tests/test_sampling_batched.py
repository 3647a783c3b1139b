"""Stream-vs-Generator bit-identity for the sampling layer.

Every distribution used anywhere in the tree must come out of a
:class:`~repro.sim.sampling.Stream` with the *exact* float sequence
the raw ``numpy.random.Generator`` calls would have produced, in scalar
and ``size=`` forms and across primitive switches, and leave the
generator in the same state -- on numpy's C samplers and on the
bound-method fallback.
"""

import gc
import math
import sys
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import experiment
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.errors import ConfigurationError
from repro.graph.cache import CacheTier, hit_stream
from repro.hardware.core import SimCore
from repro.net.link import NetworkLink, link_stream
from repro.parameters import DEFAULT_PARAMETERS
from repro.server.service import (
    BimodalService,
    ExponentialService,
    LognormalService,
)
from repro.sim import sampling
from repro.sim.random import RandomStreams
from repro.sim.engine import Simulator
from repro.sim.sampling import (
    BLOCK,
    BlockStream,
    Stream,
    as_stream,
    scalar_samplers,
)

SEED = 20240917
LONG = 20_000


def fresh():
    return np.random.default_rng(SEED)


def assert_same(got, want):
    """Equal values of the same type (arrays: same dtype and shape)."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert type(got) is type(want)
        assert got == want


# --------------------------------------------------------------------------
# Per-distribution identity: scalar draws, one ``size=`` vector, scalar
# draws again.
@pytest.mark.parametrize("size", [1, 2, 8192])
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
def test_distribution_bit_identity(size, method, args):
    generator = fresh()
    stream = Stream(fresh())
    for _ in range(2):
        for _ in range(300):
            assert_same(getattr(stream, method)(*args),
                        getattr(generator, method)(*args))
        assert_same(getattr(stream, method)(*args, size=size),
                    getattr(generator, method)(*args, size=size))
    assert (stream.generator.bit_generator.state
            == generator.bit_generator.state)


def test_bimodal_mixture_bit_identity():
    """The bimodal service model's uniform mixture selector."""
    model = BimodalService(fast_us=4.0, slow_us=40.0, slow_fraction=0.1)
    scalar_gen = fresh()
    stream = Stream(fresh())
    scalar = [model.sample_service_us(scalar_gen) for _ in range(LONG)]
    served = [model.sample_service_us(stream) for _ in range(LONG)]
    assert scalar == served


@pytest.mark.parametrize("model", [
    ExponentialService(6.0),
    LognormalService(6.0, 0.35),
])
def test_service_models_bit_identity(model):
    scalar_gen = fresh()
    stream = Stream(fresh())
    scalar = [model.sample_service_us(scalar_gen) for _ in range(LONG)]
    served = [model.sample_service_us(stream) for _ in range(LONG)]
    assert scalar == served


# --------------------------------------------------------------------------
# Primitive switches: the stream's values and the generator's position
# must agree with the raw generator's through any interleaving of
# primitives, scalar draws and ``size=`` vectors.
@pytest.mark.parametrize("size,every", [
    (1, 1), (2, 1), (16, 1), (8192, 2), (8192, 64),
])
def test_interleaved_primitives_reconcile(size, every):
    """4,000 scalar ops in an irregular interleaving with runs of
    every length; after every *every*-th op, its ``size=`` form draws
    *size* values."""
    ops = [
        ("lognormal", (1.5, 0.3)),
        ("random", ()),
        ("exponential", (9.0,)),
        ("normal", (1.0, 0.25)),
        ("pareto", (1.5,)),
        ("uniform", (0.0, 12.0)),
    ]
    # op index = (i * (1 + i % 7)) % len(ops).
    schedule = [ops[(i * (1 + i % 7)) % len(ops)] for i in range(4_000)]
    generator = fresh()
    stream = Stream(fresh())
    for index, (method, args) in enumerate(schedule):
        assert_same(getattr(stream, method)(*args),
                    getattr(generator, method)(*args))
        if index % every == 0:
            assert_same(getattr(stream, method)(*args, size=size),
                        getattr(generator, method)(*args, size=size))
    assert (stream.generator.bit_generator.state
            == generator.bit_generator.state)


def test_next_aliases_match_generator():
    scalar_gen = fresh()
    stream = Stream(fresh())
    scalar = [float(scalar_gen.random()) for _ in range(500)]
    served = [stream.next_uniform() for _ in range(500)]
    assert scalar == served


# --------------------------------------------------------------------------
# Escape hatches.
def test_delegation_flushes_and_stays_in_sync():
    """A delegated method (``integers``) draws from the generator
    itself, between the stream's own draws."""
    scalar_gen = fresh()
    stream = Stream(fresh())
    scalar = [float(scalar_gen.lognormal(1.0, 0.2)) for _ in range(10)]
    scalar.append(float(scalar_gen.integers(0, 1000)))
    scalar += [float(scalar_gen.lognormal(1.0, 0.2)) for _ in range(10)]
    served = [stream.lognormal(1.0, 0.2) for _ in range(10)]
    served.append(float(stream.integers(0, 1000)))
    served += [stream.lognormal(1.0, 0.2) for _ in range(10)]
    assert scalar == served


def test_as_stream_passthrough():
    assert as_stream(None) is None
    wrapped = as_stream(fresh())
    assert isinstance(wrapped, Stream)
    assert as_stream(wrapped) is wrapped


def test_random_streams_stream_facade_shares_generator():
    """``stream(name)`` fronts ``get(name)``'s generator, so draws
    through either continue one sequence."""
    streams = RandomStreams(SEED)
    facade = streams.stream("network")
    assert streams.stream("network") is facade
    assert facade.generator is streams.get("network")
    mirror = RandomStreams(SEED).get("network")
    draws = [facade.lognormal(2.7, 0.25) for _ in range(200)]
    draws.append(float(streams.get("network").lognormal(2.7, 0.25)))
    draws += [facade.lognormal(2.7, 0.25) for _ in range(200)]
    assert draws == [float(mirror.lognormal(2.7, 0.25))
                     for _ in range(401)]


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


def test_core_occupancy_value_equality():
    def occupancy():
        core = SimCore(DEFAULT_PARAMETERS, LP_CLIENT,
                       rng=np.random.default_rng(SEED))
        return core.handle_event(10.0, 1.2)

    assert occupancy() == occupancy()
    assert occupancy() != object()


class TestNextIndex:
    """The cluster layer's bounded-index draw (LB picks, shard
    shuffles): one uniform per draw, exact scalar replay."""

    def test_matches_scalar_uniform_formula(self):
        stream = Stream(np.random.default_rng(SEED))
        scalar = np.random.default_rng(SEED)
        for n in (2, 3, 7, 1000):
            for _ in range(50):
                expected = min(int(scalar.random() * n), n - 1)
                assert stream.next_index(n) == expected

    def test_in_range_and_full_coverage(self):
        stream = Stream(np.random.default_rng(SEED))
        seen = {stream.next_index(4) for _ in range(300)}
        assert seen == {0, 1, 2, 3}

    def test_degenerate_sizes_consume_no_draw(self):
        stream = Stream(np.random.default_rng(SEED))
        before = stream.generator.bit_generator.state
        assert stream.next_index(1) == 0
        assert stream.next_index(0) == 0
        assert stream.generator.bit_generator.state == before


# --------------------------------------------------------------------------
# The scalar draws: numpy's C samplers, bit for bit the methods.
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
    stream = Stream(fresh())
    assert all(isinstance(draw, partial)
               for draw in (stream.draw_uniform, stream.draw_normal,
                            stream.draw_exponential))


def test_non_generator_gets_its_own_methods():
    facade = Stream(fresh())
    assert scalar_samplers(facade) == (
        facade.random, facade.standard_normal,
        facade.standard_exponential)


#: (method, args) of every Stream method that mirrors a Generator one,
#: plus ``integers``, which the stream delegates.
MIRRORED = (
    ("random", ()),
    ("standard_normal", ()),
    ("standard_exponential", ()),
    ("exponential", (7.25,)),
    ("lognormal", (1.7917594692280558, 0.35)),
    ("normal", (1.0, 0.25)),
    ("uniform", (2.5, 30.0)),
    ("pareto", (1.5,)),
    ("integers", (0, 1000)),
)
#: One op: (method, args, size); size None is the scalar form.
STREAM_OPS = st.one_of(
    st.builds(lambda pair, size: pair + (size,), st.sampled_from(MIRRORED),
              st.none() | st.integers(0, 12)),
    st.just(("next_uniform", (), None)),
    st.builds(lambda n: ("next_index", (n,), None), st.integers(0, 40)),
)


def _raw_op(generator, method, args, size):
    """What *method* means in plain Generator calls."""
    if method == "next_uniform":
        return generator.random()
    if method == "next_index":
        (n,) = args
        return 0 if n <= 1 else min(int(generator.random() * n), n - 1)
    if size is None:
        return getattr(generator, method)(*args)
    return getattr(generator, method)(*args, size=size)


#: Every op once in each form, so every method is drawn on every run.
EVERY_OP = ([pair + (size,) for pair in MIRRORED for size in (None, 3)]
            + [("next_uniform", (), None), ("next_index", (7,), None),
               ("next_index", (1,), None)])


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["c-samplers", "fallback"])
@given(seed=st.integers(0, 2**64 - 1),
       ops=st.lists(STREAM_OPS, max_size=120))
@example(seed=SEED, ops=EVERY_OP)
@settings(max_examples=60, deadline=None)
def test_mixed_facade_stream_equals_raw_generator(fallback, seed, ops):
    """Any interleaving of every Stream method -- scalar, ``size=``,
    derived and delegated -- equals the raw generator's calls, value
    for value, and leaves the same bit-generator state, whether the
    scalar draws are the C samplers or (forced) the methods."""
    with pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.setattr(sampling, "_c_samplers", lambda: None)
        generator = np.random.default_rng(seed)
        stream = Stream(generator)
    methods = (generator.random, generator.standard_normal,
               generator.standard_exponential)
    draws = (stream.draw_uniform, stream.draw_normal,
             stream.draw_exponential)
    assert (draws == methods) == (
        fallback or sampling._c_samplers() is None)
    mirror = np.random.default_rng(seed)
    for method, args, size in ops:
        served = getattr(stream, method)
        got = served(*args) if size is None else served(*args, size=size)
        assert_same(got, _raw_op(mirror, method, args, size))
    assert generator.bit_generator.state == mirror.bit_generator.state


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


# --------------------------------------------------------------------------
# Block-served single-kind streams.
BLOCK_DRAWS = {"uniform": "draw_uniform", "normal": "draw_normal"}
#: More than three refills, with a partial block at the end.
SERVED = 3 * BLOCK + 17


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["c-samplers", "fallback"])
@pytest.mark.parametrize("kind", sorted(BLOCK_DRAWS))
def test_block_draws_equal_scalar_draws_for_every_holder(fallback, kind):
    """Holders of one block-served stream, drawing in any interleaving,
    read the scalar draws' values in the scalar draws' order, across
    refills."""
    attr = BLOCK_DRAWS[kind]
    with pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.setattr(sampling, "_c_samplers", lambda: None)
        streams = RandomStreams(SEED)
        first = getattr(streams.stream("net", only=kind), attr)
        second = getattr(streams.stream("net", only=kind), attr)
        third = getattr(streams.stream("net"), attr)
        scalar = getattr(RandomStreams(SEED).stream("net"), attr)
    holders = (first, second, third)
    got = [holders[i * i // 7 % 3]() for i in range(SERVED)]
    assert got == [scalar() for _ in range(SERVED)]
    assert all(type(value) is float for value in got)


def test_links_and_cache_draw_the_scalar_sequence_from_blocks():
    """Both client links on the stream ``link_stream`` block-serves, and
    a cache's hit decisions on ``hit_stream``'s, equal the same
    components on plain streams, message for message."""
    served, plain = RandomStreams(SEED), RandomStreams(SEED)
    link_rng = link_stream(served, "network")
    assert link_rng.kind == "normal"
    links = [NetworkLink(rng=link_rng) for _ in range(2)]
    mirror = [NetworkLink(rng=plain.stream("network")) for _ in range(2)]
    pattern = [(i % 3 == 0, 0.1 * (i % 5)) for i in range(SERVED)]
    assert ([links[side].sample_latency_us(kb) for side, kb in pattern]
            == [mirror[side].sample_latency_us(kb)
                for side, kb in pattern])
    sim = Simulator()
    hit_rng = hit_stream(served, "cache/cache")
    assert hit_rng.kind == "uniform"
    caches = [CacheTier(sim, None, hit_ratio=0.3, rng=rng)
              for rng in (hit_rng, plain.stream("cache/cache"))]
    decisions = [[cache._is_hit() for _ in range(SERVED)]
                 for cache in caches]
    assert decisions[0] == decisions[1]
    assert 0 < sum(decisions[0]) < SERVED


def test_served_kind_keeps_its_scalar_derived_draws():
    stream = RandomStreams(SEED).stream("net", only="normal")
    mirror = RandomStreams(SEED).get("net")
    got = [stream.normal(1.0, 0.25), stream.lognormal(2.7, 0.25),
           stream.standard_normal()]
    assert got == [float(mirror.normal(1.0, 0.25)),
                   float(mirror.lognormal(2.7, 0.25)),
                   float(mirror.standard_normal())]


#: Every draw a normal block stream must refuse: the other kinds (bound
#: and through the methods), every size= form, delegated methods and
#: the generator itself.
REFUSED = {
    "draw_uniform": lambda s: s.draw_uniform(),
    "draw_exponential": lambda s: s.draw_exponential(),
    "random": lambda s: s.random(),
    "uniform": lambda s: s.uniform(0.0, 2.0),
    "exponential": lambda s: s.exponential(3.0),
    "pareto": lambda s: s.pareto(1.5),
    "next_index": lambda s: s.next_index(8),
    "size= same kind": lambda s: s.standard_normal(4),
    "size= lognormal": lambda s: s.lognormal(0.0, 1.0, size=2),
    "delegated": lambda s: s.integers(0, 10),
    "generator": lambda s: s.generator.standard_normal(),
    "bit_generator": lambda s: s.bit_generator.state,
}


@pytest.mark.parametrize("draw", sorted(REFUSED))
def test_block_stream_refuses_every_other_draw(draw):
    streams = RandomStreams(SEED)
    stream = streams.stream("network", only="normal")
    stream.draw_normal()  # the generator now sits a block ahead
    with pytest.raises(ConfigurationError, match="'network'"):
        REFUSED[draw](stream)
    with pytest.raises(ConfigurationError, match="'network'"):
        streams.get("network")
    # Refusals consume nothing: the sequence continues unbroken.
    mirror = RandomStreams(SEED).stream("network")
    mirror.draw_normal()
    assert stream.draw_normal() == mirror.draw_normal()


@pytest.mark.parametrize("handed_out", [
    lambda streams: streams.get("network"),
    lambda streams: streams.stream("network"),
    lambda streams: streams.stream("network", only="uniform"),
], ids=["get", "plain stream", "other kind"])
def test_a_handed_out_stream_cannot_become_block_served(handed_out):
    """A bound scalar draw cannot be revoked, so a name handed out any
    other way is never block-served afterwards."""
    streams = RandomStreams(SEED)
    handed_out(streams)
    with pytest.raises(ConfigurationError, match="'network'"):
        streams.stream("network", only="normal")


@pytest.mark.parametrize("kind", ["gamma", "exponential"])
def test_unknown_block_kind_rejected(kind):
    with pytest.raises(ConfigurationError, match=kind):
        RandomStreams(SEED).stream("x", only=kind)


def test_graph_testbed_block_serves_its_single_kind_streams():
    """memcached-cached block-serves the client links' ``network``,
    every shard link's stream and the cache's hit decisions, and no
    other stream."""
    testbed = (experiment("memcached").client("LP")
               .graph("memcached-cached")
               .load(qps=100_000, num_requests=300)
               .policy(runs=1).build().testbed())
    streams = testbed.streams
    kinds = {name: streams.stream(name).kind
             for name in streams.names()
             if isinstance(streams.stream(name), BlockStream)}
    shard_links = {f"leaf/node0/shard-net-{i}": "normal"
                   for i in range(8)}
    assert kinds == {"network": "normal", "cache/cache": "uniform",
                     **shard_links}
    testbed.run()
    for name in kinds:
        with pytest.raises(ConfigurationError):
            streams.get(name)


def test_hdsearch_block_serves_both_link_streams():
    """HDSearch's inter-tier link draws through ``link_stream`` as the
    client links do."""
    testbed = (experiment("hdsearch").client("LP")
               .load(qps=2_000, num_requests=50)
               .policy(runs=1).build().testbed())
    streams = testbed.streams
    served = {name for name in streams.names()
              if isinstance(streams.stream(name), BlockStream)}
    assert served == {"network", "network-tiers"}
