"""Scalar draws straight to numpy's C samplers, or served from blocks.

Every stochastic component of the simulator draws scalar values from a
named :class:`~repro.sim.random.RandomStreams` generator, 10-20 draws
per simulated request.  A ``Generator`` method call spends most of its
~0.2 us in method dispatch around a few nanoseconds of C, so the
per-draw cost is the call, not the sampling.

**Scalar samplers.**  :func:`scalar_samplers` binds numpy's C
samplers directly: ``random_standard_uniform``,
``random_standard_normal`` and ``random_standard_exponential`` from
numpy's C API for random (``numpy/random/distributions.h``), through
``ctypes`` on the generator's own bit generator.  Those are the
per-element samplers behind ``Generator.random()``,
``.standard_normal()`` and ``.standard_exponential()``, so every value
and the bit-generator state afterwards are the method's, bit for bit.
Where the samplers cannot be loaded, or disagree with the methods on a
self-check, the generator's bound methods serve instead.  The C path
skips ``Generator.lock``: one generator must never be drawn from on
two threads at once, which no simulator component does.

**Derived draws.**  numpy's derived distributions are pure float
arithmetic on one primitive draw, replayed exactly in Python (IEEE-754
ops are deterministic, and ``math.exp`` and numpy's C ``exp`` resolve
to the same libm symbol in-process):

* ``exponential(m)``       == ``m * standard_exponential()``
* ``normal(loc, s)``       == ``loc + s * standard_normal()``
* ``lognormal(mu, s)``     == ``exp(mu + s * standard_normal())``
* ``uniform(lo, hi)``      == ``lo + (hi - lo) * random()``
* ``pareto(a)``            == ``expm1(standard_exponential() / a)``

:class:`Stream` puts the two together behind the ``Generator`` method
names the tree calls, so call sites accept either a raw generator or
a stream.  A plain stream draws nothing ahead: it holds no values,
and its generator always sits where the same scalar calls would have
left it, so mixing ``RandomStreams.stream(name)`` with ``.get(name)``
is safe.  Hot call sites bind a stream's three zero-argument draws
(:attr:`Stream.draw_uniform` and its siblings) once.

**Block-served streams.**  Where every holder of a stream draws one
kind only -- the network links' standard normals (both client links
on ``network``, a shard link on ``{prefix}shard-net-{i}`` in both
directions, an HDSearch inter-tier link on ``{prefix}network-tiers``)
and a cache tier's hit uniforms on ``{tier}/cache`` -- the consumer's
module asks
the registry for a :class:`BlockStream`
(``RandomStreams.stream(name, only=kind)``, through
:func:`repro.net.link.link_stream` and
:func:`repro.graph.cache.hit_stream`).  Its one draw serves values from blocks of :data:`BLOCK` that the
generator's own ``size=`` sampler fills; that sampler runs the same
per-element C routine as the scalar draw (``random_standard_normal``
and its siblings, looped), so every value and its order are the
scalar draws', bit for bit, whichever holder draws next.  A served
value costs a C-level iterator step instead of a ``ctypes`` call.
The generator then runs up to a block ahead of the scalar sequence,
so the stream refuses every other draw (another kind, any ``size=``
form, any delegated ``Generator`` method) and the registry refuses to
hand its generator out (``RandomStreams.get``): nothing can observe
the draw-ahead.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from math import exp, expm1
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: numpy's per-element primitive samplers: uniform, normal, exponential.
_C_SAMPLER_NAMES = ("random_standard_uniform", "random_standard_normal",
                    "random_standard_exponential")

Draw = Callable[[], float]

#: Values a :class:`BlockStream` draws per refill.
BLOCK = 256

#: Block-servable draw kinds -> the ``Generator`` method filling a block.
BLOCK_KINDS = {"uniform": "random", "normal": "standard_normal"}


def scalar_samplers(generator: np.random.Generator
                    ) -> Tuple[Draw, Draw, Draw]:
    """Zero-argument uniform, normal and exponential draws on *generator*.

    Each call returns what ``generator.random()``,
    ``.standard_normal()`` or ``.standard_exponential()`` would, from
    the same bits, and leaves the same bit-generator state; the draws
    call numpy's C samplers without the method dispatch (see the
    module docstring).  They hold *generator* alive.  Anything but a
    plain ``numpy.random.Generator``, or a platform where the C
    samplers fail to load or to pass the self-check, gets the bound
    methods themselves.  Not thread-safe: the C path skips
    ``Generator.lock``.
    """
    api = _c_samplers()
    if api is None or type(generator) is not np.random.Generator:
        return (generator.random, generator.standard_normal,
                generator.standard_exponential)
    return _bind(api, generator)


def _bind(api: Tuple[Any, Any, Any], generator: np.random.Generator
          ) -> Tuple[Draw, Draw, Draw]:
    fns, get_pointer, c_void_p = api
    # The bit generator's bitgen_t; the pointer object carries the
    # reference that keeps the memory it points at alive.
    pointer = c_void_p(get_pointer(generator.bit_generator.capsule,
                                   b"BitGenerator"))
    pointer.generator = generator
    uniform, normal, exponential = (partial(fn, pointer) for fn in fns)
    return uniform, normal, exponential


@lru_cache(maxsize=None)
def _c_samplers() -> Optional[Tuple[Any, Any, Any]]:
    """Load numpy's C samplers once, or ``None`` when unavailable.

    Loaded on first use, not at import: ``import repro`` does not
    import ``numpy.random``.  ``PyDLL`` keeps the GIL across the call,
    which is cheaper than releasing it for a few nanoseconds of work.
    """
    try:
        import ctypes

        from numpy.random import _generator

        lib = ctypes.PyDLL(_generator.__file__)
        fns = tuple(getattr(lib, name) for name in _C_SAMPLER_NAMES)
        get_pointer = ctypes.PYFUNCTYPE(
            ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
                ("PyCapsule_GetPointer", ctypes.pythonapi))
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    for fn in fns:
        fn.argtypes = [ctypes.c_void_p]
        fn.restype = ctypes.c_double
    api = (fns, get_pointer, ctypes.c_void_p)
    return api if _agrees(api) else None


def _agrees(api: Tuple[Any, Any, Any]) -> bool:
    """Self-check: an interleaved uniform/normal/exponential sequence
    through *api* equals the ``Generator`` methods', value for value,
    and leaves the same bit-generator state."""
    seed = 20240917
    through_c = np.random.Generator(np.random.PCG64(seed))
    methods = np.random.Generator(np.random.PCG64(seed))
    reference = (methods.random, methods.standard_normal,
                 methods.standard_exponential)
    # Runs of one, two, three and five; every switch between kinds.
    kinds = [i * i // 5 % 3 for i in range(96)]
    try:
        draws = _bind(api, through_c)
        got = [draws[kind]() for kind in kinds]
    except Exception:  # noqa: BLE001 -- any failure means "unusable"
        return False
    want = [reference[kind]() for kind in kinds]
    return (got == want
            and through_c.bit_generator.state == methods.bit_generator.state)


def c_samplers_active() -> bool:
    """True when numpy's C samplers loaded, passed their self-check
    and so serve this process's scalar draws; False on the
    bound-method fallback."""
    return _c_samplers() is not None


class Stream:
    """One ``numpy.random.Generator`` with its scalar draws bound to
    numpy's C samplers.

    Every value, and the generator's state afterwards, is what the
    same ``Generator`` calls would produce (see the module docstring):
    scalar primitives call :func:`scalar_samplers`' draws, each derived
    draw is one expression over a primitive, and ``size=`` forms and
    every other method (``integers``, ``choice``, ...) go to the
    generator itself.

    Attributes:
        generator: the wrapped generator.
        draw_uniform: zero-argument ``generator.random()``.
        draw_normal: zero-argument ``generator.standard_normal()``.
        draw_exponential: zero-argument
            ``generator.standard_exponential()``.
    """

    __slots__ = ("generator", "draw_uniform", "draw_normal",
                 "draw_exponential")

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        (self.draw_uniform, self.draw_normal,
         self.draw_exponential) = scalar_samplers(generator)

    # ------------------------------------------------------------ primitives
    def random(self, size=None):
        """Uniform double in [0, 1)."""
        if size is None:
            return self.draw_uniform()
        return self.generator.random(size)

    def standard_normal(self, size=None):
        """Ziggurat standard normal draw."""
        if size is None:
            return self.draw_normal()
        return self.generator.standard_normal(size)

    def standard_exponential(self, size=None):
        """Ziggurat standard exponential draw."""
        if size is None:
            return self.draw_exponential()
        return self.generator.standard_exponential(size)

    # --------------------------------------------------------------- derived
    def exponential(self, scale: float = 1.0, size=None):
        """Match ``Generator.exponential``: ``scale * std_exp``."""
        if size is None:
            return scale * self.draw_exponential()
        return self.generator.exponential(scale, size)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0, size=None):
        """Match ``Generator.lognormal``: ``exp(mean + sigma * z)``."""
        if size is None:
            return exp(mean + sigma * self.draw_normal())
        return self.generator.lognormal(mean, sigma, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Match ``Generator.normal``: ``loc + scale * std_normal``."""
        if size is None:
            return loc + scale * self.draw_normal()
        return self.generator.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Match ``Generator.uniform``: ``low + (high-low) * u``."""
        if size is None:
            return low + (high - low) * self.draw_uniform()
        return self.generator.uniform(low, high, size)

    def pareto(self, a: float, size=None):
        """Match ``Generator.pareto``: ``expm1(std_exp / a)``."""
        if size is None:
            return expm1(self.draw_exponential() / a)
        return self.generator.pareto(a, size)

    def next_uniform(self) -> float:
        """One uniform [0, 1) draw (alias of :meth:`random`)."""
        return self.draw_uniform()

    def next_index(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` from one uniform draw.

        The cluster layer's index draw (load-balancer node picks,
        shard-subset shuffles), with the ``min`` guarding float
        rounding at large *n* (``random() < 1.0`` strictly, but
        ``u * n`` may round up).  ``n <= 1`` consumes no draw.
        """
        if n <= 1:
            return 0
        return min(int(self.draw_uniform() * n), n - 1)

    # ------------------------------------------------------------ delegation
    def __getattr__(self, name: str):
        """Delegate anything else (integers, choice, ...) to the
        generator."""
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "generator"), name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stream {self.generator!r}>"


class _Refused:
    """Stands in for a :class:`BlockStream`'s generator and its other
    draws: calling it, or reading any public attribute, raises."""

    __slots__ = ("_message",)

    def __init__(self, message: str) -> None:
        self._message = message

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        raise ConfigurationError(self._message)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        raise ConfigurationError(self._message)


class BlockStream(Stream):
    """A stream whose every holder draws one kind, served from blocks.

    ``draw_<kind>`` (and every scalar method over it) returns the next
    value of one shared sequence, refilled :data:`BLOCK` values at a
    time by the generator's own ``size=`` sampler: the values, in
    order, of the scalar draws (see the module docstring).  Every
    other draw, ``size=`` form and delegated method raises
    :class:`~repro.errors.ConfigurationError`, since the generator
    sits up to a block ahead.  Build it through
    ``RandomStreams.stream(name, only=kind)``.

    Attributes:
        kind: the served kind, a key of :data:`BLOCK_KINDS`.
    """

    __slots__ = ("kind",)

    def __init__(self, generator: np.random.Generator, kind: str,
                 name: str = "") -> None:
        if kind not in BLOCK_KINDS:
            raise ConfigurationError(
                f"block-served kind must be one of "
                f"{', '.join(BLOCK_KINDS)}, got {kind!r}")
        self.kind = kind
        fill = getattr(generator, BLOCK_KINDS[kind])
        refused = _Refused(
            f"stream {name!r} serves {kind} draws from blocks only; its "
            f"generator runs ahead of the scalar sequence")
        # The wrapped generator is never exposed: every size= form and
        # delegated method reaches the refusal instead.
        self.generator = refused
        self.draw_uniform = self.draw_normal = self.draw_exponential = (
            refused)
        # One C-level iterator over ever-refilled blocks: a served value
        # is one __next__, a refill one size= call.
        blocks = iter(lambda: fill(BLOCK).tolist(), None)
        setattr(self, "draw_" + kind, chain.from_iterable(blocks).__next__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockStream {self.kind}>"


def as_stream(rng):
    """Wrap *rng* in a :class:`Stream` unless it already is one.

    ``None`` passes through (deterministic call sites keep their
    no-randomness contract).
    """
    if rng is None or isinstance(rng, Stream):
        return rng
    return Stream(rng)
