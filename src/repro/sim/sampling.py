"""Draw-ahead batched sampling over numpy generators.

Every stochastic component of the simulator draws scalar values from a
named :class:`~repro.sim.random.RandomStreams` generator.  A scalar
``Generator.exponential()`` call costs ~1 us of Python/numpy dispatch;
invoked 5-10 times per request it dominates the hot path once the
event loop itself is cheap.  :class:`BatchedStream` removes that cost
by fronting a generator with preallocated block draws served from a
cursor.

**Bit-identity.**  numpy ``Generator`` distributions consume the
underlying bit stream through three primitive samplers -- the uniform
double, the ziggurat standard normal, and the ziggurat standard
exponential -- and a ``size=n`` block draw produces exactly the same
value sequence as ``n`` scalar calls.  Derived distributions are pure
float arithmetic on one primitive draw and can be replayed exactly in
Python (IEEE-754 ops are deterministic, ``math.exp`` and numpy's C
``exp`` resolve to the same libm symbol in-process):

* ``exponential(m)``       == ``m * standard_exponential()``
* ``normal(loc, s)``       == ``loc + s * standard_normal()``
* ``lognormal(mu, s)``     == ``exp(mu + s * standard_normal())``
* ``uniform(lo, hi)``      == ``lo + (hi - lo) * random()``
* ``pareto(a)``            == ``expm1(standard_exponential() / a)``

So a block of one *primitive* serves any mix of scale/shape parameters
bit-identically -- as long as consecutive draws keep using the same
primitive.  A draw of a *different* primitive consumes different raw
bits, so a stream that interleaves primitives cannot be read ahead.

:class:`BatchedStream` therefore promotes a primitive to block mode
only after observing a long same-primitive run (``promote_after``), and
if a foreign draw does interrupt an active block it *reconciles*: the
bit generator state is rewound to the block start and re-advanced past
exactly the values already served, leaving the stream where scalar
code would have left it (then promotion backs off so a genuinely mixed
stream settles into plain scalar serving, paying only a scalar
forward per draw).  The result is safe to wire everywhere: homogeneous
streams (arrival trains, network latency, think times) reach full
block speed, mixed streams (a station's service + SMT + C-state draws)
keep their exact scalar sequence.

``BatchedStream`` mirrors the ``Generator`` method names it serves, so
call sites accept either a raw generator or a batched stream.

**Scalar forward.**  A draw that cannot come from a block calls
numpy's C sampler directly (:func:`scalar_samplers`):
``random_standard_uniform``, ``random_standard_normal`` or
``random_standard_exponential`` from numpy's C API for random
(``numpy/random/distributions.h``), through ``ctypes`` on the
generator's own bit generator.  Those are the per-element samplers
behind ``Generator.random()``, ``.standard_normal()`` and
``.standard_exponential()``, so every value and the bit-generator
state afterwards are the method's, bit for bit; only the method
dispatch around a few nanoseconds of C goes.  Where the samplers
cannot be loaded, or disagree with the methods on a self-check, the
generator's bound methods serve instead.  The C path
skips ``Generator.lock``: one generator must never be drawn from on
two threads at once, which no simulator component does.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import exp, expm1
from typing import Any, Callable, Optional, Tuple

import numpy as np

#: Default block size for promoted (draw-ahead) primitives.
DEFAULT_BLOCK_SIZE = 8192
#: Same-primitive run length after which draw-ahead engages.
DEFAULT_PROMOTE_AFTER = 64
#: Promotion threshold beyond which a stream never promotes again
#: (reached after a few reconciles on a genuinely mixed stream).
_NEVER_PROMOTE = 1 << 20

#: Primitive kinds (indices into the per-kind dispatch tuples).
_UNIFORM, _NORMAL, _EXPONENTIAL = 0, 1, 2
_NO_KIND = -1

#: numpy's per-element primitive samplers, in kind order.
_C_SAMPLER_NAMES = ("random_standard_uniform", "random_standard_normal",
                    "random_standard_exponential")

Draw = Callable[[], float]


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


class BatchedStream:
    """A draw-ahead facade over one ``numpy.random.Generator``.

    Serves exactly the value sequence the wrapped generator would
    produce under scalar calls (see module docstring), while pulling
    values in blocks whenever the consumption pattern allows.

    Args:
        generator: the generator to front.  The stream owns the
            generator's bit-stream position; drawing from the raw
            generator while a block is active desynchronizes the two
            (use :meth:`flush` first, or route everything through the
            stream).
        block_size: values per preallocated block draw.
        promote_after: consecutive same-primitive draws before block
            mode engages (1 engages it from the second draw of a run;
            useful in tests).
    """

    __slots__ = (
        "_gen", "_bitgen", "block_size", "promote_after", "_threshold",
        "_kind", "_run", "_buf", "_buflen", "_cursor", "_saved_state",
        "_scalar_fns", "_block_fns",
        "batched_served", "scalar_served", "blocks_drawn", "reconciles",
    )

    def __init__(self, generator: np.random.Generator,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 promote_after: int = DEFAULT_PROMOTE_AFTER) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if promote_after < 1:
            raise ValueError(
                f"promote_after must be >= 1, got {promote_after}")
        self._gen = generator
        self._bitgen = generator.bit_generator
        self.block_size = int(block_size)
        self.promote_after = int(promote_after)
        self._threshold = int(promote_after)
        self._kind = _NO_KIND
        self._run = 0
        self._buf: Optional[list] = None
        self._buflen = 0
        self._cursor = 0
        self._saved_state: Any = None
        self._scalar_fns = scalar_samplers(generator)
        self._block_fns = (generator.random, generator.standard_normal,
                           generator.standard_exponential)
        #: Telemetry: draws served from blocks / scalar forwards /
        #: blocks drawn / reconcile (rewind) events.
        self.batched_served = 0
        self.scalar_served = 0
        self.blocks_drawn = 0
        self.reconciles = 0

    # ------------------------------------------------------ introspection
    @property
    def generator(self) -> np.random.Generator:
        """The wrapped generator (position only valid after flush)."""
        return self._gen

    @property
    def draws_remaining(self) -> int:
        """Values left in the active block (0 when serving scalar)."""
        return self._buflen - self._cursor if self._buf is not None else 0

    # ------------------------------------------------------- block plumbing
    def _refill(self, kind: int) -> float:
        """Draw a fresh block of *kind* and serve its first value."""
        self._saved_state = self._bitgen.state
        block: Any = self._block_fns[kind](self.block_size)
        buf = block.tolist()
        self._buf = buf
        self._buflen = self.block_size
        self._cursor = 1
        self._kind = kind
        self.blocks_drawn += 1
        self.batched_served += 1
        return buf[0]

    def _reconcile(self) -> None:
        """Rewind past the unserved tail of the active block.

        Restores the bit-generator state captured at block start and
        re-advances it by exactly the served prefix, so the generator
        sits where scalar consumption would have left it.  Promotion
        backs off so a mixed stream stops trying to read ahead.
        """
        served = self._cursor
        self._bitgen.state = self._saved_state
        if served:
            self._block_fns[self._kind](served)
        self._buf = None
        self._cursor = 0
        self.reconciles += 1
        if self._threshold < _NEVER_PROMOTE:
            self._threshold = min(self._threshold * 4, _NEVER_PROMOTE)

    def flush(self) -> None:
        """Return the generator to the exact scalar-sequence position.

        Call before handing ``self.generator`` to code that draws from
        it directly, or before a whole-vector pull.  No-op when no
        block is active.
        """
        if self._buf is not None:
            self._reconcile()
        self._kind = _NO_KIND
        self._run = 0

    def refill(self, kind: str = "exponential") -> int:
        """Force a block of *kind* to be drawn ahead now.

        Mostly useful to pre-charge a stream before a latency-critical
        stretch.  Returns the number of draws now available.
        """
        kinds = {"uniform": _UNIFORM, "normal": _NORMAL,
                 "exponential": _EXPONENTIAL}
        try:
            code = kinds[kind]
        except KeyError:
            raise ValueError(
                f"unknown kind {kind!r}; expected one of {sorted(kinds)}"
            ) from None
        if self._buf is not None and self._kind == code:
            return self.draws_remaining
        self.flush()
        value = self._refill(code)
        # Put the first value back: refill() must not consume a draw.
        self._cursor = 0
        self.batched_served -= 1
        del value
        return self._buflen

    # ------------------------------------------------------------ primitives
    # The three primitive samplers share one shape: serve from the
    # active block when this primitive owns it, otherwise fall back to
    # a scalar forward, promoting after a long same-primitive run.
    def random(self, size=None):
        """Uniform double in [0, 1) -- next_double of the bit stream."""
        if size is not None:
            self.flush()
            return self._gen.random(size)
        if self._kind == _UNIFORM:
            if self._buf is not None:
                i = self._cursor
                if i < self._buflen:
                    self._cursor = i + 1
                    self.batched_served += 1
                    return self._buf[i]
                return self._refill(_UNIFORM)
            run = self._run + 1
            if run >= self._threshold:
                return self._refill(_UNIFORM)
            self._run = run
        else:
            self._rekind(_UNIFORM)
        self.scalar_served += 1
        return self._scalar_fns[_UNIFORM]()

    def standard_normal(self, size=None):
        """Ziggurat standard normal draw."""
        if size is not None:
            self.flush()
            return self._gen.standard_normal(size)
        if self._kind == _NORMAL:
            if self._buf is not None:
                i = self._cursor
                if i < self._buflen:
                    self._cursor = i + 1
                    self.batched_served += 1
                    return self._buf[i]
                return self._refill(_NORMAL)
            run = self._run + 1
            if run >= self._threshold:
                return self._refill(_NORMAL)
            self._run = run
        else:
            self._rekind(_NORMAL)
        self.scalar_served += 1
        return self._scalar_fns[_NORMAL]()

    def standard_exponential(self, size=None):
        """Ziggurat standard exponential draw."""
        if size is not None:
            self.flush()
            return self._gen.standard_exponential(size)
        if self._kind == _EXPONENTIAL:
            if self._buf is not None:
                i = self._cursor
                if i < self._buflen:
                    self._cursor = i + 1
                    self.batched_served += 1
                    return self._buf[i]
                return self._refill(_EXPONENTIAL)
            run = self._run + 1
            if run >= self._threshold:
                return self._refill(_EXPONENTIAL)
            self._run = run
        else:
            self._rekind(_EXPONENTIAL)
        self.scalar_served += 1
        return self._scalar_fns[_EXPONENTIAL]()

    def _rekind(self, kind: int) -> None:
        """Account a primitive switch (reconciling any active block)."""
        if self._buf is not None:
            self._reconcile()
        self._kind = kind
        self._run = 1

    # --------------------------------------------------- derived (scalar)
    # The two hottest derived draws (exponential, lognormal) inline the
    # primitive serve instead of bouncing through standard_* -- one
    # Python frame per draw matters at millions of draws per campaign.
    def exponential(self, scale: float = 1.0, size=None):
        """Match ``Generator.exponential``: ``scale * std_exp``."""
        if size is not None:
            self.flush()
            return self._gen.exponential(scale, size)
        if self._kind == _EXPONENTIAL:
            if self._buf is not None:
                i = self._cursor
                if i < self._buflen:
                    self._cursor = i + 1
                    self.batched_served += 1
                    return scale * self._buf[i]
                return scale * self._refill(_EXPONENTIAL)
            run = self._run + 1
            if run >= self._threshold:
                return scale * self._refill(_EXPONENTIAL)
            self._run = run
        else:
            self._rekind(_EXPONENTIAL)
        self.scalar_served += 1
        return scale * self._scalar_fns[_EXPONENTIAL]()

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0, size=None):
        """Match ``Generator.lognormal``: ``exp(normal(mean, sigma))``."""
        if size is not None:
            self.flush()
            return self._gen.lognormal(mean, sigma, size)
        if self._kind == _NORMAL:
            if self._buf is not None:
                i = self._cursor
                if i < self._buflen:
                    self._cursor = i + 1
                    self.batched_served += 1
                    return exp(mean + sigma * self._buf[i])
                return exp(mean + sigma * self._refill(_NORMAL))
            run = self._run + 1
            if run >= self._threshold:
                return exp(mean + sigma * self._refill(_NORMAL))
            self._run = run
        else:
            self._rekind(_NORMAL)
        self.scalar_served += 1
        return exp(mean + sigma * self._scalar_fns[_NORMAL]())

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Match ``Generator.normal``: ``loc + scale * std_normal``."""
        if size is not None:
            self.flush()
            return self._gen.normal(loc, scale, size)
        return loc + scale * self.standard_normal()

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Match ``Generator.uniform``: ``low + (high-low) * u``."""
        if size is not None:
            self.flush()
            return self._gen.uniform(low, high, size)
        return low + (high - low) * self.random()

    def pareto(self, a: float, size=None):
        """Match ``Generator.pareto``: ``expm1(std_exp / a)``."""
        if size is not None:
            self.flush()
            return self._gen.pareto(a, size)
        return expm1(self.standard_exponential() / a)

    # ------------------------------------------------- issue-facing names
    def next_uniform(self) -> float:
        """One uniform [0, 1) draw (alias of :meth:`random`)."""
        return self.random()

    def next_exponential(self, mean_us: float) -> float:
        """One exponential draw with mean *mean_us*."""
        return self.exponential(mean_us)

    def next_lognormal(self, mu: float, sigma: float) -> float:
        """One lognormal draw with log-space parameters (mu, sigma)."""
        return self.lognormal(mu, sigma)

    def next_normal(self, loc: float, scale: float) -> float:
        """One normal draw."""
        return loc + scale * self.standard_normal()

    def next_index(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` from one uniform draw.

        The cluster layer's index draw (load-balancer node picks,
        shard-subset shuffles): block-served like any other uniform,
        with the ``min`` guarding float rounding at large *n*
        (``random() < 1.0`` strictly, but ``u * n`` may round up).
        ``n <= 1`` consumes no draw.
        """
        if n <= 1:
            return 0
        return min(int(self.random() * n), n - 1)

    # ------------------------------------------------------ vector trains
    def exponential_train(self, mean_us: float, size: int) -> np.ndarray:
        """The next *size* exponential(mean) draws as one vector.

        Bit-identical to *size* scalar draws; used to construct whole
        open-loop arrival trains in one numpy call.
        """
        self.flush()
        return self._gen.standard_exponential(size) * mean_us

    def lognormal_train(self, mu: float, sigma: float,
                        size: int) -> np.ndarray:
        """The next *size* lognormal(mu, sigma) draws as one vector."""
        self.flush()
        return self._gen.lognormal(mu, sigma, size)

    # ----------------------------------------------------------- fallback
    def __getattr__(self, name: str):
        """Delegate anything else (integers, choice, ...) to the
        generator, after repositioning it at the exact scalar point."""
        if name.startswith("_"):
            raise AttributeError(name)
        attr = getattr(object.__getattribute__(self, "_gen"), name)
        self.flush()
        return attr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BatchedStream block={self.block_size} "
                f"batched={self.batched_served} scalar={self.scalar_served} "
                f"reconciles={self.reconciles}>")


def as_stream(rng, block_size: int = DEFAULT_BLOCK_SIZE,
              promote_after: int = DEFAULT_PROMOTE_AFTER):
    """Wrap *rng* in a :class:`BatchedStream` unless it already is one.

    ``None`` passes through (deterministic call sites keep their
    no-randomness contract).
    """
    if rng is None or isinstance(rng, BatchedStream):
        return rng
    return BatchedStream(rng, block_size=block_size,
                         promote_after=promote_after)
