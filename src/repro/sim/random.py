"""Deterministic per-component random streams.

Experiments in the paper take **one sample per run and reset the
environment between runs** so samples are iid.  To reproduce that we
give every run a root seed and derive an independent, named child
stream for each stochastic component (interarrival process, service
times, network, client overheads ...).  Two runs with the same root
seed are bit-identical; changing one component's draws does not perturb
any other component.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.sampling import BlockStream, Stream

#: The stream namespace active in this process (see
#: :func:`stream_namespace`).  Empty outside a namespace block, which
#: is the historical behavior: stream identity is (seed, name) alone.
_ACTIVE_NAMESPACE = ""


@contextmanager
def stream_namespace(prefix: str) -> Iterator[None]:
    """Prefix every stream name of registries built inside the block.

    The sharded runner (:mod:`repro.parallel`) builds each shard's
    full testbed inside ``stream_namespace("pshard3/")`` so every
    component of the shard draws from streams keyed by
    ``(seed, "pshard3/" + name)`` -- independent of every other
    shard's streams without touching the testbed assembly.  Nesting
    concatenates prefixes.  The namespace is captured by
    :class:`RandomStreams` at construction, so a registry keeps its
    namespace even when its streams are first requested outside the
    block.
    """
    global _ACTIVE_NAMESPACE
    previous = _ACTIVE_NAMESPACE
    _ACTIVE_NAMESPACE = previous + str(prefix)
    try:
        yield
    finally:
        _ACTIVE_NAMESPACE = previous


class RandomStreams:
    """A registry of named, independently-seeded numpy generators.

    Example:
        >>> streams = RandomStreams(seed=7)
        >>> a = streams.get("service").random()
        >>> b = RandomStreams(seed=7).get("service").random()
        >>> a == b
        True
    """

    def __init__(self, seed: int) -> None:
        self._seed_seq = np.random.SeedSequence(int(seed))
        self._root_seed = int(seed)
        self._namespace = _ACTIVE_NAMESPACE
        self._streams: Dict[str, np.random.Generator] = {}
        self._wrapped: Dict[str, Stream] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this registry was created with."""
        return self._root_seed

    @property
    def namespace(self) -> str:
        """The stream-name prefix captured at construction ("" when
        built outside a :func:`stream_namespace` block)."""
        return self._namespace

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for *name*.

        The stream seed is derived from the root seed and a stable hash
        of the (namespace-prefixed) name, so stream identity depends
        only on (seed, namespace + name).

        Raises:
            ConfigurationError: if *name* is block-served (see
                :meth:`stream`): its generator runs ahead of the
                scalar sequence, so it is never handed out.
        """
        wrapped = self._wrapped.get(name)
        if isinstance(wrapped, BlockStream):
            raise ConfigurationError(
                f"stream {name!r} serves {wrapped.kind} draws from "
                f"blocks; its generator is not handed out")
        return self._generator(name)

    def _generator(self, name: str) -> np.random.Generator:
        stream = self._streams.get(name)
        if stream is None:
            child = np.random.SeedSequence(
                entropy=self._seed_seq.entropy,
                spawn_key=(_stable_name_key(self._namespace + name),),
            )
            stream = np.random.default_rng(child)
            self._streams[name] = stream
        return stream

    def stream(self, name: str, only: Optional[str] = None) -> Stream:
        """Return (creating if needed) the :class:`Stream` for *name*.

        The stream fronts the same generator :meth:`get` returns, with
        its scalar draws bound to numpy's C samplers (see
        :mod:`repro.sim.sampling`).  Hot-path components should take
        this; cold call sites may keep the raw generator.  A plain
        stream draws nothing ahead, so mixing it with :meth:`get` for
        one name is safe.

        With ``only`` (``"uniform"`` or ``"normal"``), the caller
        vouches that every holder of *name* draws that one kind: the
        stream is a :class:`~repro.sim.sampling.BlockStream`, whose
        draws are the scalar sequence's values served from blocks,
        and which refuses every other draw, as :meth:`get` then
        refuses the name.  Later ``stream(name)`` calls, with or without ``only``,
        return the same block stream.

        Raises:
            ConfigurationError: if ``only`` names another kind than
                the stream's, or *name*'s generator was already handed
                out without it (a bound scalar draw cannot be
                revoked).
        """
        stream = self._wrapped.get(name)
        if stream is None:
            if only is None:
                stream = Stream(self._generator(name))
            elif name in self._streams:
                raise ConfigurationError(
                    f"stream {name!r} was handed out before it was "
                    f"block-served for {only} draws")
            else:
                stream = BlockStream(self._generator(name), only, name)
            self._wrapped[name] = stream
        elif only is not None and not (isinstance(stream, BlockStream)
                                       and stream.kind == only):
            raise ConfigurationError(
                f"stream {name!r} cannot be block-served for {only} "
                f"draws: it is already handed out")
        return stream

    def names(self) -> tuple:
        """Names of the streams created so far (diagnostic)."""
        return tuple(sorted(self._streams))


def _stable_name_key(name: str) -> int:
    """A deterministic 63-bit key for a stream name.

    ``hash(str)`` is salted per process, so we use FNV-1a instead.
    """
    acc = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF
