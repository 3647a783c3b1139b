"""The Facebook ETC key-value workload (Atikoglu et al., SIGMETRICS'12).

ETC is the general-purpose Memcached pool at Facebook and the workload
Mutilate recreates in the paper.  Its published characteristics, which
we model:

* key sizes: 16--250 bytes, mode around 20--40 bytes (we use a
  shifted lognormal clamped to the range);
* value sizes: heavy-tailed, most under 1 KB (generalized-Pareto-like;
  we use a lognormal body with median ~125 B plus a Pareto tail);
* operation mix: dominated by GETs, roughly 30:1 GET:SET.

Request synthesis draws message sizes in batches
(:meth:`EtcWorkload.sample_messages_kb`): a Python loop makes only the
scalar draws, and the size transforms run as float64 array arithmetic
over them, with libm's ``exp``/``expm1``, bit for bit equal to the
per-call samplers.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.sim.sampling import scalar_samplers

#: GET fraction of the ETC operation mix.
ETC_GET_FRACTION = 30.0 / 31.0

_KEY_MIN_B, _KEY_MAX_B = 16, 250
_VALUE_MAX_B = 1_000_000


class EtcWorkload:
    """Sampler for ETC request characteristics (resource demands)."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng

    # ------------------------------------------------------------------
    # The draws below use the primitive-sampler forms (exp(mu+sigma*z),
    # expm1(e/a)); bit-identical to the named Generator distributions
    # while skipping their kwargs dispatch.  The per-call samplers are
    # the reference that sample_messages_kb, the batch path request
    # synthesis runs, must equal bit for bit.
    def sample_key_size_b(self) -> int:
        """Sample one key size in bytes."""
        rng = self._rng
        if rng is None:
            return 31
        size = int(math.exp(3.4 + 0.35 * float(rng.standard_normal())))
        size += _KEY_MIN_B
        return int(min(_KEY_MAX_B, max(_KEY_MIN_B, size)))

    def sample_value_size_b(self) -> int:
        """Sample one value size in bytes (heavy-tailed)."""
        rng = self._rng
        if rng is None:
            return 125
        if rng.random() < 0.95:
            size = int(math.exp(4.8 + 1.0 * float(rng.standard_normal())))
        else:
            # Pareto tail: the rare multi-KB values ETC is known for.
            pareto = math.expm1(float(rng.standard_exponential()) / 1.5)
            size = int(1000 * (1.0 + pareto))
        return int(min(_VALUE_MAX_B, max(1, size)))

    def sample_is_get(self) -> bool:
        """Sample the operation type (True for GET)."""
        if self._rng is None:
            return True
        return bool(self._rng.random() < ETC_GET_FRACTION)

    # ------------------------------------------------------------------
    def sample_message_kb(self) -> float:
        """Approximate wire size of one request/response pair, in KB."""
        key = self.sample_key_size_b()
        value = self.sample_value_size_b()
        overhead = 48  # protocol framing
        return (key + value + overhead) / 1024.0

    def sample_messages_kb(self, count: int) -> List[float]:
        """The next *count* :meth:`sample_message_kb` values, in order.

        The same values and final generator state as *count* calls,
        bit for bit.  The loop makes only the draws, in the per-call
        order (the key's normal, the branch uniform, then the body's
        normal or the tail's exponential), through the stream's scalar
        samplers; the transforms then run over whole float64 arrays.
        ``exp`` and ``expm1`` stay libm's (``math``, mapped over the
        draws): numpy's SIMD loops may differ from libm by an ULP.
        Sizes are clamped in float before the ``int64`` cast: for
        ``x >= 0`` and an integer ``M``, ``trunc(min(x, M)) ==
        min(trunc(x), M)``, so no size can wrap.
        """
        if self._rng is None:
            return [self.sample_message_kb()] * count
        uniform, normal, exponential = scalar_samplers(self._rng)
        draws: List[float] = []
        put = draws.append
        for _ in range(count):
            put(normal())
            u = uniform()
            put(u)
            put(normal() if u < 0.95 else exponential())
        key_z, branch_u, third = np.array(draws).reshape(count, 3).T
        exp, expm1 = math.exp, math.expm1
        key = np.fromiter(map(exp, (3.4 + 0.35 * key_z).tolist()), float)
        key = np.minimum(key, _KEY_MAX_B).astype(np.int64) + _KEY_MIN_B
        np.clip(key, _KEY_MIN_B, _KEY_MAX_B, out=key)
        body = branch_u < 0.95
        tail = ~body
        value = np.empty(count)
        value[body] = np.fromiter(
            map(exp, (4.8 + 1.0 * third[body]).tolist()), float)
        # Pareto tail: the rare multi-KB values ETC is known for.
        value[tail] = 1000 * (1.0 + np.fromiter(
            map(expm1, (third[tail] / 1.5).tolist()), float))
        value = np.minimum(value, _VALUE_MAX_B).astype(np.int64)
        np.clip(value, 1, _VALUE_MAX_B, out=value)
        return ((key + value + 48) / 1024.0).tolist()
