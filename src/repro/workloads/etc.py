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
(:meth:`EtcWorkload.sample_messages_kb`): one Python loop makes the
scalar draws and applies libm's ``exp``/``expm1`` to them, and only
the clamps run as array arithmetic, bit for bit equal to the per-call
samplers.
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
        # The batch path's uniform, normal and exponential draws.
        self._draws = None if rng is None else scalar_samplers(rng)

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
        bit for bit.  The loop makes the draws in the per-call order
        (the key's normal, the branch uniform, then the body's normal
        or the tail's exponential), through the stream's scalar
        samplers bound once, and applies the float transforms as it
        goes, with libm's ``exp``/``expm1`` (``math``; numpy's SIMD
        loops may differ from libm by an ULP).  Only the clamps and
        the integer sums run over arrays: sizes are clamped in float
        before the ``int64`` cast, and for ``x >= 0`` and an integer
        ``M``, ``trunc(min(x, M)) == min(trunc(x), M)``, so no size
        can wrap.
        """
        if self._draws is None:
            return [self.sample_message_kb()] * count
        uniform, normal, exponential = self._draws
        exp, expm1 = math.exp, math.expm1
        keys: List[float] = []
        values: List[float] = []
        key_put = keys.append
        value_put = values.append
        for _ in range(count):
            key_put(exp(3.4 + 0.35 * normal()))
            if uniform() < 0.95:
                value_put(exp(4.8 + 1.0 * normal()))
            else:
                # Pareto tail: the rare multi-KB values ETC is known for.
                value_put(1000 * (1.0 + expm1(exponential() / 1.5)))
        key = np.minimum(keys, _KEY_MAX_B).astype(np.int64) + _KEY_MIN_B
        np.clip(key, _KEY_MIN_B, _KEY_MAX_B, out=key)
        value = np.minimum(values, _VALUE_MAX_B).astype(np.int64)
        np.clip(value, 1, _VALUE_MAX_B, out=value)
        return ((key + value + 48) / 1024.0).tolist()
