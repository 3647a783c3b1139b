"""Unit conventions and helpers used throughout the library.

All simulated time is expressed in **microseconds** as floats, all
frequencies in **GHz**, and all rates in **requests per second** unless
a name says otherwise.  These helpers exist so call sites read in the
units the paper uses (e.g. ``ms(2)`` for a 2-millisecond budget) rather
than in raw magic numbers.
"""

from __future__ import annotations

import math

from repro.errors import InvalidValueError

#: One microsecond (the base time unit).
US = 1.0

#: Microseconds per millisecond.
MS = 1_000.0

#: Microseconds per second.
SECOND = 1_000_000.0


def us(value: float) -> float:
    """Return *value* microseconds expressed in base time units."""
    return float(value) * US


def ms(value: float) -> float:
    """Return *value* milliseconds expressed in base time units."""
    return float(value) * MS


def seconds(value: float) -> float:
    """Return *value* seconds expressed in base time units."""
    return float(value) * SECOND


def to_ms(value_us: float) -> float:
    """Convert microseconds to milliseconds."""
    return float(value_us) / MS


def to_seconds(value_us: float) -> float:
    """Convert microseconds to seconds."""
    return float(value_us) / SECOND


def qps_to_interarrival_us(qps: float) -> float:
    """Mean inter-arrival time in microseconds for a rate in queries/sec.

    Raises:
        InvalidValueError: if *qps* is not strictly positive and finite.
    """
    if not 0.0 < qps < math.inf:
        raise InvalidValueError(
            f"qps must be finite and positive, got {qps!r}")
    return SECOND / float(qps)


def interarrival_us_to_qps(interarrival_us: float) -> float:
    """Rate in queries/sec for a mean inter-arrival time in microseconds.

    Raises:
        InvalidValueError: if *interarrival_us* is not strictly positive.
    """
    if interarrival_us <= 0:
        raise InvalidValueError(
            f"interarrival_us must be positive, got {interarrival_us!r}"
        )
    return SECOND / float(interarrival_us)


def ghz(value: float) -> float:
    """Return a frequency in GHz (identity; documents intent)."""
    return float(value)


def work_cycles_us(work_us_at_nominal: float, nominal_ghz: float,
                   current_ghz: float) -> float:
    """Scale a work duration calibrated at nominal frequency to *current_ghz*.

    A piece of CPU-bound work that takes ``work_us_at_nominal``
    microseconds at ``nominal_ghz`` takes proportionally longer at a
    lower frequency and shorter at a higher one.

    Raises:
        InvalidValueError: if either frequency is not strictly positive.
    """
    if nominal_ghz <= 0 or current_ghz <= 0:
        raise InvalidValueError("frequencies must be positive")
    return float(work_us_at_nominal) * (float(nominal_ghz) / float(current_ghz))
