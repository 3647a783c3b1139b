"""Exception hierarchy for the ``repro`` library.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations

import operator
from typing import Any, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent hardware/software configuration."""


class InvalidValueError(ConfigurationError, ValueError):
    """A numeric parameter outside its domain, such as a rate, latency
    or frequency that is not positive.

    Also a :class:`ValueError`, so callers that catch ``ValueError``
    from the unit helpers or :class:`~repro.net.link.NetworkLink` keep
    working.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class HostToolingError(ReproError):
    """A host-tuning operation (sysfs/MSR/grub) failed."""


class MsrError(HostToolingError):
    """A model-specific-register read or write failed."""


class SysfsError(HostToolingError):
    """A sysfs read or write failed."""


class StatisticsError(ReproError):
    """A statistical routine received unusable input."""


class InsufficientSamplesError(StatisticsError):
    """Too few samples to compute the requested statistic."""

    def __init__(self, needed: int, got: int, what: str = "statistic"):
        self.needed = int(needed)
        self.got = int(got)
        self.what = what
        super().__init__(
            f"{what} requires at least {needed} samples, got {got}"
        )


class ExperimentError(ReproError):
    """An experiment specification or run failed."""


class SpecValidationError(ExperimentError):
    """An experiment/campaign spec failed validation at construction.

    Raised by the :mod:`repro.api` spec layer and the workload
    registry's parameter schemas: unknown workload names (with a
    did-you-mean suggestion), unknown or ill-typed workload
    parameters, and impossible load/policy values.  Always names the
    offending field so a spec file can be fixed without reading
    source.
    """


def spec_int(value: Any, field: str,
             minimum: Optional[int] = None) -> int:
    """*value* as the integer spec field *field*, or raise.

    Accepts integers (numpy's included) and integral floats (JSON has
    one number type).  Rejects bools, fractional floats, NaN and
    infinity with a :class:`SpecValidationError` naming *field*:
    ``int()`` would truncate the first and fail on the others with a
    raw ``ValueError`` or ``OverflowError``.  With *minimum*, a value
    below it is rejected the same way.
    """
    if not isinstance(value, bool):
        number: Optional[int] = None
        try:
            number = operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                number = int(value)
        if number is not None:
            if minimum is not None and number < minimum:
                raise SpecValidationError(
                    f"{field} must be >= {minimum}, got {number!r}")
            return number
    raise SpecValidationError(f"{field} must be an integer, got {value!r}")
