"""Exception types shared across the package, and numpy's missing size check."""

import math
import sys


class CurdurError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CurdurError, ValueError):
    """Invalid configuration: degenerate basis, bad sampler settings, bad reporting rules."""


class DimensionError(CurdurError, ValueError):
    """Shape or length mismatch between related arrays."""


class OutOfWindowError(CurdurError, ValueError):
    """A reported duration reaches past the two-year observation window."""


class DegenerateDistributionError(CurdurError, ValueError):
    """A distribution that must place mass at day zero has none."""


class IngestError(CurdurError, ValueError):
    """Malformed or unusable survey input."""


class SamplingError(CurdurError, RuntimeError):
    """The sampler could not produce usable draws."""


def check_allocation(*shape: int) -> None:
    """MemoryError for 8-byte values of ``shape`` past any address space,
    which numpy refuses with ValueError or OverflowError instead."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise MemoryError(f"an array of shape {shape} needs more bytes than any address space")
