"""Decreasing integrated B-spline basis on the integer day grid.

The duration model writes the unnormalized probability weight at day d as
a positive combination of basis functions, each starting at one on day 0
and decaying to zero at the window boundary.  This module builds those
functions from de Boor's integral identity: one minus the normalized
integral of a B-spline is a partial sum of the B-splines one degree higher,
which the Cox-de Boor recurrence evaluates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DimensionError
from .reporting import _whole
from .window import NUM_DAYS


@dataclass(frozen=True)
class BasisConfig:
    """Knot layout for the spline basis.

    num_segments
        Number of equal-width knot segments on [0, support_days].

    ``support_days`` (the survey window) and ``degree`` (cubic B-splines)
    are constants of the method, not settings: support points are days
    0 .. support_days - 1, and the basis grid extends one day further, to
    the boundary pinned at zero.
    """

    support_days: ClassVar[int] = NUM_DAYS
    degree: ClassVar[int] = 3
    num_segments: int = 10

    def __post_init__(self):
        object.__setattr__(self, "num_segments", _whole(self.num_segments, "num_segments"))
        if self.num_segments < 1:
            raise ConfigurationError(
                f"num_segments must be >= 1, got {self.num_segments}"
            )
        # more columns than support days are linearly dependent: no data
        # could identify their coefficients
        if self.num_basis > NUM_DAYS:
            raise ConfigurationError(
                f"num_segments + {self.degree} must be <= {NUM_DAYS}, got {self.num_basis}"
            )

    @property
    def num_basis(self) -> int:
        """Number of basis functions K."""
        return self.num_segments + self.degree


@dataclass(frozen=True)
class SplineBasis:
    """Precomputed decreasing basis matrix.

    ``values[d, k]`` holds the kth reflected integrated B-spline at day d,
    for d = 0 .. NUM_DAYS.  Every entry lies in [0, 1], every column is
    non-increasing, row 0 is all ones and the last row is all zeros.
    Values of any other shape raise DimensionError.  Immutable after
    construction; safe for concurrent reads.
    """

    values: np.ndarray
    knots: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 2 or shape[0] != NUM_DAYS + 1:
            raise DimensionError(f"basis values must hold one row per day 0 .. {NUM_DAYS}, "
                                 f"got shape {shape}")

    @property
    def num_basis(self) -> int:
        return self.values.shape[1]


def _bspline_columns(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Evaluate all B-splines of the given degree at the float points x.

    ``knots`` is the extended (clamped) knot vector.  Spans are half-open,
    so all are 0 at the last knot; the first is exactly 1 at the first knot.
    """
    nk = knots.size
    b = np.zeros((x.size, nk - 1))
    for i in range(nk - 1):
        b[:, i] = (knots[i] <= x) & (x < knots[i + 1])
    for p in range(1, degree + 1):
        nxt = np.zeros((x.size, nk - p - 1))
        for i in range(nk - p - 1):
            left_den = knots[i + p] - knots[i]
            if left_den > 0.0:
                nxt[:, i] += (x - knots[i]) / left_den * b[:, i]
            right_den = knots[i + p + 1] - knots[i + 1]
            if right_den > 0.0:
                nxt[:, i] += (knots[i + p + 1] - x) / right_den * b[:, i + 1]
        b = nxt
    return b


def build_basis(config: BasisConfig) -> SplineBasis:
    """Construct the decreasing basis for the given knot layout.

    Knots are placed evenly on [0, NUM_DAYS].  By the integral identity,
    one minus the normalized integral of the kth B-spline of degree p is
    the sum of the first k + 1 B-splines of degree p + 1 on the same breaks
    with one more repeat at each end: exactly 1 at day 0 and 0 at the
    boundary.  The sums round independently on each day; a running minimum
    down the days only evens that out, keeping each column non-increasing.
    """
    higher = config.degree + 1
    breaks = np.linspace(0.0, float(NUM_DAYS), config.num_segments + 1)
    knots_ext = np.concatenate([np.zeros(higher), breaks, np.full(higher, float(NUM_DAYS))])
    grid = np.arange(NUM_DAYS + 1, dtype=float)
    values = np.cumsum(_bspline_columns(grid, knots_ext, higher)[:, :-1], axis=1)
    values = np.minimum.accumulate(values, axis=0)
    return SplineBasis(values=values, knots=breaks)
