"""Decreasing integrated B-spline basis on the integer day grid.

The duration model writes the unnormalized probability weight at day d as
a positive combination of basis functions, each starting at one on day 0
and decaying to zero at the window boundary.  This module builds those
functions: ordinary B-splines via the Cox-de Boor recurrence, integrated
exactly with per-piece Gauss-Legendre quadrature, normalized to [0, 1],
and reflected so every column is non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DimensionError
from .window import NUM_DAYS


@dataclass(frozen=True)
class BasisConfig:
    """Knot layout for the spline basis.

    num_segments
        Number of equal-width knot segments on [0, support_days].
    degree
        Polynomial degree of the underlying B-splines.

    ``support_days`` is the survey window, a constant of the method and not
    a setting: support points are days 0 .. support_days - 1, and the basis
    grid extends one day further, to the boundary pinned at zero.
    """

    support_days: ClassVar[int] = NUM_DAYS
    num_segments: int = 10
    degree: int = 3

    def __post_init__(self):
        if self.num_segments < 1:
            raise ConfigurationError(
                f"num_segments must be >= 1, got {self.num_segments}"
            )
        if self.degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {self.degree}")

    @property
    def num_basis(self) -> int:
        """Number of basis functions K."""
        return self.num_segments + self.degree


@dataclass(frozen=True)
class SplineBasis:
    """Precomputed decreasing basis matrix.

    ``values[d, k]`` holds the kth reflected integrated B-spline at day d,
    for d = 0 .. support_days.  Every entry lies in [0, 1], every column is
    non-increasing, row 0 is all ones and the last row is all zeros.
    Immutable after construction; safe for concurrent reads.
    """

    values: np.ndarray
    knots: np.ndarray

    @property
    def num_basis(self) -> int:
        return self.values.shape[1]

    @property
    def support_days(self) -> int:
        return self.values.shape[0] - 1


def _bspline_columns(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Evaluate all B-splines of the given degree at the points x.

    ``knots`` is the extended (clamped) knot vector.  The last nonempty
    span is treated as closed so the right boundary itself is covered.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nk = knots.size
    b = np.zeros((x.size, nk - 1))
    for i in range(nk - 1):
        if knots[i] < knots[i + 1]:
            b[:, i] = (knots[i] <= x) & (x < knots[i + 1])
    last = np.flatnonzero(np.diff(knots) > 0)[-1]
    b[x == knots[-1], last] = 1.0
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


def _cumulative_integrals(
    knots_ext: np.ndarray, degree: int, breaks: np.ndarray
) -> np.ndarray:
    """Cumulative integral of each B-spline at days 0 .. NUM_DAYS.

    Integration is exact: the integrand is polynomial between consecutive
    cut points (integers plus knots), and the Gauss-Legendre order is
    chosen to integrate that degree exactly.
    """
    grid = np.arange(NUM_DAYS + 1, dtype=float)
    cuts = np.unique(np.concatenate([grid, breaks]))
    q = degree // 2 + 1
    nodes, weights = np.polynomial.legendre.leggauss(q)
    lo, hi = cuts[:-1], cuts[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    design = _bspline_columns(pts.ravel(), knots_ext, degree)
    k = design.shape[1]
    piece = (design.reshape(lo.size, q, k) * weights[None, :, None]).sum(axis=1)
    piece *= half[:, None]
    running = np.vstack([np.zeros((1, k)), np.cumsum(piece, axis=0)])
    return running[np.searchsorted(cuts, grid)]


def build_basis(config: BasisConfig) -> SplineBasis:
    """Construct the decreasing basis for the given knot layout.

    Knots are placed evenly on [0, NUM_DAYS]; each B-spline is integrated,
    normalized to [0, 1], and reflected so column k runs from 1 at day 0
    down to 0 at the boundary.
    """
    breaks = np.linspace(0.0, float(NUM_DAYS), config.num_segments + 1)
    knots_ext = np.concatenate(
        [np.zeros(config.degree), breaks, np.full(config.degree, float(NUM_DAYS))]
    )
    cumint = _cumulative_integrals(knots_ext, config.degree, breaks)
    totals = cumint[-1, :]
    values = 1.0 - cumint / totals
    values[0, :] = 1.0
    values[-1, :] = 0.0
    return SplineBasis(values=values, knots=breaks)


def evaluate_gamma(basis: SplineBasis, alpha: np.ndarray) -> np.ndarray:
    """Combine basis columns with positive coefficients.

    Returns the vector gamma of length support_days + 1; non-increasing
    for any nonnegative alpha, with gamma at the boundary equal to zero.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (basis.num_basis,):
        raise DimensionError(
            f"alpha has shape {alpha.shape}, expected ({basis.num_basis},)"
        )
    return basis.values @ alpha
