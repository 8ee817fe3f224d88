"""Shared helpers for the test suite."""

import numpy as np
import pytest

from curdur.reporting import ReportedDataset, ReportedDuration, Unit


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (f(hi) - f(lo)) / (2.0 * h)
    return out


def make_mixed_dataset(rng, n=40) -> ReportedDataset:
    """Random dataset covering all four units, heaped and exact days."""
    heap_days = (7, 14, 21, 28, 30, 60, 90)
    records = [
        ReportedDuration(z=2, unit=Unit.DAY),
        ReportedDuration(z=14, unit=Unit.DAY),
        ReportedDuration(z=3, unit=Unit.WEEK),
        ReportedDuration(z=1, unit=Unit.MONTH),
        ReportedDuration(z=1, unit=Unit.YEAR),
    ]
    for _ in range(n - len(records)):
        kind = rng.integers(0, 5)
        if kind == 0:
            records.append(ReportedDuration(z=int(rng.integers(0, 7)), unit=Unit.DAY))
        elif kind == 1:
            records.append(
                ReportedDuration(z=int(rng.choice(heap_days)), unit=Unit.DAY)
            )
        elif kind == 2:
            records.append(ReportedDuration(z=int(rng.integers(0, 105)), unit=Unit.WEEK))
        elif kind == 3:
            records.append(ReportedDuration(z=int(rng.integers(0, 24)), unit=Unit.MONTH))
        else:
            records.append(ReportedDuration(z=1, unit=Unit.YEAR))
    return ReportedDataset(records)


def random_monotone_simplex(rng, size=730) -> np.ndarray:
    """Random non-increasing probability vector (reverse cumsum of positives)."""
    increments = rng.exponential(size=size)
    tail_sums = np.cumsum(increments[::-1])[::-1]
    return tail_sums / tail_sums.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
