"""Observation model for heaped, multi-unit duration reports.

A survey answer is a pair (z, unit).  Each pair maps to an integer day
interval; the probability of observing the pair is the duration
distribution summed over that interval.  Day reports on preferred round
values (multiples of 7 or 30) are treated as heaped: the true day may lie
anywhere within a small window around the reported value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError, OutOfWindowError
from .window import LAST_DAY, NUM_DAYS, day_vector

YEAR_INTERVAL_START = 365 - 31


class Unit(IntEnum):
    """Reporting unit codes as used in survey extracts."""

    DAY = 1
    WEEK = 2
    MONTH = 3
    YEAR = 4


def _whole(value, name: str) -> int:
    """``value`` as a Python int; a value that is not a whole number raises
    ConfigurationError rather than being truncated."""
    try:
        whole = int(value)
        if whole == value:
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{name} {value!r} is not a whole number")


@dataclass(frozen=True)
class HeapSet:
    """Preferred round day values and the half-width of their heap window."""

    days: tuple[int, ...] = (7, 14, 21, 28, 30, 60, 90)
    halfwidth: int = 2

    def __post_init__(self):
        days = tuple(sorted(_whole(d, "heap day") for d in self.days))
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "halfwidth", _whole(self.halfwidth, "halfwidth"))
        if len(set(days)) != len(days):
            raise ConfigurationError(f"heap days must be distinct, got {days}")
        if self.halfwidth < 0:
            raise ConfigurationError(f"halfwidth must be >= 0, got {self.halfwidth}")
        if any(not self.halfwidth <= d <= LAST_DAY for d in days):
            raise ConfigurationError(
                f"heap days {days} must all be >= halfwidth {self.halfwidth}, so heap "
                f"intervals stay non-negative, and <= {LAST_DAY}, the last day reportable"
            )

    def __contains__(self, z: int) -> bool:
        return z in self.days


DEFAULT_HEAP = HeapSet()


# first value excluded: days and weeks wholly past day 729, and months and
# years of two years or more (24 months, days 721-750, starts in the window)
EXCLUSION_MIN = {Unit.DAY: 730, Unit.WEEK: 105, Unit.MONTH: 24, Unit.YEAR: 2}


@dataclass(frozen=True)
class ReportedDuration:
    """One survey response: reported value plus reporting unit.

    The one check of a (z, unit) pair: a value that is not a whole number
    raises ConfigurationError, a negative value or a 0-year report raises
    ValueError, and one from the unit's ``EXCLUSION_MIN`` on raises
    OutOfWindowError, so every report built starts inside the window.
    """

    z: int
    unit: Unit

    def __post_init__(self):
        z = _whole(self.z, "reported value")
        unit = Unit(self.unit)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "unit", unit)
        if z < 0:
            raise ValueError(f"reported value {z} is negative")
        if unit == Unit.YEAR and z == 0:
            raise ValueError(
                "a 0-year report is not representable "
                "(expected z = 1 within the two-year window)"
            )
        if z >= EXCLUSION_MIN[unit]:
            raise OutOfWindowError(f"{z},{unit.name.lower()} is beyond the two-year window")


@dataclass(frozen=True)
class ReportedDataset:
    """All survey responses, plus a compressed multiset for fast likelihoods.

    ``counts`` holds each distinct report once, in (unit, z) order, so
    nothing computed from it depends on the order of the records.
    """

    records: tuple[ReportedDuration, ...]
    counts: dict = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        counts = sorted(Counter(self.records).items(), key=lambda c: (c[0].unit, c[0].z))
        object.__setattr__(self, "counts", dict(counts))

    def __len__(self) -> int:
        return len(self.records)


def day_interval(record: ReportedDuration, heap: HeapSet = DEFAULT_HEAP) -> tuple[int, int]:
    """Integer day interval [lo, hi] implied by one report.

    Days are exact unless the value sits on a heap day; weeks, months and
    years map to their fixed ranges.  The upper end is clamped to the last
    observable day; ``ReportedDuration`` refuses every report that would
    start beyond it, under any heap.
    """
    z = record.z
    if record.unit == Unit.DAY:
        if z in heap:
            lo, hi = z - heap.halfwidth, z + heap.halfwidth
        else:
            lo, hi = z, z
    elif record.unit == Unit.WEEK:
        lo, hi = 7 * z, 7 * z + 6
    elif record.unit == Unit.MONTH:
        lo, hi = 30 * z + 1, 30 * z + 30
    else:
        lo, hi = YEAR_INTERVAL_START, LAST_DAY
    return lo, min(hi, LAST_DAY)


def reported_prob(phi, record: ReportedDuration, heap: HeapSet = DEFAULT_HEAP) -> float:
    """Probability of one report under a duration distribution.

    ``phi`` may be a TslsDistribution or a plain probability vector over
    days 0 .. 729; any other shape raises DimensionError.  The sum is accumulated term by term, matching a plain
    enumeration over the day interval exactly.
    """
    vec = day_vector(phi, "phi")
    lo, hi = day_interval(record, heap)
    total = 0.0
    for y in range(lo, hi + 1):
        total += float(vec[y])
    return total


def observation_matrix(dataset: ReportedDataset, heap: HeapSet = DEFAULT_HEAP) -> np.ndarray:
    """P(report | day): row r is 1 on the ``day_interval`` of the r-th report
    of ``dataset.counts`` and 0 elsewhere, so ``@ phi`` gives each report's
    probability."""
    matrix = np.zeros((len(dataset.counts), NUM_DAYS))
    for row, record in zip(matrix, dataset.counts):
        lo, hi = day_interval(record, heap)
        row[lo : hi + 1] = 1.0
    return matrix


def spread_mass(dataset: ReportedDataset, heap: HeapSet = DEFAULT_HEAP) -> np.ndarray:
    """Per-day histogram weights with each report's mass spread evenly.

    Every record contributes 1 / (interval width) to each day of its
    interval, so the output sums to the number of records.
    """
    matrix = observation_matrix(dataset, heap)
    return (np.fromiter(dataset.counts.values(), float) / matrix.sum(axis=1)) @ matrix
