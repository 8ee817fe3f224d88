"""Ground-truth survey generator.

Draws exact durations from a known gap-time distribution via stationary
length-biased sampling (a gap of class g, spanning g + 1 days, is selected
with probability proportional to its length; the observation point falls
uniformly inside), then pushes each exact day through a configurable
reporting rule to produce the heaped, multi-unit records a real survey
would contain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .reporting import (
    DEFAULT_HEAP,
    HeapSet,
    ReportedDataset,
    ReportedDuration,
    Unit,
    YEAR_INTERVAL_START,
    day_interval,
)
from .window import LAST_DAY, NUM_DAYS

MONTH_ENCODABLE_MAX = 720  # last day a month report can carry without clamping


@dataclass(frozen=True)
class TrueTbs:
    """User-specified gap-time distribution over x = 0 .. 729."""

    f_x: np.ndarray

    def __post_init__(self):
        f_x = np.asarray(self.f_x, dtype=float)
        object.__setattr__(self, "f_x", f_x)
        if f_x.shape != (NUM_DAYS,):
            raise ConfigurationError(
                f"true gap distribution must have length {NUM_DAYS}, got {f_x.shape}"
            )
        if np.any(f_x < 0.0) or not abs(float(f_x.sum()) - 1.0) <= 1e-9:
            raise ConfigurationError("true gap distribution must be a simplex")


def truncated_geometric(p: float) -> TrueTbs:
    """Geometric gap distribution truncated to the window."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"geometric rate must be in (0, 1), got {p}")
    x = np.arange(NUM_DAYS)
    f = p * (1.0 - p) ** x
    return TrueTbs(f_x=f / f.sum())

def point_mass(day: int) -> TrueTbs:
    """All gaps exactly ``day`` day-classes long."""
    if not 0 <= day <= LAST_DAY:
        raise ConfigurationError(f"point mass day must be in [0, {LAST_DAY}]")
    f = np.zeros(NUM_DAYS)
    f[day] = 1.0
    return TrueTbs(f_x=f)


def uniform_gap(lo: int, hi: int) -> TrueTbs:
    """Gaps uniform on the day-classes lo .. hi inclusive."""
    if not 0 <= lo <= hi <= LAST_DAY:
        raise ConfigurationError(f"need 0 <= lo <= hi <= {LAST_DAY}")
    f = np.zeros(NUM_DAYS)
    f[lo : hi + 1] = 1.0 / (hi - lo + 1)
    return TrueTbs(f_x=f)


def mixture(parts: Sequence[tuple[TrueTbs, float]]) -> TrueTbs:
    """Weighted mixture of gap distributions."""
    weights = np.array([w for _, w in parts], dtype=float)
    if np.any(weights < 0.0) or not abs(weights.sum() - 1.0) <= 1e-9:
        raise ConfigurationError("mixture weights must be non-negative and sum to 1")
    f = np.zeros(NUM_DAYS)
    for part, w in parts:
        f += w * part.f_x
    return TrueTbs(f_x=f)


def default_unit_rule(y: int) -> Sequence[tuple[str, float]]:
    """Unit-choice probabilities by magnitude of the exact day.

    Short durations are reported in exact days; mid-range ones split
    between (possibly heaped) days, weeks and months; long ones between
    months and years.
    """
    if y <= 6:
        return (("day_exact", 1.0),)
    if y <= 27:
        return (("day_heaped", 0.5), ("week", 0.5))
    if y <= 182:
        return (("week", 0.4), ("month", 0.4), ("day_heaped", 0.2))
    return (("month", 0.7), ("year", 0.3))


@dataclass(frozen=True)
class ReportingBehavior:
    """How exact durations become survey answers.

    ``rule`` maps an exact day to (channel, probability) pairs; channels
    are "day_exact", "day_heaped" (snap to the nearest heap day when one
    is within the heap half-width, otherwise exact), "week", "month"
    (falls back to a year report for days a month value cannot carry) and
    "year" (falls back to month below the year range).

    ``simulate_survey`` calls ``rule`` once per distinct exact day and
    reuses the answer for every record of that day, so ``rule`` must be a
    pure function of the day.
    """

    rule: Callable[[int], Sequence[tuple[str, float]]] = default_unit_rule
    heap: HeapSet = field(default_factory=HeapSet)


def _nearest_heap_day(y: int, heap: HeapSet) -> int | None:
    best = None
    for h in heap.days:
        if abs(y - h) <= heap.halfwidth:
            if best is None or abs(y - h) < abs(y - best):
                best = h
    return best


def _encode(channel: str, y: int, heap: HeapSet) -> ReportedDuration:
    if channel == "day_exact":
        return ReportedDuration(z=y, unit=Unit.DAY)
    if channel == "day_heaped":
        h = _nearest_heap_day(y, heap)
        return ReportedDuration(z=h if h is not None else y, unit=Unit.DAY)
    if channel == "week":
        return ReportedDuration(z=y // 7, unit=Unit.WEEK)
    if channel == "month":
        if 1 <= y <= MONTH_ENCODABLE_MAX:
            return ReportedDuration(z=(y - 1) // 30, unit=Unit.MONTH)
        if y >= YEAR_INTERVAL_START:
            return ReportedDuration(z=1, unit=Unit.YEAR)
        raise ConfigurationError(f"a month report cannot encode day {y}")
    if channel == "year":
        if y >= YEAR_INTERVAL_START:
            return ReportedDuration(z=1, unit=Unit.YEAR)
        return _encode("month", y, heap)
    raise ConfigurationError(f"unknown reporting channel {channel!r}")


def sample_tsls_exact(truth: TrueTbs, n: int, seed) -> np.ndarray:
    """Exact durations under stationary sampling from the true gaps.

    Selects a gap class g with probability proportional to (g + 1) times
    its frequency, then a uniform day inside it, which reproduces the
    renewal identity for the observed-duration distribution exactly.
    """
    if n < 0:
        raise ConfigurationError(f"survey size must be >= 0, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    weights = (np.arange(NUM_DAYS) + 1.0) * truth.f_x
    gaps = rng.choice(NUM_DAYS, size=n, p=weights / weights.sum())
    return rng.integers(0, gaps + 1)


class _DayChannels:
    """The reporting rule's channels for one exact day.

    The rule runs, and its probabilities are checked, when the object is
    built.  A channel is encoded, and its interval checked against the
    day, the first time a uniform picks it; later picks return the same
    record object.
    """

    __slots__ = ("y", "heap", "cumulative", "records")

    def __init__(self, y: int, behavior: ReportingBehavior):
        if not 0 <= y <= LAST_DAY:
            raise ConfigurationError(f"exact day {y} outside [0, {LAST_DAY}]")
        pairs = tuple(behavior.rule(y))
        probs = np.array([p for _, p in pairs], dtype=float)
        if np.any(probs < 0.0) or not abs(float(probs.sum()) - 1.0) <= 1e-9:
            raise ConfigurationError(
                f"channel probabilities for day {y} must be non-negative and sum to 1"
            )
        self.y, self.heap = y, behavior.heap
        self.cumulative = []  # (channel, running probability sum)
        acc = 0.0
        for name, p in pairs:
            acc += p
            self.cumulative.append((name, acc))
        self.records = {}

    def report(self, u: float) -> ReportedDuration:
        """The record of the first channel whose running sum exceeds u.

        When none does (the sum may fall short of 1 by rounding), the loop
        ends on the last channel, which is then the one reported.
        """
        for channel, acc in self.cumulative:
            if u < acc:
                break
        record = self.records.get(channel)
        if record is None:
            record = self.records[channel] = self._checked_record(channel)
        return record

    def _checked_record(self, channel: str) -> ReportedDuration:
        y = self.y
        record = _encode(channel, y, self.heap)
        lo, hi = day_interval(record, self.heap)
        if not lo <= y <= hi:
            raise ConfigurationError(
                f"channel {channel!r} produced {record} whose interval [{lo}, {hi}] "
                f"does not contain day {y}"
            )
        return record


def apply_reporting(y: int, behavior: ReportingBehavior, rng) -> ReportedDuration:
    """Convert one exact duration into a survey record.

    Raises a configuration error if the rule proposes a channel whose day
    interval cannot contain the exact value.
    """
    return _DayChannels(int(y), behavior).report(rng.random())


def simulate_survey(
    truth: TrueTbs,
    behavior: ReportingBehavior | None = None,
    n: int = 0,
    seed=0,
    return_exact: bool = False,
):
    """Generate a synthetic survey dataset; deterministic per seed."""
    behavior = behavior if behavior is not None else ReportingBehavior()
    rng = np.random.default_rng(seed)
    exact = sample_tsls_exact(truth, n, rng)
    # the same stream as one rng.random() per record, as apply_reporting draws
    uniforms = rng.random(len(exact)).tolist()
    days: dict[int, _DayChannels] = {}
    records = []
    for y, u in zip(exact.tolist(), uniforms):
        channels = days.get(y)
        if channels is None:
            channels = days[y] = _DayChannels(y, behavior)
        records.append(channels.report(u))
    dataset = ReportedDataset.from_records(records)
    if return_exact:
        return dataset, exact
    return dataset
