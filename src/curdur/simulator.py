"""Ground-truth survey generator.

Draws exact durations from a known gap-time distribution via stationary
length-biased sampling (a gap of class g, spanning g + 1 days, is selected
with probability proportional to its length; the observation point falls
uniformly inside), then pushes each exact day through a configurable
reporting rule to produce the heaped, multi-unit records a real survey
would contain.  The rule becomes one checked table of reports per
distinct day, and each record is one uniform's pick from its day's table.
The default rule is not coarsened at random (see README).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, check_allocation
from .estimates import TbsDistribution
from .reporting import (
    EXCLUSION_MIN,
    HeapSet,
    ReportedDataset,
    ReportedDuration,
    Unit,
    YEAR_INTERVAL_START,
    _whole,
)
from .window import LAST_DAY, NUM_DAYS


def truncated_geometric(p: float) -> TbsDistribution:
    """Geometric gap distribution truncated to the window."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"geometric rate must be in (0, 1), got {p}")
    x = np.arange(NUM_DAYS)
    f = p * (1.0 - p) ** x
    return TbsDistribution(f_x=f / f.sum())


def point_mass(day: int) -> TbsDistribution:
    """All gaps exactly ``day`` day-classes long."""
    day = _whole(day, "point mass day")
    if not 0 <= day <= LAST_DAY:
        raise ConfigurationError(f"point mass day must be in [0, {LAST_DAY}]")
    f = np.zeros(NUM_DAYS)
    f[day] = 1.0
    return TbsDistribution(f_x=f)


def uniform_gap(lo: int, hi: int) -> TbsDistribution:
    """Gaps uniform on the day-classes lo .. hi inclusive."""
    lo, hi = _whole(lo, "uniform gap lo"), _whole(hi, "uniform gap hi")
    if not 0 <= lo <= hi <= LAST_DAY:
        raise ConfigurationError(f"need 0 <= lo <= hi <= {LAST_DAY}")
    f = np.zeros(NUM_DAYS)
    f[lo : hi + 1] = 1.0 / (hi - lo + 1)
    return TbsDistribution(f_x=f)


def mixture(parts: Sequence[tuple[TbsDistribution, float]]) -> TbsDistribution:
    """Weighted mixture of gap distributions."""
    weights = np.array([w for _, w in parts], dtype=float)
    if np.any(weights < 0.0) or not abs(weights.sum() - 1.0) <= 1e-9:
        raise ConfigurationError("mixture weights must be non-negative and sum to 1")
    f = np.zeros(NUM_DAYS)
    for part, w in parts:
        f += w * part.f_x
    return TbsDistribution(f_x=f)


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
    pure function of the day.  Every channel it lists for a day, whatever
    its probability, is encoded into a report whose interval holds the
    day; an unknown channel, or a day the channel cannot encode (a month
    or year report of day 0), raises ConfigurationError.
    """

    rule: Callable[[int], Sequence[tuple[str, float]]] = default_unit_rule
    heap: HeapSet = field(default_factory=HeapSet)


def _nearest_heap_day(y: int, heap: HeapSet) -> int | None:
    # the days are sorted, so a tie goes to the lower day
    return min(
        (h for h in heap.days if abs(y - h) <= heap.halfwidth),
        key=lambda h: abs(y - h),
        default=None,
    )


def _encode(channel: str, y: int, heap: HeapSet) -> ReportedDuration:
    if channel == "day_exact":
        return ReportedDuration(z=y, unit=Unit.DAY)
    if channel == "day_heaped":
        h = _nearest_heap_day(y, heap)
        return ReportedDuration(z=h if h is not None else y, unit=Unit.DAY)
    if channel == "week":
        return ReportedDuration(z=y // 7, unit=Unit.WEEK)
    if channel == "month":
        if 1 <= y <= 30 * EXCLUSION_MIN[Unit.MONTH]:
            return ReportedDuration(z=(y - 1) // 30, unit=Unit.MONTH)
        if y >= YEAR_INTERVAL_START:
            return ReportedDuration(z=1, unit=Unit.YEAR)
        raise ConfigurationError(f"a month report cannot encode day {y}")
    if channel == "year":
        if y >= YEAR_INTERVAL_START:
            return ReportedDuration(z=1, unit=Unit.YEAR)
        return _encode("month", y, heap)
    raise ConfigurationError(f"unknown reporting channel {channel!r}")


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it refuses, such as a
    negative or fractional one, raises ConfigurationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad seed {seed!r}: {exc}") from exc


def sample_tsls_exact(truth: TbsDistribution, n: int, seed) -> np.ndarray:
    """Exact durations under stationary sampling from the true gaps.

    Selects a gap class g with probability proportional to (g + 1) times
    its frequency, then a uniform day inside it, which reproduces the
    renewal identity for the observed-duration distribution exactly.
    """
    n = _whole(n, "survey size")
    if n < 0:
        raise ConfigurationError(f"survey size must be >= 0, got {n}")
    rng = _rng(seed)
    weights = (np.arange(NUM_DAYS) + 1.0) * truth.f_x
    check_allocation(n)
    gaps = rng.choice(NUM_DAYS, size=n, p=weights / weights.sum())
    return rng.integers(0, gaps + 1)


def _day_reports(y: int, behavior: ReportingBehavior) -> list[tuple[ReportedDuration, float]]:
    """The reports the rule gives exact day ``y``, in the rule's order.

    Each report comes with the running sum of the probabilities up to it:
    column ``y`` of the reporting matrix, in the rule's order.  The whole
    table is built, so a faulty rule is refused whatever the seed:
    probabilities that are negative or do not sum to 1 within 1e-9, an
    unknown channel and a day a channel cannot encode raise
    ConfigurationError.
    """
    pairs = tuple(behavior.rule(y))
    probs = np.array([p for _, p in pairs], dtype=float)
    if np.any(probs < 0.0) or not abs(float(probs.sum()) - 1.0) <= 1e-9:
        raise ConfigurationError(
            f"channel probabilities for day {y} must be non-negative and sum to 1"
        )
    reports, acc = [], 0.0
    for channel, p in pairs:
        acc += p
        reports.append((_encode(channel, y, behavior.heap), acc))
    return reports


def _pick(reports: list[tuple[ReportedDuration, float]], u: float) -> ReportedDuration:
    """The first report whose running sum exceeds u, or the last one (the
    sum may fall short of 1 by rounding)."""
    for record, acc in reports:
        if u < acc:
            break
    return record


def simulate_survey(
    truth: TbsDistribution,
    behavior: ReportingBehavior | None = None,
    n: int = 0,
    seed=0,
) -> ReportedDataset:
    """Generate a synthetic survey dataset; deterministic per seed."""
    behavior = behavior if behavior is not None else ReportingBehavior()
    rng = _rng(seed)
    exact = sample_tsls_exact(truth, n, rng)
    uniforms = rng.random(len(exact)).tolist()
    days = exact.tolist()
    # one table per distinct day, built (and checked) in order of first appearance
    tables = {y: _day_reports(y, behavior) for y in dict.fromkeys(days)}
    return ReportedDataset([_pick(tables[y], u) for y, u in zip(days, uniforms)])
