"""Reporting intervals, report probabilities, and histogram spreading."""

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curdur.errors import ConfigurationError, OutOfWindowError
from curdur.reporting import (
    DEFAULT_HEAP,
    YEAR_INTERVAL_START,
    HeapSet,
    ReportedDataset,
    ReportedDuration,
    Unit,
    day_interval,
    observation_matrix,
    reported_prob,
    spread_mass,
)
from curdur.window import LAST_DAY, NUM_DAYS
from tests.conftest import random_monotone_simplex

UNIFORM = np.ones(730) / 730.0


class TestTypes:
    def test_heap_entries_must_cover_halfwidth(self):
        with pytest.raises(ConfigurationError):
            HeapSet(days=(1, 7, 14), halfwidth=2)
        HeapSet(days=(2, 7), halfwidth=2)

    def test_heap_days_must_be_distinct(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            HeapSet(days=(7, 14, 7))

    def test_heap_days_must_be_in_window(self):
        # a heaped day report past day 729 could never be ingested
        for days in [(730,), (7, 731)]:
            with pytest.raises(ConfigurationError, match="<= 729"):
                HeapSet(days=days)
        HeapSet(days=(7, LAST_DAY))

    @pytest.mark.parametrize("kwargs, message", [
        ({"days": (7.5, 14)}, "heap day 7.5 is not a whole number"),
        ({"halfwidth": 1.5}, "halfwidth 1.5 is not a whole number"),
        ({"days": (7, math.nan)}, "heap day nan is not a whole number"),
    ])
    def test_heap_values_must_be_whole(self, kwargs, message):
        # refused, not truncated or left to fail in observation_matrix
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            HeapSet(**kwargs)

    def test_heap_stores_python_ints(self):
        heap = HeapSet(days=(np.int64(14), 7.0), halfwidth=np.int64(2))
        assert heap == HeapSet(days=(7, 14), halfwidth=2)
        assert json.loads(json.dumps(asdict(heap))) == {"days": [7, 14], "halfwidth": 2}

    def test_year_reports_must_be_one(self):
        with pytest.raises(OutOfWindowError):
            ReportedDuration(z=2, unit=Unit.YEAR)
        with pytest.raises(ValueError, match="0-year") as err:
            ReportedDuration(z=0, unit=Unit.YEAR)
        assert not isinstance(err.value, OutOfWindowError)
        ReportedDuration(z=1, unit=Unit.YEAR)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative") as err:
            ReportedDuration(z=-1, unit=Unit.DAY)
        assert not isinstance(err.value, OutOfWindowError)

    def test_month_straddle_refused(self):
        # month 24, days 721-750, starts inside the window but means two
        # years or more: refused like every report ingestion excludes
        with pytest.raises(OutOfWindowError):
            ReportedDuration(z=24, unit=Unit.MONTH)

    def test_dataset_counts_match_records(self):
        records = [
            ReportedDuration(z=7, unit=Unit.DAY),
            ReportedDuration(z=7, unit=Unit.DAY),
            ReportedDuration(z=1, unit=Unit.WEEK),
        ]
        ds = ReportedDataset(records)
        assert len(ds) == 3
        assert sum(ds.counts.values()) == 3
        assert ds.counts[ReportedDuration(z=7, unit=Unit.DAY)] == 2


class TestDayInterval:
    def test_exact_day(self):
        assert day_interval(ReportedDuration(z=10, unit=Unit.DAY)) == (10, 10)

    def test_heaped_day(self):
        assert day_interval(ReportedDuration(z=7, unit=Unit.DAY)) == (5, 9)
        assert day_interval(ReportedDuration(z=90, unit=Unit.DAY)) == (88, 92)

    def test_day_near_heap_but_not_on_it_is_exact(self):
        assert day_interval(ReportedDuration(z=8, unit=Unit.DAY)) == (8, 8)

    def test_week(self):
        assert day_interval(ReportedDuration(z=0, unit=Unit.WEEK)) == (0, 6)
        assert day_interval(ReportedDuration(z=3, unit=Unit.WEEK)) == (21, 27)

    def test_month(self):
        assert day_interval(ReportedDuration(z=0, unit=Unit.MONTH)) == (1, 30)
        assert day_interval(ReportedDuration(z=23, unit=Unit.MONTH)) == (691, 720)

    def test_year(self):
        assert day_interval(ReportedDuration(z=1, unit=Unit.YEAR)) == (334, 729)

    def test_week_clamped_at_boundary(self):
        # 7 * 104 = 728; the nominal upper end 734 clamps to 729
        assert day_interval(ReportedDuration(z=104, unit=Unit.WEEK)) == (728, 729)

    def test_out_of_window(self):
        # refused when built, so no report day_interval sees lies beyond the window
        with pytest.raises(OutOfWindowError):
            ReportedDuration(z=105, unit=Unit.WEEK)
        with pytest.raises(OutOfWindowError):
            ReportedDuration(z=730, unit=Unit.DAY)
        with pytest.raises(OutOfWindowError):
            ReportedDuration(z=25, unit=Unit.MONTH)

    def test_custom_heap(self):
        heap = HeapSet(days=(10,), halfwidth=1)
        assert day_interval(ReportedDuration(z=10, unit=Unit.DAY), heap) == (9, 11)
        assert day_interval(ReportedDuration(z=7, unit=Unit.DAY), heap) == (7, 7)


class TestReportedProb:
    def test_heaped_day_sums_five_days(self, rng):
        phi = random_monotone_simplex(rng)
        expected = phi[5] + phi[6] + phi[7] + phi[8] + phi[9]
        assert reported_prob(phi, ReportedDuration(z=7, unit=Unit.DAY)) == expected

    def test_month_zero_sums_days_1_to_30(self, rng):
        phi = random_monotone_simplex(rng)
        expected = 0.0
        for y in range(1, 31):
            expected += phi[y]
        assert reported_prob(phi, ReportedDuration(z=0, unit=Unit.MONTH)) == expected

    def test_uniform_week(self):
        p = reported_prob(UNIFORM, ReportedDuration(z=0, unit=Unit.WEEK))
        assert abs(p - 7.0 / 730.0) < 1e-15

    def test_matches_enumeration_for_sampled_records(self, rng):
        phi = random_monotone_simplex(rng)
        cases = (
            [ReportedDuration(z=int(z), unit=Unit.DAY) for z in rng.integers(0, 730, 25)]
            + [ReportedDuration(z=int(z), unit=Unit.WEEK) for z in rng.integers(0, 105, 25)]
            + [ReportedDuration(z=int(z), unit=Unit.MONTH) for z in rng.integers(0, 24, 25)]
            + [ReportedDuration(z=1, unit=Unit.YEAR)]
        )
        for record in cases:
            lo, hi = day_interval(record)
            brute = 0.0
            for y in range(lo, hi + 1):
                brute += phi[y]
            assert reported_prob(phi, record) == brute

    def test_week_family_partitions_window(self, rng):
        phi = random_monotone_simplex(rng)
        covered = np.zeros(730, dtype=int)
        total = 0.0
        for z in range(105):
            lo, hi = day_interval(ReportedDuration(z=z, unit=Unit.WEEK))
            covered[lo : hi + 1] += 1
            total += reported_prob(phi, ReportedDuration(z=z, unit=Unit.WEEK))
        assert np.all(covered == 1)
        assert abs(total - 1.0) < 1e-12

    def test_month_family_covers_days_1_to_720(self, rng):
        phi = random_monotone_simplex(rng)
        covered = np.zeros(730, dtype=int)
        total = 0.0
        for z in range(24):
            lo, hi = day_interval(ReportedDuration(z=z, unit=Unit.MONTH))
            covered[lo : hi + 1] += 1
            total += reported_prob(phi, ReportedDuration(z=z, unit=Unit.MONTH))
        assert np.all(covered[1:721] == 1)
        assert np.all(covered[721:] == 0)
        assert covered[0] == 0
        assert abs(total - phi[1:721].sum()) < 1e-12


def _reports(*pairs):
    return ReportedDataset(
        [ReportedDuration(z=z, unit=unit) for z, unit in pairs])


# day, heap-day, week, month and year reports: month 23 is the last
# month, and week 104 runs past the last day and is clamped
EVERY_KIND = _reports((3, Unit.DAY), (7, Unit.DAY), (30, Unit.DAY), (729, Unit.DAY),
                      (0, Unit.WEEK), (52, Unit.WEEK), (104, Unit.WEEK),
                      (0, Unit.MONTH), (23, Unit.MONTH), (1, Unit.YEAR))
CUSTOM_HEAP = HeapSet(days=(10, 45), halfwidth=3)


class TestObservationMatrix:
    @pytest.mark.parametrize("dataset, heap", [
        (EVERY_KIND, None),
        (_reports((7, Unit.DAY), (10, Unit.DAY), (45, Unit.DAY), (48, Unit.DAY),
                  (104, Unit.WEEK)), CUSTOM_HEAP),
    ], ids=["default_heap", "custom_heap"])
    def test_rows_give_report_probabilities(self, rng, dataset, heap):
        intervals = [day_interval(record, heap) for record in dataset.counts]
        widths = np.array([hi - lo + 1 for lo, hi in intervals])
        for _ in range(20):
            phi = random_monotone_simplex(rng)
            probs = observation_matrix(dataset, heap) @ phi
            # within 4 ulp of the correctly rounded sum over each interval
            exact = np.array([math.fsum(phi[lo : hi + 1]) for lo, hi in intervals])
            assert (np.abs(probs - exact) <= 4 * np.spacing(exact)).all()
            # reported_prob sums term by term, with an error of up to
            # (width - 1) ulp: 16 ulp were seen on the 396 days of a year
            expected = np.array([reported_prob(phi, r, heap) for r in dataset.counts])
            assert (np.abs(probs - expected) <= (widths + 3) * np.spacing(expected)).all()

    def test_rows_cover_each_interval_in_counts_order(self, rng):
        from tests.conftest import make_mixed_dataset

        data = make_mixed_dataset(rng, n=200)
        for dataset, heap in [(data, None), (EVERY_KIND, CUSTOM_HEAP)]:
            matrix = observation_matrix(dataset, heap)
            assert matrix.shape == (len(dataset.counts), NUM_DAYS)
            assert set(np.unique(matrix)) <= {0.0, 1.0}
            for row, record in zip(matrix, dataset.counts):
                lo, hi = day_interval(record, heap)
                assert np.array_equal(np.flatnonzero(row), np.arange(lo, hi + 1))
                assert row.sum() == hi - lo + 1

    def test_empty_dataset(self):
        empty = ReportedDataset([])
        assert observation_matrix(empty).shape == (0, NUM_DAYS)
        assert np.array_equal(spread_mass(empty), np.zeros(NUM_DAYS))


class TestSpreadMass:
    def test_one_week_report(self):
        ds = ReportedDataset([ReportedDuration(z=0, unit=Unit.WEEK)])
        w = spread_mass(ds)
        assert np.allclose(w[:7], 1.0 / 7.0)
        assert np.all(w[7:] == 0.0)

    def test_singleton_day(self):
        ds = ReportedDataset([ReportedDuration(z=3, unit=Unit.DAY)])
        w = spread_mass(ds)
        assert w[3] == 1.0
        assert w.sum() == 1.0

    def test_two_heaped_records(self):
        ds = ReportedDataset(
            [ReportedDuration(z=7, unit=Unit.DAY), ReportedDuration(z=7, unit=Unit.DAY)]
        )
        w = spread_mass(ds)
        assert np.allclose(w[5:10], 2.0 / 5.0)
        assert np.all(w[:5] == 0.0)
        assert np.all(w[10:] == 0.0)

    def test_total_equals_record_count(self, rng):
        from tests.conftest import make_mixed_dataset

        ds = make_mixed_dataset(rng, n=200)
        assert abs(spread_mass(ds).sum() - 200.0) < 1e-9


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# every heap day from the half-width to the last day
heaps = st.integers(0, 5).flatmap(lambda halfwidth: st.builds(
    lambda offsets: HeapSet(days=tuple(halfwidth + d for d in offsets), halfwidth=halfwidth),
    st.lists(st.integers(0, LAST_DAY - halfwidth), max_size=8, unique=True),
))


def _built(z, unit):
    """The pair (z, unit) and its report, or None where ReportedDuration
    refuses the pair as beyond the window."""
    try:
        return (z, unit), ReportedDuration(z=z, unit=unit)
    except OutOfWindowError:
        return (z, unit), None


reports = st.one_of(
    st.builds(_built, st.integers(0, 800), st.just(Unit.DAY)),
    st.builds(_built, st.integers(0, 120), st.just(Unit.WEEK)),
    st.builds(_built, st.integers(0, 30), st.just(Unit.MONTH)),
    st.builds(_built, st.integers(1, 3), st.just(Unit.YEAR)),
)


def _reports_meaning(y, heap):
    """Every report a respondent whose duration is day y can give.

    The exact day, a heap day within the half-width, the week, the month
    (days 1 .. 720; day 0 is no month) and, from the year interval on, a
    year.
    """
    found = [ReportedDuration(z=y, unit=Unit.DAY)]
    found += [ReportedDuration(z=h, unit=Unit.DAY)
              for h in heap.days if abs(y - h) <= heap.halfwidth]
    found.append(ReportedDuration(z=y // 7, unit=Unit.WEEK))
    if 1 <= y <= 720:
        found.append(ReportedDuration(z=(y - 1) // 30, unit=Unit.MONTH))
    if y >= YEAR_INTERVAL_START:
        found.append(ReportedDuration(z=1, unit=Unit.YEAR))
    return found


class TestDayIntervalProperties:
    @PROPERTY
    @given(reports, heaps)
    def test_stays_within_window(self, report, heap):
        pair, record = report
        if record is None:
            # only a pair that no day of the window can give is refused
            assert all(pair != (r.z, r.unit) for y in range(NUM_DAYS)
                       for r in _reports_meaning(y, heap))
            return
        lo, hi = day_interval(record, heap)
        assert 0 <= lo <= hi <= LAST_DAY

    @PROPERTY
    @given(st.integers(0, LAST_DAY), heaps)
    def test_contains_every_day_a_report_can_mean(self, y, heap):
        for record in _reports_meaning(y, heap):
            lo, hi = day_interval(record, heap)
            assert lo <= y <= hi, record
