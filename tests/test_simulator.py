"""Ground-truth sampling and synthetic reporting."""

import hashlib
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curdur.cli import write_dataset
from curdur.errors import ConfigurationError, DimensionError
from curdur.estimates import TbsDistribution
from curdur.reporting import DEFAULT_HEAP, HeapSet, ReportedDuration, Unit, day_interval
from curdur.simulator import (
    ReportingBehavior,
    _day_reports,
    _encode,
    _pick,
    mixture,
    point_mass,
    sample_tsls_exact,
    simulate_survey,
    truncated_geometric,
    uniform_gap,
)
from curdur.window import LAST_DAY, NUM_DAYS


def renewal_target(truth):
    """Closed-form observed-duration pmf: survival over its sum."""
    survival = np.cumsum(truth.f_x[::-1])[::-1]
    return survival / survival.sum()


class TestSampleExact:
    def test_point_mass_one_is_fair_coin(self):
        y = sample_tsls_exact(point_mass(1), n=100_000, seed=1)
        assert set(np.unique(y)) == {0, 1}
        freq = (y == 0).mean()
        # 3 standard errors of a fair coin at n = 1e5
        assert abs(freq - 0.5) < 3.0 * 0.5 / np.sqrt(100_000)

    def test_point_mass_zero_is_constant(self):
        y = sample_tsls_exact(point_mass(0), n=1000, seed=2)
        assert np.all(y == 0)

    def test_geometric_total_variation(self):
        truth = truncated_geometric(0.1)
        y = sample_tsls_exact(truth, n=1_000_000, seed=3)
        emp = np.bincount(y, minlength=730) / y.size
        tv = 0.5 * np.abs(emp - renewal_target(truth)).sum()
        assert tv < 0.005

    @pytest.mark.parametrize("length", [1, 729])
    def test_gap_pmf_of_the_wrong_length_is_refused(self, length):
        # a point mass at gap 0 of another length than the 730 day-classes
        # is refused when it is built, so no sampler ever sees one
        with pytest.raises(DimensionError, match=rf"got shape \({length},\)"):
            TbsDistribution(f_x=np.eye(length)[0])

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_a_seed_numpy_refuses_is_a_configuration_error(self, seed):
        # numpy's own ValueError or TypeError for it names no argument
        with pytest.raises(ConfigurationError, match=f"^bad seed {seed}: "):
            sample_tsls_exact(point_mass(3), 10, seed)
        with pytest.raises(ConfigurationError, match=f"^bad seed {seed}: "):
            simulate_survey(point_mass(3), n=10, seed=seed)

    def test_seeded_determinism(self):
        truth = truncated_geometric(0.2)
        a = sample_tsls_exact(truth, n=500, seed=42)
        b = sample_tsls_exact(truth, n=500, seed=42)
        assert np.array_equal(a, b)


class TestTruthBuilders:
    def test_mixture_weights_checked(self):
        with pytest.raises(ConfigurationError):
            mixture([(point_mass(1), 0.6), (point_mass(2), 0.6)])
        with pytest.raises(ConfigurationError):
            mixture([(point_mass(1), float("nan"))])

    def test_mixture_weights_sum_to_one_within_1e_9(self):
        truth = mixture([(point_mass(1), 0.5), (point_mass(2), 0.5 + 5e-10)])
        assert truth.f_x[2] == 0.5 + 5e-10

    @pytest.mark.parametrize("length, weight", [(729, 0.5), (731, 0.5), (1, 0.0)])
    def test_mixture_refuses_parts_of_another_length(self, length, weight):
        # a one-day part would broadcast over every day, even at weight 0:
        # no such part, at any weight, can be built to reach mixture
        with pytest.raises(DimensionError, match=rf"got shape \({length},\)"):
            mixture([(TbsDistribution(f_x=np.eye(length)[0]), weight),
                     (point_mass(3), 1.0 - weight)])

    def test_truth_must_be_a_simplex(self):
        with pytest.raises(ConfigurationError):
            TbsDistribution(f_x=np.full(730, 1.0 / 700))
        with pytest.raises(ConfigurationError):
            TbsDistribution(f_x=np.full(730, np.nan))

    def test_uniform_gap(self):
        t = uniform_gap(3, 6)
        assert np.allclose(t.f_x[3:7], 0.25)
        assert t.f_x.sum() == pytest.approx(1.0)

    def test_geometric_rate_checked(self):
        with pytest.raises(ConfigurationError):
            truncated_geometric(1.5)

    def test_whole_float_day_is_a_day(self):
        assert point_mass(3.0).f_x[3] == 1.0

    @pytest.mark.parametrize("make, args, name", [
        (point_mass, (3.5,), "point mass day 3.5"),
        (point_mass, (float("nan"),), "point mass day nan"),
        (uniform_gap, (1.5, 3), "uniform gap lo 1.5"),
        (uniform_gap, (3, float("inf")), "uniform gap hi inf"),
        (lambda n: sample_tsls_exact(point_mass(3), n, 0), (2.5,), "survey size 2.5"),
    ], ids=["day_fraction", "day_nan", "lo_fraction", "hi_inf", "survey_size_fraction"])
    def test_non_whole_arguments_are_refused(self, make, args, name):
        with pytest.raises(ConfigurationError, match=f"^{name} is not a whole number$"):
            make(*args)


class TestApplyReporting:
    """One record: a uniform's pick from the table of its exact day."""

    def _force(self, channel):
        return ReportingBehavior(rule=lambda y: ((channel, 1.0),))

    def test_week_floor(self, rng):
        rec = _pick(_day_reports(9, self._force("week")), rng.random())
        assert rec == rec.__class__(z=1, unit=Unit.WEEK)

    def test_month_arithmetic(self, rng):
        rec = _pick(_day_reports(31, self._force("month")), rng.random())
        assert rec.z == 1 and rec.unit == Unit.MONTH

    def test_heap_snap(self, rng):
        rec = _pick(_day_reports(6, self._force("day_heaped")), rng.random())
        assert rec.z == 7 and rec.unit == Unit.DAY

    def test_heap_tie_prefers_lower(self, rng):
        # day 29 is within 2 of both 28 and 30; lower wins deterministically
        rec = _pick(_day_reports(29, self._force("day_heaped")), rng.random())
        assert rec.z == 28

    def test_heap_ineligible_falls_back_to_exact(self, rng):
        rec = _pick(_day_reports(40, self._force("day_heaped")), rng.random())
        assert rec.z == 40 and rec.unit == Unit.DAY

    def test_year_below_range_falls_back_to_month(self, rng):
        rec = _pick(_day_reports(200, self._force("year")), rng.random())
        assert rec.unit == Unit.MONTH

    def test_year_in_range(self, rng):
        rec = _pick(_day_reports(400, self._force("year")), rng.random())
        assert rec.z == 1 and rec.unit == Unit.YEAR

    @pytest.mark.parametrize("day, z, unit", [(720, 23, Unit.MONTH), (721, 1, Unit.YEAR)],
                             ids=["day-720-month-23", "day-721-year"])
    def test_month_beyond_720_falls_back_to_year(self, rng, day, z, unit):
        # month 23 holds days 691-720; month 24 is excluded, so 721 is a year
        rec = _pick(_day_reports(day, self._force("month")), rng.random())
        assert (rec.z, rec.unit) == (z, unit)

    def test_month_cannot_encode_day_zero(self, rng):
        with pytest.raises(ConfigurationError):
            _pick(_day_reports(0, self._force("month")), rng.random())

    def test_unknown_channel(self, rng):
        with pytest.raises(ConfigurationError):
            _pick(_day_reports(10, self._force("fortnight")), rng.random())

    def test_bad_probabilities(self, rng):
        behavior = ReportingBehavior(rule=lambda y: (("week", 0.4),))
        with pytest.raises(ConfigurationError):
            _pick(_day_reports(10, behavior), rng.random())
        behavior = ReportingBehavior(rule=lambda y: (("week", float("nan")),))
        with pytest.raises(ConfigurationError):
            _pick(_day_reports(10, behavior), rng.random())


class TestSimulateSurvey:
    def test_empty(self):
        ds = simulate_survey(truncated_geometric(0.1), n=0, seed=1)
        assert len(ds) == 0

    def test_day_exact_behavior_round_trips(self):
        # exact-day reports recover y as a singleton, except on heap values
        # where the observation model reads the report as heaped
        behavior = ReportingBehavior(rule=lambda y: (("day_exact", 1.0),))
        truth = truncated_geometric(0.1)
        ds = simulate_survey(truth, behavior, n=500, seed=4)
        exact = sample_tsls_exact(truth, 500, np.random.default_rng(4))
        for record, y in zip(ds.records, exact):
            assert record.z == y and record.unit == Unit.DAY
            lo, hi = day_interval(record)
            if y in behavior.heap:
                assert lo <= y <= hi
            else:
                assert (lo, hi) == (y, y)

    def test_deterministic(self):
        a = simulate_survey(truncated_geometric(0.1), n=300, seed=9)
        b = simulate_survey(truncated_geometric(0.1), n=300, seed=9)
        assert a == b

    def test_exact_day_always_inside_reported_interval(self):
        # truth-compatibility of the observation model, checked exhaustively
        truth = mixture([(truncated_geometric(0.02), 0.7), (uniform_gap(300, 600), 0.3)])
        behavior = ReportingBehavior()
        ds = simulate_survey(truth, behavior, n=4000, seed=5)
        exact = sample_tsls_exact(truth, 4000, np.random.default_rng(5))
        for record, y in zip(ds.records, exact):
            lo, hi = day_interval(record, behavior.heap)
            assert lo <= y <= hi

    def test_likelihood_prefers_truth_over_uniform(self):
        import math

        from curdur.reporting import reported_prob

        truth = truncated_geometric(0.1)
        ds = simulate_survey(truth, n=5000, seed=6)
        phi_true = renewal_target(truth)
        phi_unif = np.ones(730) / 730.0
        ll_true = sum(
            n * math.log(reported_prob(phi_true, r)) for r, n in ds.counts.items()
        )
        ll_unif = sum(
            n * math.log(reported_prob(phi_unif, r)) for r, n in ds.counts.items()
        )
        assert ll_true > ll_unif

    def test_custom_heap_respected(self):
        heap = HeapSet(days=(10, 20), halfwidth=1)
        behavior = ReportingBehavior(
            rule=lambda y: (("day_heaped", 1.0),), heap=heap
        )
        truth = uniform_gap(5, 25)
        ds = simulate_survey(truth, behavior, n=300, seed=8)
        exact = sample_tsls_exact(truth, 300, np.random.default_rng(8))
        for record, y in zip(ds.records, exact):
            lo, hi = day_interval(record, heap)
            assert lo <= y <= hi


def per_record_survey(truth, behavior, n, seed):
    """The survey record by record: one uniform's pick per exact day drawn."""
    rng = np.random.default_rng(seed)
    exact = sample_tsls_exact(truth, n, rng)
    return tuple(_pick(_day_reports(int(y), behavior), rng.random()) for y in exact)


def three_channel_rule(y):
    if y <= 3:
        return (("day_exact", 1.0),)
    return (("day_heaped", 0.25), ("week", 0.25), ("month", 0.5))


class TestSimulateMatchesPerRecord:
    """simulate_survey runs the rule once per distinct day, with the same result."""

    MIXTURE = mixture([(truncated_geometric(0.02), 0.7), (uniform_gap(300, 600), 0.3)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("truth", [truncated_geometric(0.1), MIXTURE],
                             ids=["geometric", "mixture"])
    def test_default_behavior(self, truth, seed):
        behavior = ReportingBehavior()
        ds = simulate_survey(truth, behavior, n=3000, seed=seed)
        assert ds.records == per_record_survey(truth, behavior, 3000, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_custom_rule_and_heap(self, seed):
        behavior = ReportingBehavior(
            rule=three_channel_rule, heap=HeapSet(days=(10, 35, 100), halfwidth=3)
        )
        truth = uniform_gap(0, 200)
        ds = simulate_survey(truth, behavior, n=2000, seed=seed)
        assert ds.records == per_record_survey(truth, behavior, 2000, seed)
        assert {r.unit for r in ds.records} == {Unit.DAY, Unit.WEEK, Unit.MONTH}

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_surveys(self, n):
        behavior = ReportingBehavior()
        ds = simulate_survey(self.MIXTURE, behavior, n=n, seed=3)
        assert ds.records == per_record_survey(self.MIXTURE, behavior, n, seed=3)
        assert len(ds) == n

    @pytest.mark.parametrize("bad_rule, bad_day", [
        # probabilities that do not sum to 1 on one day
        (lambda y: (("week", 0.5),) if y == 12 else (("day_exact", 1.0),), 12),
        # a channel that cannot encode one day
        (lambda y: (("month", 1.0),) if y == 0 else (("day_exact", 1.0),), 0),
    ], ids=["probabilities", "encoding"])
    def test_rule_error_matches_per_record(self, bad_rule, bad_day):
        behavior = ReportingBehavior(rule=bad_rule)
        truth = uniform_gap(0, 30)
        with pytest.raises(ConfigurationError) as per_record:
            per_record_survey(truth, behavior, 500, seed=4)
        with pytest.raises(ConfigurationError) as batched:
            simulate_survey(truth, behavior, n=500, seed=4)
        assert str(batched.value) == str(per_record.value)
        assert f"day {bad_day}" in str(batched.value)


def month_on_day_zero(y):
    """Valid on every day but 0, where a rarely picked month report cannot hold it."""
    if y == 0:
        return (("day_exact", 0.999), ("month", 0.001))
    return (("day_exact", 1.0),)


class TestRuleCheckedWhateverTheSeed:
    """Every channel the rule lists for a drawn day is checked, picked or not."""

    TRUTH = uniform_gap(0, 5)

    @pytest.mark.parametrize("seed", range(10))
    def test_survey_refused(self, seed):
        assert 0 in sample_tsls_exact(self.TRUTH, 100, np.random.default_rng(seed))
        behavior = ReportingBehavior(rule=month_on_day_zero)
        with pytest.raises(ConfigurationError, match=r"day 0\b"):
            simulate_survey(self.TRUTH, behavior, n=100, seed=seed)

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.9989, 0.9995, 0.999999])
    def test_apply_reporting_refused(self, u):
        behavior = ReportingBehavior(rule=month_on_day_zero)
        with pytest.raises(ConfigurationError, match=r"day 0\b"):
            _pick(_day_reports(0, behavior), u)

    @pytest.mark.parametrize("seed", range(5))
    def test_first_faulty_day_drawn_is_named(self, seed):
        def rule(y):
            if y == 9:
                return (("week", 0.5),)
            return month_on_day_zero(y)

        truth = uniform_gap(0, 30)
        exact = sample_tsls_exact(truth, 200, np.random.default_rng(seed))
        first = next(int(y) for y in exact if y in (0, 9))
        with pytest.raises(ConfigurationError, match=rf"day {first}\b"):
            simulate_survey(truth, ReportingBehavior(rule=rule), n=200, seed=seed)


CHANNELS = ("day_exact", "day_heaped", "week", "month", "year")


def encode_every_day(heap):
    """Each channel's report of each day 0 .. 729 under ``heap``, checked to
    hold its day; returns the (channel, day) pairs ``_encode`` refuses."""
    refused = []
    for y in range(NUM_DAYS):
        for channel in CHANNELS:
            try:
                record = _encode(channel, y, heap)
            except ConfigurationError:
                refused.append((channel, y))
                continue
            lo, hi = day_interval(record, heap)
            assert lo <= y <= hi, (channel, y, record, heap)
    return refused


class TestEncodedReportsHoldTheirDay:
    """A day's table needs no interval check: every report a channel
    encodes holds its day, and only a month or year report of day 0 is
    refused, by ``_encode`` itself."""

    HEAPS = (
        DEFAULT_HEAP,
        HeapSet(halfwidth=0),
        HeapSet(days=(5, 6, 7, 8), halfwidth=3),
        HeapSet(days=(LAST_DAY,), halfwidth=5),
        HeapSet(days=(100,), halfwidth=100),
        HeapSet(days=(3, 10, 700, LAST_DAY), halfwidth=3),
        HeapSet(days=(), halfwidth=0),
    )

    def test_every_day_channel_and_heap(self):
        assert len(self.HEAPS) * NUM_DAYS * len(CHANNELS) == 25_550
        for heap in self.HEAPS:
            assert encode_every_day(heap) == [("month", 0), ("year", 0)], heap

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 30).flatmap(lambda halfwidth: st.builds(
        HeapSet,
        days=st.lists(st.integers(halfwidth, LAST_DAY), max_size=10, unique=True).map(tuple),
        halfwidth=st.just(halfwidth),
    )))
    def test_random_heaps(self, heap):
        assert encode_every_day(heap) == [("month", 0), ("year", 0)]


def reporting_matrix(behavior):
    """P(report | exact day) over days 0-729, a column per day, from the rule's tables."""
    columns = defaultdict(lambda: np.zeros(730))
    for y in range(730):
        below = 0.0
        for record, acc in _day_reports(y, behavior):
            columns[record][y] += acc - below
            below = acc
    return dict(columns)


class TestDefaultRuleNotCoarsenedAtRandom:
    """The default rule's reports, read against the intervals the fitter assumes."""

    R = reporting_matrix(ReportingBehavior())

    def test_support_inside_interval(self):
        assert len(self.R) == 211
        for record, column in self.R.items():
            lo, hi = day_interval(record)
            support = np.flatnonzero(column)
            assert lo <= support[0] and support[-1] <= hi, record

    def test_classes_not_constant_over_their_interval(self):
        # coarsening at random needs P(report | day) constant over the
        # report's interval; these are the classes where it is not
        varying = {}
        for record, column in self.R.items():
            lo, hi = day_interval(record)
            values = set(np.round(column[lo : min(hi, 729) + 1], 12).tolist())
            if len(values) > 1:
                varying[record] = values
        assert varying == {
            ReportedDuration(z=7, unit=Unit.DAY): {0.0, 0.5},
            ReportedDuration(z=28, unit=Unit.DAY): {0.0, 0.2, 0.5},
            ReportedDuration(z=30, unit=Unit.DAY): {0.0, 0.2},
            ReportedDuration(z=26, unit=Unit.WEEK): {0.0, 0.4},
            ReportedDuration(z=0, unit=Unit.MONTH): {0.0, 0.4},
            ReportedDuration(z=6, unit=Unit.MONTH): {0.4, 1.0},
            ReportedDuration(z=11, unit=Unit.MONTH): {0.7, 1.0},
            ReportedDuration(z=1, unit=Unit.YEAR): {0.3, 1.0},
        }


@pytest.mark.parametrize("p, n, digest", [
    # the survey the benchmark's fit workload reads
    (0.03, 1000, "c8064bd75d50fe012e4908dc1c89943fb97a82b7379338ab2f1b822a95645368"),
    # acceptance criterion 5's survey
    (0.1, 5000, "c127703421d33d8f4805546370e75abd72321c4e0150929044afa114b89e5482"),
], ids=["fit-workload", "criterion-5"])
def test_simulate_stream_pinned(tmp_path, p, n, digest):
    """The written survey's bytes, independent of how the records are drawn."""
    write_dataset(simulate_survey(truncated_geometric(p), n=n, seed=7), tmp_path / "data.csv")
    assert hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest() == digest
