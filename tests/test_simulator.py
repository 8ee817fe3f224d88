"""Ground-truth sampling and synthetic reporting."""

import numpy as np
import pytest

from curdur.errors import ConfigurationError
from curdur.reporting import HeapSet, Unit, day_interval
from curdur.simulator import (
    ReportingBehavior,
    TrueTbs,
    apply_reporting,
    mixture,
    point_mass,
    sample_tsls_exact,
    simulate_survey,
    truncated_geometric,
    uniform_gap,
)


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

    def test_truth_must_be_a_simplex(self):
        with pytest.raises(ConfigurationError):
            TrueTbs(f_x=np.full(730, 1.0 / 700))
        with pytest.raises(ConfigurationError):
            TrueTbs(f_x=np.full(730, np.nan))

    def test_uniform_gap(self):
        t = uniform_gap(3, 6)
        assert np.allclose(t.f_x[3:7], 0.25)
        assert t.f_x.sum() == pytest.approx(1.0)

    def test_geometric_rate_checked(self):
        with pytest.raises(ConfigurationError):
            truncated_geometric(1.5)


class TestApplyReporting:
    def _force(self, channel):
        return ReportingBehavior(rule=lambda y: ((channel, 1.0),))

    def test_week_floor(self, rng):
        rec = apply_reporting(9, self._force("week"), rng)
        assert rec == rec.__class__(z=1, unit=Unit.WEEK)

    def test_month_arithmetic(self, rng):
        rec = apply_reporting(31, self._force("month"), rng)
        assert rec.z == 1 and rec.unit == Unit.MONTH

    def test_heap_snap(self, rng):
        rec = apply_reporting(6, self._force("day_heaped"), rng)
        assert rec.z == 7 and rec.unit == Unit.DAY

    def test_heap_tie_prefers_lower(self, rng):
        # day 29 is within 2 of both 28 and 30; lower wins deterministically
        rec = apply_reporting(29, self._force("day_heaped"), rng)
        assert rec.z == 28

    def test_heap_ineligible_falls_back_to_exact(self, rng):
        rec = apply_reporting(40, self._force("day_heaped"), rng)
        assert rec.z == 40 and rec.unit == Unit.DAY

    def test_year_below_range_falls_back_to_month(self, rng):
        rec = apply_reporting(200, self._force("year"), rng)
        assert rec.unit == Unit.MONTH

    def test_year_in_range(self, rng):
        rec = apply_reporting(400, self._force("year"), rng)
        assert rec.z == 1 and rec.unit == Unit.YEAR

    def test_month_beyond_720_falls_back_to_year(self, rng):
        rec = apply_reporting(725, self._force("month"), rng)
        assert rec.unit == Unit.YEAR

    def test_month_cannot_encode_day_zero(self, rng):
        with pytest.raises(ConfigurationError):
            apply_reporting(0, self._force("month"), rng)

    def test_unknown_channel(self, rng):
        with pytest.raises(ConfigurationError):
            apply_reporting(10, self._force("fortnight"), rng)

    def test_bad_probabilities(self, rng):
        behavior = ReportingBehavior(rule=lambda y: (("week", 0.4),))
        with pytest.raises(ConfigurationError):
            apply_reporting(10, behavior, rng)
        behavior = ReportingBehavior(rule=lambda y: (("week", float("nan")),))
        with pytest.raises(ConfigurationError):
            apply_reporting(10, behavior, rng)


class TestSimulateSurvey:
    def test_empty(self):
        ds = simulate_survey(truncated_geometric(0.1), n=0, seed=1)
        assert len(ds) == 0

    def test_day_exact_behavior_round_trips(self):
        # exact-day reports recover y as a singleton, except on heap values
        # where the observation model reads the report as heaped
        behavior = ReportingBehavior(rule=lambda y: (("day_exact", 1.0),))
        ds, exact = simulate_survey(
            truncated_geometric(0.1), behavior, n=500, seed=4, return_exact=True
        )
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
        ds, exact = simulate_survey(truth, behavior, n=4000, seed=5, return_exact=True)
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
        ds, exact = simulate_survey(
            uniform_gap(5, 25), behavior, n=300, seed=8, return_exact=True
        )
        for record, y in zip(ds.records, exact):
            lo, hi = day_interval(record, heap)
            assert lo <= y <= hi


def per_record_survey(truth, behavior, n, seed):
    """The survey record by record: one apply_reporting per exact day drawn."""
    rng = np.random.default_rng(seed)
    exact = sample_tsls_exact(truth, n, rng)
    return tuple(apply_reporting(int(y), behavior, rng) for y in exact)


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
