"""Gap-time transforms and posterior summaries."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curdur.basis import BasisConfig, SplineBasis, build_basis
from curdur.errors import DegenerateDistributionError, DimensionError
from curdur.estimates import (
    TbsDistribution,
    _band_in_place,
    _survival_rows,
    summarize,
    tbs_from_tsls,
    tsls_from_tbs,
)
from curdur.model import ModelParams, TslsDistribution, phi_from_params, phi_matrix
from curdur.reporting import ReportedDuration, Unit, reported_prob
from curdur.sampler import PosteriorDraws
from curdur.simulator import point_mass
from curdur.window import NUM_DAYS
from tests.conftest import random_monotone_simplex

UNIFORM = TslsDistribution(phi=np.ones(730) / 730.0)


def geometric_phi(p=0.1):
    d = np.arange(730)
    weights = (1.0 - p) ** d
    return TslsDistribution(phi=weights / weights.sum())


class TestTbsFromTsls:
    def test_uniform_puts_all_mass_at_boundary(self):
        f = tbs_from_tsls(UNIFORM).f_x
        assert np.all(f[:-1] == 0.0)
        assert abs(f[-1] - 1.0) < 1e-12

    def test_truncated_geometric_closed_form(self):
        # oracle: exact rationals for f_x = (phi_x - phi_{x+1}) / phi_0
        phi = geometric_phi(0.1)
        f = tbs_from_tsls(phi).f_x
        with mpmath.workdps(60):
            q = mpmath.mpf(9) / 10
            for x in (0, 1, 5, 50, 300, 728):
                assert abs(f[x] - float(q**x * (1 - q))) < 1e-12
            assert abs(f[729] - float(q**729)) < 1e-12

    def test_sums_to_one(self, rng):
        for _ in range(10):
            f = tbs_from_tsls(TslsDistribution(phi=random_monotone_simplex(rng))).f_x
            assert abs(f.sum() - 1.0) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            tbs_from_tsls(np.zeros(730))
        with pytest.raises(DegenerateDistributionError, match="no mass"):
            tsls_from_tbs(np.zeros(730))

    def test_round_trip_bijection(self, rng):
        for _ in range(100):
            phi = random_monotone_simplex(rng)
            back = tsls_from_tbs(tbs_from_tsls(phi)).phi
            assert np.max(np.abs(back - phi)) < 1e-10

    def test_no_negative_mass(self, rng):
        for _ in range(50):
            f = tbs_from_tsls(TslsDistribution(phi=random_monotone_simplex(rng))).f_x
            assert np.all(f >= 0.0)


    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=730).filter(lambda v: sum(v) > 0))
    def test_round_trip_property(self, increments):
        # a non-increasing simplex is the normalised reverse sum of any
        # non-negative increments; zeros pad its support to the 730 days
        tail = np.cumsum(np.array(increments)[::-1])[::-1]
        phi = np.zeros(NUM_DAYS)
        phi[: tail.size] = tail / tail.sum()
        back = tsls_from_tbs(tbs_from_tsls(TslsDistribution(phi=phi))).phi
        assert np.abs(back - phi).max() <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteInput:
    """NaN and infinities are refused, never passed through as a result."""

    def test_gap_distribution_rejected(self, bad):
        with pytest.raises(ValueError):
            TbsDistribution(f_x=np.full(730, bad))
        f_x = np.full(730, 1.0 / 730.0)
        f_x[3] = bad
        with pytest.raises(ValueError):
            TbsDistribution(f_x=f_x)

    @pytest.mark.parametrize("transform", [tbs_from_tsls])
    @pytest.mark.parametrize("position", [0, 1])
    def test_transforms_reject(self, bad, transform, position):
        phi = np.full(NUM_DAYS, 1.0 / NUM_DAYS)
        phi[position] = bad
        with pytest.raises(ValueError, match="finite"):
            transform(phi)


def as_draws(rows, chains=1):
    """``rows``, one draw of (delta_1 .. delta_K, log_sigma) each, as ``chains`` chains."""
    rows = np.asarray(rows, dtype=float)
    return PosteriorDraws(
        draws=rows.reshape(chains, -1, rows.shape[1]),
        accept_stats=np.ones(chains),
        divergence_count=np.zeros(chains, dtype=int),
        step_sizes=np.full(chains, 0.1),
        param_names=[f"delta_{i+1}" for i in range(rows.shape[1] - 1)]
        + ["log_sigma"],
    )


def _one_column_basis(days):
    """A basis whose one column is ``days`` with the boundary row appended."""
    boundary = np.zeros(days.shape[:-1] + (1,))
    return SplineBasis(values=np.concatenate([days, boundary], axis=-1)[..., None],
                       knots=np.array([0.0, 730.0]))


# every entry point that takes a day vector, given one
DAY_VECTOR_ENTRY_POINTS = {
    "tsls_distribution": lambda days: TslsDistribution(phi=days),
    "tbs_distribution": lambda days: TbsDistribution(f_x=days),
    "spline_basis": _one_column_basis,
    "tbs_from_tsls": tbs_from_tsls,
    "tsls_from_tbs": tsls_from_tbs,
    "reported_prob": lambda days: reported_prob(days, ReportedDuration(z=3, unit=Unit.DAY)),
    "summarize": lambda days: summarize(as_draws(np.zeros((1, 2))), _one_column_basis(days)),
}


@pytest.mark.parametrize("shape", [(1,), (729,), (731,), (2, 730)],
                         ids=["1_day", "729_days", "731_days", "two_rows"])
@pytest.mark.parametrize("entry", DAY_VECTOR_ENTRY_POINTS.values(),
                         ids=DAY_VECTOR_ENTRY_POINTS.keys())
def test_day_vectors_of_another_shape_are_refused(entry, shape):
    # a uniform simplex, so that its shape is its one fault; a one-day
    # vector would broadcast over every day if it got through
    days = np.full(shape, 1.0 / math.prod(shape))
    with pytest.raises(DimensionError, match=r"one (entry|row) per day 0 \.\. "):
        entry(days)


# a gap pmf where a TSLS pmf belongs, and the other way round
TBS_POINT_MASS = point_mass(3)


@pytest.mark.parametrize("entry, value, name", [
    ("tsls_distribution", TBS_POINT_MASS, "phi"),
    ("tbs_distribution", UNIFORM, "f_x"),
    ("tbs_from_tsls", TBS_POINT_MASS, "phi"),
    ("tsls_from_tbs", UNIFORM, "f_x"),
    ("reported_prob", TBS_POINT_MASS, "phi"),
    ("tbs_from_tsls", "uniform", "phi"),
    ("tsls_from_tbs", ["0.5", "half"] * 365, "f_x"),
], ids=["tsls_distribution", "tbs_distribution", "tbs_from_tsls", "tsls_from_tbs",
        "reported_prob", "string", "list_of_strings"])
def test_day_vectors_of_another_type_are_refused(entry, value, name):
    with pytest.raises(DimensionError, match=rf"^{name} must hold one entry per day 0 \.\. "
                       rf"729, got a {type(value).__name__}$"):
        DAY_VECTOR_ENTRY_POINTS[entry](value)


def one_draw_summary(rng):
    """The summary of a one-draw posterior: each median is that draw's curve."""
    vec = np.concatenate([rng.uniform(-0.5, 0.5, 13), [0.0]])
    return summarize(as_draws([vec]), build_basis(BasisConfig()))


def survival_of(phi):
    """S(y) over y = 0 .. 730, the boundary day appended, as summarize makes it."""
    phi = np.append(np.asarray(getattr(phi, "phi", phi), dtype=float), 0.0)
    return _survival_rows(phi, phi[0])


class TestSurvival:
    def test_starts_at_one_ends_at_zero(self, rng):
        s = one_draw_summary(rng).tbs_survival.median
        assert s[0] == 1.0
        assert s[-1] == 0.0
        assert s.size == 731

    def test_truncated_geometric_ratio(self):
        phi = geometric_phi(0.1)
        s = survival_of(phi)
        for y in (0, 1, 10, 100, 500):
            assert abs(s[y] - 0.9**y) < 1e-12


class TestExpectedTbs:
    """The mean gap is the survival sum, and summarize reads it as 1 / phi_0."""

    def test_half_half(self):
        phi = np.zeros(730)
        phi[0] = phi[1] = 0.5
        assert survival_of(TslsDistribution(phi=phi)).sum() == 2.0

    def test_uniform(self):
        assert abs(survival_of(UNIFORM).sum() - 730.0) < 1e-9

    def test_reciprocal_identity(self, rng):
        for _ in range(20):
            summary = one_draw_summary(rng)
            mean = summary.mean_tbs_days.median
            assert abs(mean * summary.tsls_pmf.median[0] - 1.0) <= 4e-16
            assert abs(mean - summary.tbs_survival.median.sum()) <= 1e-10 * mean


def draws_last(samples):
    """A contiguous copy of ``samples`` with its draws moved from axis 0 to the last."""
    return np.moveaxis(np.asarray(samples, dtype=float), 0, -1).copy()


class TestQuantileBand:
    def test_single_draw_collapses(self):
        q = _band_in_place(draws_last(np.array([[3.0, 4.0]])), levels=(0.8,))
        assert np.all(q.median == [3.0, 4.0])
        band = q.band(0.8)
        assert np.all(band.lower == q.median)
        assert np.all(band.upper == q.median)

    def test_two_draws_median_is_midpoint(self):
        q = _band_in_place(draws_last(np.array([[1.0], [2.0]])), levels=(0.5,))
        assert q.median[0] == 1.5

    def test_gaussian_quantiles(self, rng):
        draws = rng.standard_normal(4000)
        q = _band_in_place(draws_last(draws), levels=(0.95,))
        band = q.band(0.95)
        assert abs(band.lower + 1.959964) < 0.08
        assert abs(band.upper - 1.959964) < 0.08
        assert abs(q.median) < 0.08

    @pytest.mark.parametrize("case", ["random", "tied", "constant", "one_row",
                                      "two_rows", "one_d", "three_d"])
    def test_bit_identical_to_numpy_quantile(self, rng, case):
        samples = {
            "random": rng.standard_normal((2001, 37)),
            "tied": rng.integers(0, 4, (800, 9)).astype(float),
            "constant": np.full((300, 5), 0.125),
            "one_row": rng.standard_normal((1, 6)),
            "two_rows": rng.standard_normal((2, 6)),
            "one_d": rng.exponential(size=999),
            "three_d": rng.standard_normal((250, 3, 4)),
        }[case]
        levels = (0.5, 0.8, 0.9, 0.95, 0.99)
        q = _band_in_place(draws_last(samples), levels)
        tails = [0.5 * (1.0 - level) for level in levels]
        got = [q.median] + [v for lv in levels for v in (q.band(lv).lower, q.band(lv).upper)]
        probs = [0.5] + [p for t in tails for p in (t, 1.0 - t)]
        expected = np.quantile(samples, probs, axis=0)
        for value, reference in zip(got, expected):
            assert np.array_equal(value, reference)
            if samples.ndim == 1:
                assert type(value) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_raise(self, rng, bad):
        samples = rng.standard_normal((40, 3))
        samples[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _band_in_place(draws_last(samples), (0.8,))

    def test_ordering(self, rng):
        draws = rng.standard_normal((500, 7))
        q = _band_in_place(draws_last(draws), levels=(0.8, 0.95))
        for level in (0.8, 0.95):
            band = q.band(level)
            assert np.all(band.lower <= q.median)
            assert np.all(q.median <= band.upper)


class TestSummarize:
    def test_no_draws_refused(self):
        with pytest.raises(ValueError, match="no draws to summarize"):
            summarize(as_draws(np.empty((0, 14))), build_basis(BasisConfig()))

    def test_single_draw(self, rng):
        basis = build_basis(BasisConfig())
        vec = np.concatenate([rng.uniform(-0.5, 0.5, 13), [0.0]])
        summary = summarize(as_draws([vec]), basis, levels=(0.9,))
        phi = phi_from_params(ModelParams(delta=vec[:-1], log_sigma=vec[-1]), basis).phi
        assert np.allclose(summary.tsls_pmf.median, phi, atol=1e-14)
        band = summary.tsls_pmf.band(0.9)
        assert np.allclose(band.lower, phi, atol=1e-14)
        assert np.allclose(band.upper, phi, atol=1e-14)

    def test_mean_tbs_scalar_and_ordered(self, rng):
        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (50, 13)), rng.uniform(-0.3, 0.3, (50, 1))]
        )
        summary = summarize(as_draws(rows), basis, levels=(0.8, 0.95))
        m = summary.mean_tbs_days
        assert isinstance(m.median, float)
        for level in (0.8, 0.95):
            assert m.band(level).lower <= m.median <= m.band(level).upper

    def test_serializes(self, rng):
        import json

        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (10, 13)), rng.uniform(-0.3, 0.3, (10, 1))]
        )
        payload = summarize(as_draws(rows), basis).to_dict()
        text = json.dumps(payload)
        assert "tsls_pmf" in text and "mean_tbs_days" in text

    @pytest.mark.parametrize("levels", [(0.8, 0.8), (0.95, 0.8, 0.95)])
    def test_repeated_levels_raise(self, rng, levels):
        # each level keys one band: a repeat would write fewer bands than levels
        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (10, 13)), rng.uniform(-0.3, 0.3, (10, 1))]
        )
        with pytest.raises(ValueError, match="distinct"):
            summarize(as_draws(rows), basis, levels=levels)

    def test_equals_numpy_quantile_of_row_major_transforms(self, rng):
        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (300, 13)), rng.uniform(-0.3, 0.3, (300, 1))]
        )
        levels = (0.5, 0.8, 0.95)
        summary = summarize(as_draws(rows, chains=3), basis, levels=levels)
        # the transforms row by row, one draw per row, as np.quantile takes them
        phi = phi_matrix(rows, basis)
        tbs = np.empty_like(phi)
        tbs[:, :-1] = (phi[:, :-1] - phi[:, 1:]) / phi[:, :1]
        tbs[:, -1:] = phi[:, -1:] / phi[:, :1]
        survival = np.zeros((phi.shape[0], phi.shape[1] + 1))
        survival[:, :-1] = phi / phi[:, :1]
        tails = [0.5 * (1.0 - level) for level in levels]
        probs = [0.5] + [p for t in tails for p in (t, 1.0 - t)]
        for q, samples in [(summary.tsls_pmf, phi), (summary.tbs_pmf, tbs),
                           (summary.tbs_survival, survival),
                           (summary.mean_tbs_days, 1.0 / phi[:, 0])]:
            got = [q.median] + [v for lv in levels for v in (q.band(lv).lower, q.band(lv).upper)]
            for value, reference in zip(got, np.quantile(samples, probs, axis=0)):
                assert np.array_equal(value, reference)

    @pytest.mark.parametrize(
        "num_draws, segments, extra",
        # each id ends in the length of the day grid
        [pytest.param(n, seg, extra, id=f"{n}-{seg}-{extra}-{NUM_DAYS}")
         for n in (1, 2, 513, 2000) for seg in (2, 10, 30, 60) for extra in (1, 2, 3)],
    )
    def test_day_blocks_equal_numpy_quantile(self, num_draws, segments, extra):
        # summarize walks the days in blocks: its first block, a partial last
        # block, the day carried between blocks and a one-draw posterior
        # must all give the quantiles of the whole row-major transforms;
        # the basis is the first segments + extra columns of the cubic one
        cubic = build_basis(BasisConfig(num_segments=segments))
        basis = SplineBasis(values=cubic.values[:, :segments + extra], knots=cubic.knots)
        rng = np.random.default_rng(num_draws * 1000 + segments * 10 + extra)
        rows = np.column_stack([rng.uniform(-0.5, 0.5, (num_draws, basis.num_basis)),
                                rng.uniform(-0.3, 0.3, (num_draws, 1))])
        levels = (0.5, 0.8, 0.95)
        summary = summarize(as_draws(rows), basis, levels=levels)
        phi = phi_matrix(rows, basis)
        with_boundary = np.column_stack([phi, np.zeros(num_draws)])
        tbs = (with_boundary[:, :-1] - with_boundary[:, 1:]) / phi[:, :1]
        survival = with_boundary / phi[:, :1]
        tails = [0.5 * (1.0 - level) for level in levels]
        probs = [0.5] + [p for t in tails for p in (t, 1.0 - t)]
        for q, samples in [(summary.tsls_pmf, phi), (summary.tbs_pmf, tbs),
                           (summary.tbs_survival, survival),
                           (summary.mean_tbs_days, 1.0 / phi[:, 0])]:
            got = [q.median] + [v for lv in levels for v in (q.band(lv).lower, q.band(lv).upper)]
            for value, reference in zip(got, np.quantile(samples, probs, axis=0)):
                assert np.array_equal(value, reference)

    def test_peak_memory_is_a_tenth_curve_array(self, rng):
        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (8000, 13)), rng.uniform(-0.3, 0.3, (8000, 1))]
        )
        draws = as_draws(rows, chains=4)
        summarize(draws, basis)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            summarize(draws, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (draws, days) float array is 8000 * 730 * 8 bytes
        assert (peak - start) / (rows.shape[0] * NUM_DAYS * 8) <= 0.10

    def test_peak_memory_is_two_curve_arrays(self, rng):
        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (2000, 13)), rng.uniform(-0.3, 0.3, (2000, 1))]
        )
        draws = as_draws(rows, chains=4)
        summarize(draws, basis)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            summarize(draws, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (draws, days) float array is 2000 * 730 * 8 bytes
        assert (peak - start) / (rows.shape[0] * NUM_DAYS * 8) <= 2.5
