"""Gap-time transforms and posterior summaries."""

import math

import mpmath
import numpy as np
import pytest

from curdur.basis import BasisConfig, build_basis
from curdur.errors import DegenerateDistributionError
from curdur.estimates import (
    expected_tbs,
    quantile_band,
    summarize,
    survival_from_tsls,
    tbs_from_tsls,
    tsls_from_tbs,
)
from curdur.model import TslsDistribution
from curdur.sampler import PosteriorDraws
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

    def test_round_trip_bijection(self, rng):
        for _ in range(100):
            phi = random_monotone_simplex(rng)
            back = tsls_from_tbs(tbs_from_tsls(phi)).phi
            assert np.max(np.abs(back - phi)) < 1e-10

    def test_no_negative_mass(self, rng):
        for _ in range(50):
            f = tbs_from_tsls(TslsDistribution(phi=random_monotone_simplex(rng))).f_x
            assert np.all(f >= 0.0)


class TestSurvival:
    def test_starts_at_one_ends_at_zero(self, rng):
        s = survival_from_tsls(TslsDistribution(phi=random_monotone_simplex(rng)))
        assert s[0] == 1.0
        assert s[-1] == 0.0
        assert s.size == 731

    def test_truncated_geometric_ratio(self):
        phi = geometric_phi(0.1)
        s = survival_from_tsls(phi)
        for y in (0, 1, 10, 100, 500):
            assert abs(s[y] - 0.9**y) < 1e-12


class TestExpectedTbs:
    def test_half_half(self):
        phi = np.zeros(730)
        phi[0] = phi[1] = 0.5
        assert expected_tbs(TslsDistribution(phi=phi)) == 2.0

    def test_uniform(self):
        assert abs(expected_tbs(UNIFORM) - 730.0) < 1e-9

    def test_unnormalized_phi_raises_value_error(self):
        # a plain raise, so the check survives python -O
        with pytest.raises(ValueError):
            expected_tbs(np.full(730, 2.0 / 730.0))

    def test_reciprocal_identity(self, rng):
        for _ in range(20):
            phi = random_monotone_simplex(rng)
            e = expected_tbs(TslsDistribution(phi=phi))
            assert abs(e * phi[0] - 1.0) <= 4e-16


class TestQuantileBand:
    def test_single_draw_collapses(self):
        q = quantile_band(np.array([[3.0, 4.0]]), levels=(0.8,))
        assert np.all(q.median == [3.0, 4.0])
        band = q.band(0.8)
        assert np.all(band.lower == q.median)
        assert np.all(band.upper == q.median)

    def test_two_draws_median_is_midpoint(self):
        q = quantile_band(np.array([[1.0], [2.0]]), levels=(0.5,))
        assert q.median[0] == 1.5

    def test_gaussian_quantiles(self, rng):
        draws = rng.standard_normal(4000)
        q = quantile_band(draws, levels=(0.95,))
        band = q.band(0.95)
        assert abs(band.lower + 1.959964) < 0.08
        assert abs(band.upper - 1.959964) < 0.08
        assert abs(q.median) < 0.08

    def test_ordering(self, rng):
        draws = rng.standard_normal((500, 7))
        q = quantile_band(draws, levels=(0.8, 0.95))
        for level in (0.8, 0.95):
            band = q.band(level)
            assert np.all(band.lower <= q.median)
            assert np.all(q.median <= band.upper)


class TestSummarize:
    def _draws(self, rows):
        rows = np.asarray(rows, dtype=float)
        return PosteriorDraws(
            draws=rows[None, :, :],
            accept_stats=np.array([1.0]),
            divergence_count=np.array([0]),
            step_sizes=np.array([0.1]),
            param_names=[f"delta_{i+1}" for i in range(rows.shape[1] - 1)]
            + ["log_sigma"],
        )

    def test_single_draw(self, rng):
        basis = build_basis(BasisConfig())
        vec = np.concatenate([rng.uniform(-0.5, 0.5, 13), [0.0]])
        summary = summarize(self._draws([vec]), basis, levels=(0.9,))
        from curdur.model import ModelParams, phi_from_params

        phi = phi_from_params(ModelParams.from_vector(vec), basis).phi
        assert np.allclose(summary.tsls_pmf.median, phi, atol=1e-14)
        band = summary.tsls_pmf.band(0.9)
        assert np.allclose(band.lower, phi, atol=1e-14)
        assert np.allclose(band.upper, phi, atol=1e-14)

    def test_mean_tbs_scalar_and_ordered(self, rng):
        basis = build_basis(BasisConfig())
        rows = np.column_stack(
            [rng.uniform(-0.5, 0.5, (50, 13)), rng.uniform(-0.3, 0.3, (50, 1))]
        )
        summary = summarize(self._draws(rows), basis, levels=(0.8, 0.95))
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
        payload = summarize(self._draws(rows), basis).to_dict()
        text = json.dumps(payload)
        assert "tsls_pmf" in text and "mean_tbs_days" in text
