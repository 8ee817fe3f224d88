"""Leapfrog integrator contracts and sampler calibration."""

import math
import warnings

import numpy as np
import pytest

from curdur.basis import BasisConfig, build_basis
from curdur.errors import ConfigurationError, SamplingError
from curdur.model import PosteriorDensity, phi_matrix, to_centered, to_noncentered
from curdur.reporting import ReportedDataset
from curdur.sampler import (
    PosteriorDraws,
    SamplerConfig,
    _find_initial_step,
    _leapfrog,
    leapfrog,
    sample,
    sample_density,
)
from curdur.simulator import simulate_survey, truncated_geometric

BASIS = build_basis(BasisConfig())


def gaussian_logp_grad(q):
    return -0.5 * float(q @ q), -q


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(chains=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(warmup=2000, iterations_per_chain=2000)
        with pytest.raises(ConfigurationError):
            SamplerConfig(target_accept=1.0)
        assert SamplerConfig().kept_iterations == 1000


class TestLeapfrog:
    def test_zero_steps_is_identity(self):
        q = np.array([1.0, -2.0])
        p = np.array([0.3, 0.7])
        q2, p2 = leapfrog(q, p, 0.1, 0, lambda x: -x)
        assert np.array_equal(q2, q)
        assert np.array_equal(p2, p)

    def test_reversibility(self, rng):
        grad = lambda x: -x
        q = rng.standard_normal(5)
        p = rng.standard_normal(5)
        q1, p1 = leapfrog(q, p, 0.05, 40, grad)
        q0, p0 = leapfrog(q1, -p1, 0.05, 40, grad)
        assert np.max(np.abs(q0 - q)) < 1e-10
        assert np.max(np.abs(-p0 - p)) < 1e-10

    def test_energy_error_is_second_order(self, rng):
        # fixed integration time, shrinking step: |dH| ~ step^2
        q = rng.standard_normal(3)
        p = rng.standard_normal(3)
        h0 = 0.5 * float(q @ q) + 0.5 * float(p @ p)
        steps = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        errors = []
        for eps in steps:
            n = int(round(1.0 / eps))
            q1, p1 = leapfrog(q, p, eps, n, lambda x: -x)
            h1 = 0.5 * float(q1 @ q1) + 0.5 * float(p1 @ p1)
            errors.append(abs(h1 - h0))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 1.8 < slope < 2.2

    def test_mass_scaling(self, rng):
        inv_mass = np.array([4.0, 0.25])
        q = rng.standard_normal(2)
        p = rng.standard_normal(2)
        q1, p1 = leapfrog(q, p, 0.01, 100, lambda x: -x, inv_mass=inv_mass)
        q0, p0 = leapfrog(q1, -p1, 0.01, 100, lambda x: -x, inv_mass=inv_mass)
        assert np.max(np.abs(q0 - q)) < 1e-10


class TestDivergenceRule:
    @pytest.mark.parametrize(
        "bad, diverged",
        [
            (None, False),
            # finite entries whose float sum overflows: not a divergence
            (np.full(4, 1e308), False),
            (np.array([1e308, 1e308, -1e308, 2.0]), False),
            (np.array([0.0, math.inf, 0.0, 0.0]), True),
            (np.array([math.inf, -math.inf, 0.0, 0.0]), True),
            (np.array([0.0, 0.0, math.nan, 0.0]), True),
        ],
    )
    def test_non_finite_gradient_stops_the_trajectory(self, bad, diverged):
        # the gradient turns to ``bad`` at the third position
        calls = []

        def target(q):
            calls.append(q)
            grad = -q if bad is None or len(calls) < 3 else bad.copy()
            return 0.0, grad

        q0 = np.linspace(-1.0, 1.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, _, grad, stopped = _leapfrog(target, q0, np.ones(4), -q0, 0.01, 5,
                                               np.ones(4))
        assert stopped is diverged
        assert len(calls) == (3 if diverged else 5)
        if diverged:
            assert grad is not None and not np.isfinite(grad).all()


class TestGaussianTarget:
    def test_moments_and_divergences(self):
        config = SamplerConfig(chains=4, iterations_per_chain=2000, warmup=1000, seed=3)
        res = sample_density(config, gaussian_logp_grad, dim=2)
        flat = res.flat()
        assert flat.shape == (4000, 2)
        assert np.max(np.abs(flat.mean(axis=0))) < 0.05
        cov = np.cov(flat.T)
        assert np.linalg.norm(cov - np.eye(2)) < 0.1
        assert res.divergence_count.sum() == 0

    def test_determinism_across_reruns(self):
        config = SamplerConfig(chains=2, iterations_per_chain=400, warmup=200, seed=11)
        a = sample_density(config, gaussian_logp_grad, dim=3)
        b = sample_density(config, gaussian_logp_grad, dim=3)
        assert np.array_equal(a.draws, b.draws)


class TestInitialStep:
    def test_steep_wall_gives_no_overflow_warning(self):
        # standard normal inside the unit box, a cliff of huge gradient
        # outside it: the kinetic energy after the first trial step
        # overflows, which must count as an infinite energy, not a warning
        def steep_wall(q):
            grad = np.where(np.abs(q) > 1.0, -1e200 * np.sign(q), -q)
            return -0.5 * float(q @ q), grad

        rng = np.random.default_rng(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = np.zeros(10)
            step = _find_initial_step(steep_wall, start, *steep_wall(start), rng, np.ones(10))
        assert 0.0 < step < 1.0


class TestModelSampling:
    def test_empty_data_rejected(self):
        config = SamplerConfig(chains=2, iterations_per_chain=20, warmup=10)
        with pytest.raises(SamplingError):
            sample(config, ReportedDataset.from_records([]), BASIS)

    def test_prior_only_moments(self):
        # oracle: direct Monte Carlo of the prior's marginal over delta
        rng = np.random.default_rng(123)
        sigma = np.abs(rng.standard_normal(1_000_000))
        oracle_sd = float((rng.standard_normal(1_000_000) * sigma).std())
        config = SamplerConfig(
            chains=4, iterations_per_chain=6000, warmup=2000, seed=5
        )
        # an empty likelihood, with the starts and coordinates of sample
        density = PosteriorDensity(None, BASIS)

        def init_fn(rng):
            return to_noncentered(rng.uniform(-1.0, 1.0, density.num_params))

        res = sample_density(config, density.noncentered_logp_and_grad,
                             density.num_params, init_fn=init_fn)
        sds = to_centered(res.flat())[:, :-1].std(axis=0)
        assert np.max(np.abs(sds - oracle_sd)) / oracle_sd < 0.05

    def test_posterior_run_shape_and_determinism(self):
        data = simulate_survey(truncated_geometric(0.15), n=400, seed=2)
        config = SamplerConfig(chains=2, iterations_per_chain=400, warmup=200, seed=7)
        a = sample(config, data, BASIS)
        b = sample(config, data, BASIS)
        assert a.draws.shape == (2, 200, 14)
        assert a.param_names[-1] == "log_sigma"
        assert np.array_equal(a.draws, b.draws)

    def test_phi_cache(self):
        data = simulate_survey(truncated_geometric(0.15), n=200, seed=2)
        config = SamplerConfig(chains=2, iterations_per_chain=100, warmup=50, seed=7)
        res = sample(config, data, BASIS)
        phi = phi_matrix(res.flat(), BASIS)
        assert phi.shape == (100, 730)
        assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-10)

    def test_progress_hook(self):
        data = simulate_survey(truncated_geometric(0.15), n=100, seed=2)
        config = SamplerConfig(chains=2, iterations_per_chain=40, warmup=20, seed=7)
        seen = []
        sample(config, data, BASIS, progress=lambda c, i, t: seen.append((c, i, t)))
        assert (0, 40, 40) in seen and (1, 40, 40) in seen
        assert len(seen) == 80

    def test_all_divergent_raises(self):
        calls = {"n": 0}

        def pathological(q):
            # finite at the very first evaluation, then a cliff
            calls["n"] += 1
            if calls["n"] <= 2:
                return 0.0, np.zeros_like(q)
            return -math.inf, np.zeros_like(q)

        config = SamplerConfig(chains=2, iterations_per_chain=30, warmup=10, seed=1)
        with pytest.raises(SamplingError):
            sample_density(config, pathological, dim=2)
