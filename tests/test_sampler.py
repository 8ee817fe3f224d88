"""Leapfrog integrator contracts and sampler calibration."""

import math
import warnings

import numpy as np
import pytest

from curdur import sampler
from curdur.basis import BasisConfig, build_basis
from curdur.errors import ConfigurationError, SamplingError
from curdur.model import PosteriorDensity, phi_matrix, to_centered, to_noncentered
from curdur.reporting import ReportedDataset
from curdur.sampler import (
    PosteriorDraws,
    SamplerConfig,
    _DualAveraging,
    _find_initial_step,
    _leapfrog,
    _mass_update_points,
    _regularized_variance,
    _sample_chains,
    sample,
    sample_density,
)
from curdur.simulator import simulate_survey, truncated_geometric

BASIS = build_basis(BasisConfig())


def gaussian_logp_grad(q):
    return -0.5 * float(q @ q), -q


def gaussian_trajectory(q, p, step_size, num_steps, inv_mass=1.0):
    """End (position, momentum) of a leapfrog trajectory on a standard normal."""
    q1, p1, _, _, diverged = _leapfrog(lambda x, logp: (0.0, -x), q, p, -q, step_size,
                                       num_steps, inv_mass)
    assert not diverged
    return q1, p1


def sample_start(density):
    """The start ``sample`` gives each chain: (delta, log_sigma) uniform on [-1, 1]."""
    return lambda rng: to_noncentered(rng.uniform(-1.0, 1.0, density.num_params))


def full_calls(density):
    """The kernel, asked for the log density at every step."""
    return lambda q, logp: density.noncentered_logp_and_grad(q)


def chain_starts(config, dim):
    """Each chain's first position under ``sample_density``."""
    return [np.random.default_rng([config.seed, c]).uniform(-1.0, 1.0, dim)
            for c in range(config.chains)]


# the layout of the chains that the sampler's refusal tests run
REFUSED = SamplerConfig(chains=2, iterations_per_chain=30, warmup=10, seed=1)


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(chains=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(warmup=2000, iterations_per_chain=2000)
        with pytest.raises(ConfigurationError):
            SamplerConfig(target_accept=1.0)
        assert SamplerConfig().kept_iterations == 1000
        # any seed numpy takes, as the simulator's: 2**64 and beyond too
        assert SamplerConfig(seed=2**64).seed == 2**64
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            SamplerConfig(seed=-1)

    def test_too_few_kept_draws_refused(self):
        # the diagnostics need 4 draws per chain: refused before any sampling
        with pytest.raises(ConfigurationError, match="must keep the 4 draws per chain"):
            SamplerConfig(iterations_per_chain=63, warmup=60)
        assert SamplerConfig(iterations_per_chain=64, warmup=60).kept_iterations == 4

    @pytest.mark.parametrize(
        "field, value",
        [("chains", 2.5), ("iterations_per_chain", 20.5), ("warmup", 10.5),
         ("seed", 1.5), ("seed", "1"), ("chains", None)],
    )
    def test_counts_must_be_whole_numbers(self, field, value):
        # refused as the config is made, not by numpy once sampling starts
        with pytest.raises(ConfigurationError, match=f"{field} .* is not a whole number"):
            SamplerConfig(**{field: value})
        # a whole float is stored as the int it stands for
        config = SamplerConfig(chains=2.0, iterations_per_chain=20.0, warmup=10.0, seed=1.0)
        assert [type(v) for v in (config.chains, config.iterations_per_chain,
                                  config.warmup, config.seed)] == [int] * 4


class TestLeapfrog:
    def test_reversibility(self, rng):
        q = rng.standard_normal(5)
        p = rng.standard_normal(5)
        q1, p1 = gaussian_trajectory(q, p, 0.05, 40)
        q0, p0 = gaussian_trajectory(q1, -p1, 0.05, 40)
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
            q1, p1 = gaussian_trajectory(q, p, eps, n)
            h1 = 0.5 * float(q1 @ q1) + 0.5 * float(p1 @ p1)
            errors.append(abs(h1 - h0))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 1.8 < slope < 2.2

    def test_mass_scaling(self, rng):
        inv_mass = np.array([4.0, 0.25])
        q = rng.standard_normal(2)
        p = rng.standard_normal(2)
        q1, p1 = gaussian_trajectory(q, p, 0.01, 100, inv_mass)
        q0, p0 = gaussian_trajectory(q1, -p1, 0.01, 100, inv_mass)
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

        def target(q, logp):
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


class TestGradientOnlySteps:
    def test_sample_matches_full_calls_at_every_step(self, monkeypatch):
        # sample() asks the kernel for the gradient alone on interior steps;
        # a kernel that takes the full call at every step must give the
        # same run bit for bit, with the same number of kernel calls
        data = simulate_survey(truncated_geometric(0.15), n=100, seed=2)
        config = SamplerConfig(chains=2, iterations_per_chain=100, warmup=50, seed=7)
        kernel = PosteriorDensity.noncentered_logp_and_grad
        calls = []

        def spy(self, eta, logp=True):
            result = kernel(self, eta, logp)
            calls.append((logp, result[0] is None))
            return result

        monkeypatch.setattr(PosteriorDensity, "noncentered_logp_and_grad", spy)
        fast = sample(config, data, BASIS)
        fast_calls = list(calls)
        calls.clear()
        density = PosteriorDensity(data, BASIS)
        full = _sample_chains(config, full_calls(density), sample_start(density),
                              fast.param_names)
        assert np.array_equal(fast.draws, to_centered(full.draws))
        assert np.array_equal(fast.accept_stats, full.accept_stats)
        assert np.array_equal(fast.step_sizes, full.step_sizes)
        assert np.array_equal(fast.divergence_count, full.divergence_count)
        assert len(fast_calls) == len(calls)
        assert set(calls) == {(True, False)}
        # interior steps got no log density inside the exception-free
        # region and the full, checked result on the guarded path
        assert (False, True) in fast_calls and (False, False) in fast_calls


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

    def test_zero_warmup_keeps_every_iteration_at_the_initial_step(self):
        # no warm-up: nothing adapts, so each chain samples at the step
        # _find_initial_step gives from its stream after the start draw
        config = SamplerConfig(chains=2, iterations_per_chain=40, warmup=0, seed=5)
        res = sample_density(config, gaussian_logp_grad, dim=2)
        assert res.draws.shape == (2, 40, 2)
        for chain in range(2):
            rng = np.random.default_rng([5, chain])
            start = rng.uniform(-1.0, 1.0, 2)
            step = _find_initial_step(lambda q, logp: gaussian_logp_grad(q), start,
                                      *gaussian_logp_grad(start), rng, np.ones(2))
            assert res.step_sizes[chain] == step

    def test_zero_warmup_keeps_a_found_step_of_eight_exactly(self):
        # a normal of sd 4 makes both chains find step 8, which
        # exp(log(8)) misses in its last bit
        def wide(q):
            return -0.5 * float(q @ q) / 16.0, -q / 16.0

        config = SamplerConfig(chains=2, iterations_per_chain=40, warmup=0, seed=0)
        res = sample_density(config, wide, dim=2)
        for chain in range(2):
            rng = np.random.default_rng([0, chain])
            start = rng.uniform(-1.0, 1.0, 2)
            step = _find_initial_step(lambda q, logp: wide(q), start, *wide(start), rng,
                                      np.ones(2))
            assert step == 8.0
            assert res.step_sizes[chain] == step


class TestStepAdaptation:
    def test_no_update_gives_the_initial_step_exactly(self):
        assert math.exp(math.log(8.0)) != 8.0
        assert _DualAveraging(8.0, 0.8).adapted_step == 8.0


class TestWarmupSchedule:
    def test_windows_at_the_default_warmup(self):
        assert _mass_update_points(1000) == [(75, 100), (100, 150), (150, 250),
                                             (250, 450), (450, 950)]

    def test_windows_at_short_warmups(self):
        # 150 fits one base window between its buffers; under 150 the
        # buffers and base window are 15%, 10% and 5% of warm-up
        assert _mass_update_points(150) == [(75, 100)]
        assert _mass_update_points(20) == [(3, 4), (4, 6), (6, 10), (10, 18)]
        assert _mass_update_points(19) == []

    def test_each_metric_sees_its_own_window(self, monkeypatch):
        seen = []

        def spy(window):
            seen.append(len(window))
            return _regularized_variance(window)

        monkeypatch.setattr(sampler, "_regularized_variance", spy)
        config = SamplerConfig(chains=2, iterations_per_chain=1004, warmup=1000, seed=1)
        sample_density(config, gaussian_logp_grad, dim=2)
        assert seen == [25, 50, 100, 200, 500] * 2

    def test_one_draw_gives_the_unit_metric(self):
        assert np.array_equal(_regularized_variance(np.array([[3.0, -2.0]])),
                              np.ones(2))

    def test_variance_is_shrunk_toward_a_small_constant(self):
        window = np.random.default_rng(2).standard_normal((25, 3))
        expected = (25 / 30) * window.var(axis=0, ddof=1) + 1e-3 * (5 / 30)
        assert np.allclose(_regularized_variance(window), expected, rtol=1e-14)


class TestInitialStep:
    def test_steep_wall_gives_no_overflow_warning(self):
        # standard normal inside the unit box, a cliff of huge gradient
        # outside it: the kinetic energy after the first trial step
        # overflows, which must count as an infinite energy, not a warning
        def steep_wall(q, logp):
            grad = np.where(np.abs(q) > 1.0, -1e200 * np.sign(q), -q)
            return -0.5 * float(q @ q), grad

        rng = np.random.default_rng(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = np.zeros(10)
            step = _find_initial_step(steep_wall, start, *steep_wall(start, True), rng,
                                      np.ones(10))
        assert 0.0 < step < 1.0


class TestModelSampling:
    def test_empty_data_rejected(self):
        config = SamplerConfig(chains=2, iterations_per_chain=20, warmup=10)
        with pytest.raises(SamplingError):
            sample(config, ReportedDataset([]), BASIS)

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
        res = _sample_chains(config, full_calls(density), sample_start(density),
                             [f"param_{i}" for i in range(density.num_params)])
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
        sample(config, data, BASIS, progress=seen.append)
        # one call per chain, as it finishes
        assert seen == [0, 1]

    def test_all_divergent_raises(self):
        starts = chain_starts(REFUSED, 2)
        started, calls = [], [0]

        def pathological(q):
            # finite at a chain's start and at its first trial step, then
            # a cliff: every kept proposal diverges
            for c, s in enumerate(starts):
                if np.array_equal(q, s):
                    started.append(c)
                    calls[0] = 0
            calls[0] += 1
            return (0.0 if calls[0] <= 2 else -math.inf), np.zeros_like(q)

        with pytest.raises(SamplingError, match=r"^chain 0: all 20 post-warmup proposals "
                           r"diverged \(step_size=.*, mean_accept=0\.000\); "
                           r"pathological step size or target$"):
            sample_density(REFUSED, pathological, dim=2)
        # refused as it ends: chain 1 never starts
        assert started == [0]

    def test_non_finite_start_raises(self):
        def cliff(q):
            return -math.inf, np.zeros_like(q)

        with pytest.raises(SamplingError,
                           match="^chain 0: posterior is not finite at the initial point$"):
            sample_density(REFUSED, cliff, dim=2)

    def test_no_workable_step_size_raises(self):
        starts = chain_starts(REFUSED, 2)

        def finite_at_starts_only(q):
            finite = any(np.array_equal(q, s) for s in starts)
            return (0.0 if finite else -math.inf), np.zeros_like(q)

        with pytest.raises(SamplingError, match="^could not find a workable step size"):
            sample_density(REFUSED, finite_at_starts_only, dim=2)
