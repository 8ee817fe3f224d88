"""Parameter transforms, prior, posterior, and gradient correctness."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from curdur import model
from curdur.basis import BasisConfig, SplineBasis, build_basis
from curdur.errors import DimensionError
from curdur.model import (
    LOG_CLAMP,
    ModelParams,
    _clamped_sums,
    PosteriorDensity,
    TslsDistribution,
    phi_from_params,
    phi_matrix,
    to_centered,
    to_noncentered,
)
from curdur.reporting import (
    ReportedDataset,
    ReportedDuration,
    Unit,
    day_interval,
    spread_mass,
)
from tests.conftest import fd_grad, make_mixed_dataset

BASIS = build_basis(BasisConfig())
# a small basis for hand-computed transforms: the first three columns
THREE_COLUMNS = SplineBasis(values=BASIS.values[:, :3], knots=BASIS.knots)
FIT_POSITIONS = Path(__file__).parent / "data" / "kernel_fit_positions.npz"
PRIOR = PosteriorDensity(None, BASIS)


def _scipy_log_prior(params: ModelParams) -> float:
    """The log prior over (delta, log_sigma) from scipy's densities."""
    sigma = math.exp(params.log_sigma)
    return (
        stats.norm.logpdf(params.delta, loc=0.0, scale=sigma).sum()
        + stats.halfnorm.logpdf(sigma)
        + params.log_sigma
    )


def _prior_gradient(params: ModelParams) -> np.ndarray:
    """The log prior's gradient in (delta, log_sigma), in closed form."""
    delta = params.delta
    sigma_sq = math.exp(2.0 * params.log_sigma)
    return np.append(-delta / sigma_sq, 1.0 - delta.size + delta @ delta / sigma_sq - sigma_sq)


def _saved_survey(saved) -> ReportedDataset:
    """The survey whose report classes and counts ``saved`` holds."""
    records = []
    for z, unit, count in zip(saved["z"], saved["unit"], saved["count"]):
        records += [ReportedDuration(z=int(z), unit=Unit(int(unit)))] * int(count)
    return ReportedDataset.from_records(records)


@pytest.fixture
def clips(monkeypatch):
    """The number of sums each ``_clamp`` call clipped, read off its mask."""
    counts = []
    clamp = model._clamp

    def spy(sums):
        clamped, unclamped = clamp(sums)
        counts.append(0 if unclamped is None else np.count_nonzero(~unclamped))
        return clamped, unclamped

    monkeypatch.setattr(model, "_clamp", spy)
    return counts


def random_params(rng, k=13):
    return ModelParams(
        delta=rng.uniform(-1.0, 1.0, k), log_sigma=float(rng.uniform(-0.5, 0.5))
    )


class TestAlphaFromDelta:
    """alpha_k = exp(delta_k + ... + delta_K), read through phi_matrix:
    phi is proportional to ``values[:-1] @ alpha``."""

    @staticmethod
    def _phi(delta, basis):
        return phi_matrix(np.append(delta, 0.0)[None, :], basis)[0]

    @staticmethod
    def _expected(alpha, basis):
        gamma = basis.values[:-1] @ alpha
        return gamma / gamma.sum()

    def test_zero_delta_gives_unit_alpha(self):
        phi = self._phi(np.zeros(13), BASIS)
        assert np.allclose(phi, self._expected(np.ones(13), BASIS), rtol=1e-14, atol=0.0)

    def test_last_delta_scales_all(self):
        # a common scale of alpha cancels in phi, to the last bit
        delta = np.zeros(13)
        delta[-1] = math.log(2.0)
        assert np.array_equal(self._phi(delta, BASIS), self._phi(np.zeros(13), BASIS))

    def test_hand_computed_reverse_sums(self):
        basis = THREE_COLUMNS
        phi = self._phi(np.array([1.0, -1.0, 0.0]), basis)
        alpha = np.array([1.0, math.exp(-1.0), 1.0])
        assert np.allclose(phi, self._expected(alpha, basis), rtol=1e-14, atol=0.0)

    def test_clamp_counts_and_stays_finite(self, clips):
        # the reverse sums 1200, 800, 400 clamp to 700, 700, 400
        basis = THREE_COLUMNS
        phi = self._phi(np.full(3, 400.0), basis)
        assert np.all(np.isfinite(phi)) and abs(phi.sum() - 1.0) < 1e-12
        alpha = np.exp(np.array([LOG_CLAMP, LOG_CLAMP, 400.0]) - LOG_CLAMP)
        assert np.allclose(phi, self._expected(alpha, basis), rtol=1e-14, atol=0.0)
        assert sum(clips) > 0

    def test_rejects_wrong_delta_count(self):
        with pytest.raises(DimensionError):
            phi_matrix(np.zeros((2, 13)), BASIS)


class TestPhiFromParams:
    def test_zero_delta_curve(self):
        phi = phi_from_params(ModelParams(delta=np.zeros(13), log_sigma=0.0), BASIS)
        assert np.all(np.diff(phi.phi) <= 0.0)
        assert phi.phi[-1] < 1e-4
        assert abs(phi.phi.sum() - 1.0) < 1e-12

    def test_independent_resummation_oracle(self):
        # phi_0 recomputed from raw basis entries with plain Python sums
        phi = phi_from_params(ModelParams(delta=np.zeros(13), log_sigma=0.0), BASIS)
        row0 = sum(float(v) for v in BASIS.values[0])
        total = 0.0
        for d in range(730):
            total += sum(float(v) for v in BASIS.values[d])
        assert abs(phi.phi[0] - row0 / total) < 1e-12

    def test_normalization_for_random_params(self, rng):
        for _ in range(20):
            phi = phi_from_params(random_params(rng), BASIS)
            assert abs(phi.phi.sum() - 1.0) < 1e-12

    def test_fuzz_monotone_simplex(self, rng):
        # wide fuzz: every finite parameter vector must give a valid simplex
        for _ in range(1000):
            params = ModelParams(
                delta=rng.uniform(-5.0, 5.0, 13),
                log_sigma=float(rng.uniform(-3.0, 3.0)),
            )
            phi = phi_from_params(params, BASIS)
            assert np.all(phi.phi >= 0.0)
            assert np.all(np.diff(phi.phi) <= 1e-12 * phi.phi[0])
            assert abs(phi.phi.sum() - 1.0) < 1e-12

    def test_clamp_edge_rows_monotone_simplex(self):
        # rows whose sums sit on or one ulp past the clamp, where
        # _rescaled_alpha moves the scale
        deltas = np.stack(list(_clamp_edge_deltas().values()))
        phi = phi_matrix(np.column_stack([deltas, np.zeros(len(deltas))]), BASIS)
        assert np.all(np.abs(phi.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(np.diff(phi, axis=1) <= 0.0)

    def test_phi_matrix_matches_scalar_path(self, rng):
        rows = np.column_stack(
            [rng.uniform(-2.0, 2.0, (5, 13)), rng.uniform(-1.0, 1.0, (5, 1))]
        )
        matrix = phi_matrix(rows, BASIS)
        for i in range(5):
            single = phi_from_params(ModelParams.from_vector(rows[i]), BASIS)
            assert np.allclose(matrix[i], single.phi, atol=1e-15)


class TestTslsDistributionValidation:
    def test_rejects_negative(self):
        bad = np.ones(730) / 730.0
        bad[3] = -bad[3]
        with pytest.raises(ValueError):
            TslsDistribution(phi=bad)

    def test_rejects_increasing(self):
        bad = np.ones(730) / 730.0
        bad[3] += 1e-6
        bad[0] -= 1e-6
        with pytest.raises(ValueError):
            TslsDistribution(phi=bad)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            TslsDistribution(phi=np.ones(730) / 700.0)


class TestLogPrior:
    def test_closed_form_at_origin(self):
        k = 13
        params = ModelParams(delta=np.zeros(k), log_sigma=0.0)
        expected = k * (-0.5 * math.log(2 * math.pi)) + (
            math.log(2.0) - 0.5 * math.log(2 * math.pi) - 0.5
        )
        assert abs(PRIOR.logp_and_grad(params.to_vector())[0] - expected) < 1e-12

    def test_doubling_sigma_shifts_delta_part(self):
        k = 13
        at_one = PRIOR.logp_and_grad(np.append(np.zeros(k), 0.0))[0]
        at_two = PRIOR.logp_and_grad(np.append(np.zeros(k), math.log(2.0)))[0]
        # isolate the delta scale term: remove half-normal and Jacobian parts
        half_normal = lambda s: math.log(2.0) - 0.5 * math.log(2 * math.pi) - 0.5 * s * s
        delta_part_one = at_one - half_normal(1.0) - 0.0
        delta_part_two = at_two - half_normal(2.0) - math.log(2.0)
        assert abs((delta_part_two - delta_part_one) + k * math.log(2.0)) < 1e-12

    def test_matches_scipy_density_sum(self, rng):
        for _ in range(20):
            params = random_params(rng)
            logp = PRIOR.logp_and_grad(params.to_vector())[0]
            assert abs(logp - _scipy_log_prior(params)) < 1e-12


class TestLogPosterior:
    def test_empty_dataset_equals_prior(self, rng):
        data = ReportedDataset.from_records([])
        params = random_params(rng)
        logp = PosteriorDensity(data, BASIS).logp_and_grad(params.to_vector())[0]
        assert logp == PRIOR.logp_and_grad(params.to_vector())[0]
        assert abs(logp - _scipy_log_prior(params)) < 1e-12

    def test_single_day_zero_record(self, rng):
        data = ReportedDataset.from_records([ReportedDuration(z=0, unit=Unit.DAY)])
        params = random_params(rng)
        phi = phi_from_params(params, BASIS).phi
        expected = _scipy_log_prior(params) + math.log(phi[0])
        logp = PosteriorDensity(data, BASIS).logp_and_grad(params.to_vector())[0]
        assert abs(logp - expected) < 1e-10

    def test_enumeration_oracle(self, rng):
        data = make_mixed_dataset(rng, n=50)
        density = PosteriorDensity(data, BASIS)
        for _ in range(5):
            params = random_params(rng)
            phi = phi_from_params(params, BASIS).phi
            expected = _scipy_log_prior(params)
            for record in data.records:
                lo, hi = day_interval(record)
                p = 0.0
                for y in range(lo, hi + 1):
                    p += phi[y]
                expected += math.log(p)
            assert abs(density.logp_and_grad(params.to_vector())[0] - expected) < 1e-10

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reorder_invariance(self, seed):
        # exact equality: the classes are summed in one order, whatever
        # the order of the records
        rng = np.random.default_rng(seed)
        data = make_mixed_dataset(rng, n=30)
        shuffled = ReportedDataset.from_records(rng.permutation(data.records))
        theta = random_params(rng).to_vector()
        logp, grad = PosteriorDensity(data, BASIS).logp_and_grad(theta)
        back_logp, back_grad = PosteriorDensity(shuffled, BASIS).logp_and_grad(theta)
        assert back_logp == logp
        assert np.array_equal(back_grad, grad)
        assert np.array_equal(spread_mass(shuffled), spread_mass(data))


class TestGradient:
    def test_prior_gradient_finite_differences(self, rng):
        origin = ModelParams(delta=np.zeros(13), log_sigma=0.0)
        assert np.allclose(PRIOR.logp_and_grad(origin.to_vector())[1][:-1], 0.0, atol=1e-12)
        for params in [origin] + [random_params(rng) for _ in range(4)]:
            theta = params.to_vector()
            analytic = PRIOR.logp_and_grad(theta)[1]
            numeric = fd_grad(lambda v: _scipy_log_prior(ModelParams.from_vector(v)), theta)
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-6)
            assert np.allclose(analytic, _prior_gradient(params), rtol=1e-12, atol=1e-12)

    def test_posterior_gradient_finite_differences(self, rng):
        data = make_mixed_dataset(rng, n=40)
        density = PosteriorDensity(data, BASIS)
        for _ in range(5):
            theta = random_params(rng).to_vector()
            _, analytic = density.logp_and_grad(theta)
            numeric = fd_grad(lambda v: density.logp_and_grad(v)[0], theta)
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            assert rel.max() < 1e-5

    def test_duplicated_data_doubles_likelihood_gradient(self, rng):
        data = make_mixed_dataset(rng, n=25)
        doubled = ReportedDataset.from_records(data.records + data.records)
        params = random_params(rng)
        g_prior = _prior_gradient(params)
        theta = params.to_vector()
        g_single = PosteriorDensity(data, BASIS).logp_and_grad(theta)[1] - g_prior
        g_double = PosteriorDensity(doubled, BASIS).logp_and_grad(theta)[1] - g_prior
        assert np.allclose(g_double, 2.0 * g_single, rtol=1e-12, atol=1e-12)

    def test_coordinate_transforms_invert(self, rng):
        for _ in range(20):
            theta = np.concatenate(
                [rng.uniform(-3.0, 3.0, 13), [rng.uniform(-2.0, 2.0)]]
            )
            back = to_centered(to_noncentered(theta))
            assert np.allclose(back, theta, rtol=1e-14, atol=0.0)
        # a stack of draws maps row by row, bit for bit as the product
        # draws[..., :-1] * exp(draws[..., -1:]) in place
        stacked = rng.normal(size=(3, 50, 14))
        inline = stacked.copy()
        inline[:, :, :-1] *= np.exp(inline[:, :, -1:])
        back = to_centered(stacked)
        assert back.shape == stacked.shape
        assert np.array_equal(back, inline)

    def test_to_noncentered_past_the_scale_range(self):
        # 1 / sigma overflows below log_sigma = -709: z = delta / sigma is
        # NaN at a zero delta and infinite elsewhere, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = to_noncentered(np.array([0.0, 2.0, -1e-300, -800.0]))
            overflow = to_noncentered(np.array([1e10, -700.0]))
        assert np.isnan(eta[0])
        assert eta[1:].tolist() == [math.inf, -math.inf, -800.0]
        assert overflow.tolist() == [math.inf, -700.0]

    def test_to_centered_past_the_scale_range(self):
        # sigma overflows above log_sigma = 709: delta = sigma z is NaN at a
        # zero z and infinite elsewhere, and sigma underflows to 0 at -800,
        # with no warning on one position or on a stack of them
        k = BASIS.num_basis
        z = np.arange(k) - 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = to_centered(np.array([0.0, 2.0, -1e-300, 710.0]))
            small = to_centered(np.array([0.0, 2.0, -1e-300, -800.0]))
            stack = np.array([[np.append(z, ls) for ls in (710.0, -800.0, 0.5)]] * 2)
            mapped = to_centered(stack)
        assert np.isnan(big[0])
        assert big[1:].tolist() == [math.inf, -math.inf, 710.0]
        assert small.tolist() == [0.0, 0.0, 0.0, -800.0]
        assert mapped.shape == (2, 3, k + 1)
        overflow = np.append(np.where(z == 0.0, math.nan, np.copysign(math.inf, z)), 710.0)
        for rows in mapped:
            assert np.array_equal(rows[0], overflow, equal_nan=True)
            assert rows[1].tolist() == [0.0] * k + [-800.0]
            assert np.array_equal(rows[2], np.append(z * np.exp(0.5), 0.5))

    def test_noncentered_gradient_finite_differences(self, rng):
        data = make_mixed_dataset(rng, n=30)
        density = PosteriorDensity(data, BASIS)
        for _ in range(3):
            eta = np.concatenate(
                [rng.uniform(-1.0, 1.0, 13), [rng.uniform(-0.5, 0.5)]]
            )
            _, analytic = density.noncentered_logp_and_grad(eta)
            numeric = fd_grad(
                lambda v: density.noncentered_logp_and_grad(v)[0], eta
            )
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            assert rel.max() < 1e-5


def _reference(data, eta):
    """The non-centered log density and gradient, written out per record.

    Shares no code with the kernel.  With delta = sigma z, each record's
    probability is gamma = basis @ alpha summed over its day interval, over
    gamma's total, where alpha exponentiates the reverse sums of delta as
    ``_clip_path`` clips them.  The prior is scipy's: z standard normal,
    sigma standard half-normal, and log_sigma for the log scale.  With L the
    likelihood's gradient in delta, the chain rule through delta = sigma z
    gives (-z + sigma L, 1 - sigma^2 + delta . L).

    Returns (logp, grad, size): ``size`` bounds, per entry, the terms
    summed into the gradient, to scale the comparison's tolerance.
    """
    z, log_sigma = eta[:-1], float(eta[-1])
    sigma = math.exp(log_sigma)
    delta = z * sigma
    logp = stats.norm.logpdf(z).sum() + stats.halfnorm.logpdf(sigma) + log_sigma
    d_sums = np.zeros_like(delta)
    if data is not None:
        sums, unclipped = _clip_path(delta)
        alpha = np.exp(sums - sums.max())
        support = BASIS.values[:-1]
        total = support.sum(axis=0) * alpha
        for record in data.records:
            lo, hi = day_interval(record)
            mass = support[lo : hi + 1].sum(axis=0) * alpha
            logp += math.log(mass.sum() / total.sum())
            d_sums += mass / mass.sum() - total / total.sum()
        d_sums *= unclipped
    # the k-th sum holds delta_j for every j >= k
    lik = np.cumsum(d_sums)
    grad = np.append(-z + sigma * lik, 1.0 - sigma**2 + float(delta @ lik))
    size = np.append(np.abs(z) + sigma * np.abs(lik).max(),
                     1.0 + sigma**2 + float(np.abs(delta) @ np.abs(lik)))
    return logp, grad, size


class TestNoncenteredKernel:
    @pytest.mark.parametrize("case", ["data", "data_clamp_region", "prior_only"])
    def test_matches_reference(self, rng, clips, case):
        data = None if case == "prior_only" else make_mixed_dataset(rng, n=60)
        density = PosteriorDensity(data, BASIS)
        for _ in range(40):
            z = rng.uniform(-3.0, 3.0, 13)
            log_sigma = rng.uniform(-2.0, 2.0)
            if case == "data_clamp_region":
                # the last increment puts the reverse sums past LOG_CLAMP,
                # a negative first increment pulls the first sum back in
                log_sigma = rng.uniform(0.5, 1.5)
                z[-1] = rng.uniform(705.0, 760.0) / math.exp(log_sigma)
                z[0] = -rng.uniform(40.0, 80.0) / math.exp(log_sigma)
            eta = np.concatenate([z, [log_sigma]])
            clips.clear()
            logp, grad = density.noncentered_logp_and_grad(eta)
            clamped = sum(clips)
            ref_logp, ref_grad, _ = _reference(data, eta)
            assert abs(logp - ref_logp) <= 1e-10 * max(1.0, abs(ref_logp))
            assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)
            assert np.isfinite(logp) and np.isfinite(grad).all()
            if case == "data_clamp_region":
                assert clamped > 0

    @pytest.mark.parametrize(
        "eta_last, z_fill",
        [(0.0, math.nan), (0.0, math.inf), (math.nan, 0.5), (-math.inf, 0.5),
         (math.inf, 0.5), (800.0, 0.5),
         # finite z and log_sigma whose |delta|^2 = sigma^2 |z|^2 overflows
         (300.0, 1e30), (1.0, 1e154)],
    )
    @pytest.mark.parametrize("prior_only", [False, True])
    def test_non_finite_position(self, rng, eta_last, z_fill, prior_only):
        data = make_mixed_dataset(rng, n=20)
        density = PosteriorDensity(None if prior_only else data, BASIS)
        eta = np.full(14, 0.3)
        eta[3] = z_fill
        eta[-1] = eta_last
        logp, grad = density.noncentered_logp_and_grad(eta)
        assert logp == -math.inf
        assert np.array_equal(grad, np.zeros(14))


def _clip_path(delta):
    """The clamp without its fast path: clip every reverse sum, mask the clips."""
    sums = np.cumsum(delta[..., ::-1], axis=-1)[..., ::-1]
    clipped = sums.clip(-LOG_CLAMP, LOG_CLAMP)
    return clipped, clipped == sums


def _clamp_edge_deltas():
    """Increments whose reverse sums sit exactly on +/- LOG_CLAMP or one ulp past."""
    past = np.nextafter(LOG_CLAMP, math.inf)
    cases = {}
    for name, top, bottom in [("at", LOG_CLAMP, -LOG_CLAMP), ("past", past, -past)]:
        for sign in (1.0, -1.0):
            delta = np.zeros(13)
            delta[-1] = sign * top
            cases[f"{name}_{'upper' if sign > 0 else 'lower'}"] = delta
        # first sum at the lower edge, all others at the upper edge
        delta = np.zeros(13)
        delta[-1] = top
        delta[0] = bottom - top
        cases[f"{name}_both"] = delta
    return cases


class TestClampFastPath:
    @pytest.mark.parametrize("case", sorted(_clamp_edge_deltas()))
    def test_matches_clip_path(self, clips, case):
        delta = _clamp_edge_deltas()[case]
        expected, mask = _clip_path(delta)
        sums, unclamped = _clamped_sums(delta)
        assert np.array_equal(sums, expected)
        assert sum(clips) == np.count_nonzero(~mask)
        if case.startswith("at"):
            assert unclamped is None and mask.all()
        else:
            assert np.array_equal(unclamped, mask) and sum(clips) > 0

    @pytest.mark.parametrize("scale", [0.5, 0.99, 0.995, 1.0, 1.01])
    def test_norm_bound_never_skips_a_clip(self, rng, clips, scale):
        # equal increments put the first sum at sqrt(K |delta|^2), the
        # Cauchy-Schwarz worst case for the kernel's bound on the sums
        delta = np.full(13, scale * LOG_CLAMP / 13)
        expected, mask = _clip_path(delta)
        sums, _ = _clamped_sums(delta)
        assert np.array_equal(sums, expected)
        assert sum(clips) == np.count_nonzero(~mask)
        # log_sigma = 0 makes delta = z exactly, so the kernel clips the
        # sums the clip path clips
        data = make_mixed_dataset(rng, n=60)
        density = PosteriorDensity(data, BASIS)
        eta = np.append(delta, 0.0)
        clips.clear()
        logp, grad = density.noncentered_logp_and_grad(eta)
        assert sum(clips) == np.count_nonzero(~mask)
        ref_logp, ref_grad, _ = _reference(data, eta)
        assert abs(logp - ref_logp) <= 1e-10 * max(1.0, abs(ref_logp))
        assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)

    def test_matrix_rows_match_clip_path(self, clips):
        deltas = np.stack(list(_clamp_edge_deltas().values()))
        for rows in (deltas[:3], deltas):
            expected, mask = _clip_path(rows)
            clips.clear()
            sums, _ = _clamped_sums(rows)
            assert np.array_equal(sums, expected)
            assert sum(clips) == np.count_nonzero(~mask)

    @pytest.mark.parametrize("case", sorted(_clamp_edge_deltas()))
    def test_densities_match_references(self, rng, case):
        data = make_mixed_dataset(rng, n=60)
        density = PosteriorDensity(data, BASIS)
        delta = _clamp_edge_deltas()[case]
        # log_sigma = 0 makes delta = z exactly
        eta = np.append(delta, 0.0)
        logp, grad = density.noncentered_logp_and_grad(eta)
        ref_logp, ref_grad, _ = _reference(data, eta)
        assert np.isfinite(logp) and np.isfinite(grad).all()
        assert abs(logp - ref_logp) <= 1e-10 * max(1.0, abs(ref_logp))
        assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)
        # the centered value against the likelihood summed from phi
        params = ModelParams(delta=delta, log_sigma=0.0)
        phi = phi_from_params(params, BASIS).phi
        expected = _scipy_log_prior(params)
        for record in data.records:
            lo, hi = day_interval(record)
            expected += math.log(phi[lo : hi + 1].sum())
        centered = density.logp_and_grad(params.to_vector())[0]
        assert abs(centered - expected) <= 1e-10 * abs(expected)

    def test_every_sum_clamped_gives_the_flat_likelihood(self, rng):
        # every reverse sum clamps to +LOG_CLAMP, so alpha is uniform, as at
        # delta = 0, and no sum moves.  On 60 segments e^LOG_CLAMP times the
        # normaliser's column totals overflows a double: only the rescale
        # keeps the masses finite
        basis = build_basis(BasisConfig(num_segments=60))
        data = make_mixed_dataset(rng, n=60)
        z = np.zeros(basis.num_basis)
        z[-1] = 750.0
        logp, grad = PosteriorDensity(data, basis).noncentered_logp_and_grad(np.append(z, 0.0))
        phi = phi_matrix(np.zeros((1, basis.num_basis + 1)), basis)[0]
        expected = stats.norm.logpdf(z).sum() + stats.halfnorm.logpdf(1.0)
        for record in data.records:
            lo, hi = day_interval(record)
            expected += math.log(phi[lo : hi + 1].sum())
        assert abs(logp - expected) <= 1e-10 * abs(expected)
        assert np.array_equal(grad, np.append(-z, 0.0))


def _last_float_below(predicate, lo, hi):
    """Adjacent floats (x, next float up) with predicate(x) and not predicate(next).

    ``predicate`` must hold at lo, fail at hi and change once in between.
    """
    while np.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            mid = np.nextafter(lo, math.inf)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _in_norm_bound(z, log_sigma):
    # the kernel's test, evaluated in Python floats as the kernel does
    delta_norm = math.exp(log_sigma) * math.hypot(*z)
    return len(z) * delta_norm * delta_norm <= 300.0 * 300.0


def _safe_region_edges(rng):
    """Positions one ulp inside and outside the kernel's exception-free region.

    Name -> (eta, inside).  The log_sigma edges come with a bulk z and with
    a clamp-region z; the |delta| edges move the last z entry by one ulp.
    """
    edges = {}
    inside = 200.0
    outside = float(np.nextafter(200.0, math.inf))
    for sign, side in [(1.0, "upper"), (-1.0, "lower")]:
        for where, log_sigma in [("in", sign * inside), ("out", sign * outside)]:
            sigma = math.exp(log_sigma)
            bulk = rng.uniform(-1.0, 1.0, 13)
            bulk *= 60.0 / (sigma * np.linalg.norm(bulk))
            clamp = np.zeros(13)
            clamp[-1] = 730.0 / sigma
            clamp[0] = -60.0 / sigma
            edges[f"log_sigma_{side}_{where}"] = (np.append(bulk, log_sigma), where == "in")
            edges[f"log_sigma_{side}_{where}_clamp"] = (np.append(clamp, log_sigma), False)
    for log_sigma in (0.0, -1.3, 2.1):
        z = rng.uniform(-1.0, 1.0, 13)
        z[-1] = 0.0

        def inside_at(last, z=z, log_sigma=log_sigma):
            return _in_norm_bound(np.append(z[:-1], last).tolist(), log_sigma)

        lo, hi = _last_float_below(inside_at, 0.0, 400.0 * math.exp(-log_sigma))
        for where, last in [("in", lo), ("out", hi)]:
            eta = np.append(z, log_sigma)
            eta[-2] = last
            edges[f"norm_{log_sigma}_{where}"] = (eta, where == "in")
    return edges


class TestSafeRegion:
    """The kernel's exception-free fast path and the guarded path at its edges."""

    @pytest.mark.parametrize("case", sorted(_safe_region_edges(np.random.default_rng(11))))
    def test_edges_match_reference_without_warnings(self, monkeypatch, clips, case):
        eta, inside = _safe_region_edges(np.random.default_rng(11))[case]
        data = make_mixed_dataset(np.random.default_rng(5), n=60)
        density = PosteriorDensity(data, BASIS)
        errstates = []
        errstate = np.errstate

        def counting_errstate(**kwargs):
            errstates.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting_errstate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp, grad = density.noncentered_logp_and_grad(eta)
        clipped = sum(clips)
        monkeypatch.undo()
        # only the guarded path enters an np.errstate
        assert len(errstates) == (0 if inside else 1)
        if case.endswith("clamp"):
            assert clipped > 0
        ref_logp, ref_grad, size = _reference(data, eta)
        assert np.isfinite(logp) and np.isfinite(grad).all()
        assert abs(logp - ref_logp) <= 1e-10 * max(1.0, abs(ref_logp))
        assert (np.abs(grad - ref_grad) <= 1e-10 * (1.0 + size)).all()

    def test_fit_positions_match_recorded_values(self):
        # 200 positions a fit of the benchmark's fit survey visited (geometric
        # p=0.03, 1000 reports, survey seed 7, 2 chains, fit seed 1), with the
        # log density and gradient an earlier, independently written kernel
        # gave there
        saved = np.load(FIT_POSITIONS)
        density = PosteriorDensity(_saved_survey(saved), BASIS)
        for eta, ref_logp, ref_grad in zip(saved["eta"], saved["logp"], saved["grad"]):
            logp, grad = density.noncentered_logp_and_grad(eta)
            assert abs(logp - ref_logp) <= 1e-10 * max(1.0, abs(ref_logp))
            assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)


class TestGradientOnlyCall:
    """``noncentered_logp_and_grad(eta, False)``: the gradient alone where it is safe."""

    def test_fit_positions_skip_the_log_density(self):
        saved = np.load(FIT_POSITIONS)
        density = PosteriorDensity(_saved_survey(saved), BASIS)
        for eta in saved["eta"]:
            _, full_grad = density.noncentered_logp_and_grad(eta)
            logp, grad = density.noncentered_logp_and_grad(eta, False)
            assert logp is None
            assert np.array_equal(grad, full_grad)

    @pytest.mark.parametrize("case", sorted(_safe_region_edges(np.random.default_rng(11))))
    @pytest.mark.parametrize("prior_only", [False, True])
    def test_full_call_outside_the_region_and_without_data(self, case, prior_only):
        eta, inside = _safe_region_edges(np.random.default_rng(11))[case]
        data = make_mixed_dataset(np.random.default_rng(5), n=60)
        density = PosteriorDensity(None if prior_only else data, BASIS)
        full_logp, full_grad = density.noncentered_logp_and_grad(eta)
        logp, grad = density.noncentered_logp_and_grad(eta, False)
        assert np.array_equal(grad, full_grad)
        if inside and not prior_only:
            assert logp is None
        else:
            assert type(logp) is float and logp == full_logp

    @pytest.mark.parametrize("prior_only", [False, True])
    def test_non_finite_position_gives_the_full_call(self, prior_only):
        data = make_mixed_dataset(np.random.default_rng(5), n=20)
        density = PosteriorDensity(None if prior_only else data, BASIS)
        eta = np.full(14, 0.3)
        eta[3] = math.nan
        logp, grad = density.noncentered_logp_and_grad(eta, False)
        assert logp == -math.inf
        assert np.array_equal(grad, np.zeros(14))


class TestCenteredView:
    """``logp_and_grad``: the kernel through the Jacobian of eta = (delta / sigma, log_sigma)."""

    def test_fit_positions_match_recorded_values(self):
        # the recorded kernel values, transformed: the log density minus
        # K log_sigma, grad_z / sigma and grad_ls - z . grad_z - K
        saved = np.load(FIT_POSITIONS)
        density = PosteriorDensity(_saved_survey(saved), BASIS)
        for eta, ref_logp, ref_grad in zip(saved["eta"], saved["logp"], saved["grad"]):
            z, log_sigma = eta[:-1], float(eta[-1])
            expected_logp = ref_logp - z.size * log_sigma
            expected_grad = np.append(ref_grad[:-1] / math.exp(log_sigma),
                                      ref_grad[-1] - z @ ref_grad[:-1] - z.size)
            logp, grad = density.logp_and_grad(to_centered(eta))
            assert abs(logp - expected_logp) <= 1e-13 * max(1.0, abs(expected_logp))
            assert (np.abs(grad - expected_grad)
                    <= 1e-11 * np.maximum(1.0, np.abs(expected_grad))).all()

    @pytest.mark.parametrize(
        "delta, log_sigma",
        [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.3, math.nan),
         (0.3, math.inf), (0.3, -math.inf), (0.3, 800.0),
         # 1 / sigma overflows, and every z = delta / sigma is NaN
         (0.0, -800.0)],
    )
    @pytest.mark.parametrize("prior_only", [False, True])
    def test_total_without_warnings(self, delta, log_sigma, prior_only):
        data = make_mixed_dataset(np.random.default_rng(5), n=20)
        density = PosteriorDensity(None if prior_only else data, BASIS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp, grad = density.logp_and_grad(np.append(np.full(13, delta), log_sigma))
        assert logp == -math.inf
        assert np.array_equal(grad, np.zeros(14))
