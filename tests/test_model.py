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
    grad_log_prior,
    log_prior,
    phi_from_params,
    phi_matrix,
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
        assert abs(log_prior(params) - expected) < 1e-12

    def test_doubling_sigma_shifts_delta_part(self):
        k = 13
        at_one = log_prior(ModelParams(delta=np.zeros(k), log_sigma=0.0))
        at_two = log_prior(ModelParams(delta=np.zeros(k), log_sigma=math.log(2.0)))
        # isolate the delta scale term: remove half-normal and Jacobian parts
        half_normal = lambda s: math.log(2.0) - 0.5 * math.log(2 * math.pi) - 0.5 * s * s
        delta_part_one = at_one - half_normal(1.0) - 0.0
        delta_part_two = at_two - half_normal(2.0) - math.log(2.0)
        assert abs((delta_part_two - delta_part_one) + k * math.log(2.0)) < 1e-12

    def test_matches_scipy_density_sum(self, rng):
        for _ in range(20):
            params = random_params(rng)
            sigma = math.exp(params.log_sigma)
            expected = (
                stats.norm.logpdf(params.delta, loc=0.0, scale=sigma).sum()
                + stats.halfnorm.logpdf(sigma)
                + params.log_sigma
            )
            assert abs(log_prior(params) - expected) < 1e-12


class TestLogPosterior:
    def test_empty_dataset_equals_prior(self, rng):
        data = ReportedDataset.from_records([])
        params = random_params(rng)
        logp = PosteriorDensity(data, BASIS).logp_and_grad(params.to_vector())[0]
        assert logp == log_prior(params)

    def test_single_day_zero_record(self, rng):
        data = ReportedDataset.from_records([ReportedDuration(z=0, unit=Unit.DAY)])
        params = random_params(rng)
        phi = phi_from_params(params, BASIS).phi
        expected = log_prior(params) + math.log(phi[0])
        logp = PosteriorDensity(data, BASIS).logp_and_grad(params.to_vector())[0]
        assert abs(logp - expected) < 1e-10

    def test_enumeration_oracle(self, rng):
        data = make_mixed_dataset(rng, n=50)
        density = PosteriorDensity(data, BASIS)
        for _ in range(5):
            params = random_params(rng)
            phi = phi_from_params(params, BASIS).phi
            expected = log_prior(params)
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
    def test_prior_gradient_finite_differences(self):
        params = ModelParams(delta=np.zeros(13), log_sigma=0.0)
        analytic = grad_log_prior(params)
        assert np.allclose(analytic[:-1], 0.0, atol=1e-12)
        numeric = fd_grad(
            lambda v: log_prior(ModelParams.from_vector(v)), params.to_vector()
        )
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-6)

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
        g_prior = grad_log_prior(params)
        theta = params.to_vector()
        g_single = PosteriorDensity(data, BASIS).logp_and_grad(theta)[1] - g_prior
        g_double = PosteriorDensity(doubled, BASIS).logp_and_grad(theta)[1] - g_prior
        assert np.allclose(g_double, 2.0 * g_single, rtol=1e-12, atol=1e-12)

    def test_coordinate_transforms_invert(self, rng):
        from curdur.model import to_centered, to_noncentered

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


def _chain_rule_reference(density, eta):
    """Non-centered density from the centered reference by the chain rule.

    With delta = sigma z and the log Jacobian k log_sigma:
    logp = logp_c + k log_sigma, d/dz = sigma g_delta and
    d/dlog_sigma = g_log_sigma + delta . g_delta + k.
    """
    k = eta.size - 1
    log_sigma = eta[-1]
    delta = eta[:-1] * math.exp(log_sigma)
    logp_c, g = density.logp_and_grad(np.concatenate([delta, [log_sigma]]))
    grad = np.concatenate(
        [math.exp(log_sigma) * g[:-1], [g[-1] + float(delta @ g[:-1]) + k]]
    )
    return logp_c + k * log_sigma, grad


class TestNoncenteredKernel:
    @pytest.mark.parametrize("case", ["data", "data_clamp_region", "prior_only"])
    def test_matches_centered_reference(self, rng, clips, case):
        data = make_mixed_dataset(rng, n=60)
        density = PosteriorDensity(None if case == "prior_only" else data, BASIS)
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
            ref_logp, ref_grad = _chain_rule_reference(density, eta)
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
        # log_sigma = 0 makes delta = z exactly, so the kernel and the
        # centered reference clip the same sums
        density = PosteriorDensity(make_mixed_dataset(rng, n=60), BASIS)
        eta = np.append(delta, 0.0)
        clips.clear()
        logp, grad = density.noncentered_logp_and_grad(eta)
        clipped = sum(clips)
        clips.clear()
        ref_logp, ref_grad = _chain_rule_reference(density, eta)
        assert clipped == sum(clips)
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
        ref_logp, ref_grad = _chain_rule_reference(density, eta)
        assert np.isfinite(logp) and np.isfinite(grad).all()
        assert abs(logp - ref_logp) <= 1e-10 * max(1.0, abs(ref_logp))
        assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)
        # the centered value against the likelihood summed from phi
        params = ModelParams(delta=delta, log_sigma=0.0)
        phi = phi_from_params(params, BASIS).phi
        expected = log_prior(params)
        for record in data.records:
            lo, hi = day_interval(record)
            expected += math.log(phi[lo : hi + 1].sum())
        centered = density.logp_and_grad(params.to_vector())[0]
        assert abs(centered - expected) <= 1e-10 * abs(expected)


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


def _split_reference(density, eta):
    """The chain-rule transform of the centered reference, prior and likelihood apart.

    Returns (logp, grad, size): the log density is the centered value plus
    the log Jacobian k log_sigma.  On the centered prior the chain rule
    gives (-z, 1 - sigma^2) in closed form; evaluated in floating point, as
    in ``_chain_rule_reference``, it would cancel terms of size
    |delta|^2 / sigma^2, which swamp the likelihood at extreme scales.  The
    centered likelihood does not depend on log_sigma, so its gradient L in
    delta comes from the centered reference at a log_sigma where the
    prior's gradient in delta is negligible.  ``size`` bounds, per entry,
    the terms summed into it, to scale the comparison's tolerance.
    """
    k = eta.size - 1
    z, log_sigma = eta[:-1], float(eta[-1])
    sigma = math.exp(log_sigma)
    delta = z * sigma
    logp_c, _ = density.logp_and_grad(np.append(delta, log_sigma))
    wide = ModelParams(delta=delta, log_sigma=0.5 * math.log1p(delta @ delta) + 10.0)
    _, g = density.logp_and_grad(wide.to_vector())
    lik = g[:-1] - grad_log_prior(wide)[:-1]
    grad = np.append(-z + sigma * lik, 1.0 - sigma**2 + float(delta @ lik))
    size = np.append(np.abs(z) + sigma * np.abs(lik).max(),
                     1.0 + sigma**2 + float(np.abs(delta) @ np.abs(lik)))
    return logp_c + k * log_sigma, grad, size


class TestSafeRegion:
    """The kernel's exception-free fast path and the guarded path at its edges."""

    @pytest.mark.parametrize("case", sorted(_safe_region_edges(np.random.default_rng(11))))
    def test_edges_match_reference_without_warnings(self, monkeypatch, clips, case):
        eta, inside = _safe_region_edges(np.random.default_rng(11))[case]
        density = PosteriorDensity(make_mixed_dataset(np.random.default_rng(5), n=60), BASIS)
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
        ref_logp, ref_grad, size = _split_reference(density, eta)
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
